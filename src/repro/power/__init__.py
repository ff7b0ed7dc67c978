"""Power analysis: switching activity estimation and CMOS power models."""

from repro.power.activity import (activity_from_simulation,
                                  signal_probability_propagation,
                                  signal_probability_exact,
                                  transition_density,
                                  activity_from_probability)
from repro.power.model import (PowerParameters, PowerReport,
                               node_capacitance, power_report,
                               average_power)
from repro.power.glitch import GlitchReport, glitch_report

__all__ = ["activity_from_simulation", "signal_probability_propagation",
           "signal_probability_exact", "transition_density",
           "activity_from_probability", "PowerParameters",
           "PowerReport",
           "node_capacitance", "power_report", "average_power",
           "GlitchReport", "glitch_report"]
