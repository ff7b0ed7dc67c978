"""Spurious-transition (glitch) analysis.

Compares event-driven (timed) transition counts with zero-delay counts on
the same stimulus; the excess is the spurious activity that path
balancing (Section III-A.2) attacks.  Fractions are reported both raw and
capacitance-weighted, since power is Σ C·N.

Timed counts come from the compiled word-parallel engine
(``repro.sim.timed``), whose zero-delay and timed runs share one
compiled program per network, so a before/after comparison compiles
each network version exactly once.  ``glitch_report(engine="event")``
runs the bit-identical event-driven oracle instead, for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.logic.netlist import Network
from repro.power.activity import transition_activity
from repro.power.model import PowerParameters, node_capacitance
from repro.sim.event import EventSimulator
from repro.sim.functional import simulate_transitions
from repro.sim.timed import timed_transitions_from_words
from repro.sim.vectors import random_words, vectors_from_words


@dataclass
class GlitchReport:
    """Timed vs zero-delay transition accounting."""

    timed: Dict[str, int]
    functional: Dict[str, int]
    cap_weighted_timed: float
    cap_weighted_functional: float

    @property
    def total_timed(self) -> int:
        return sum(self.timed.values())

    @property
    def total_functional(self) -> int:
        return sum(self.functional.values())

    @property
    def glitch_fraction(self) -> float:
        """Fraction of raw transitions that are spurious."""
        if not self.total_timed:
            return 0.0
        return 1.0 - self.total_functional / self.total_timed

    @property
    def glitch_power_fraction(self) -> float:
        """Fraction of C·N switching power that is spurious."""
        if not self.cap_weighted_timed:
            return 0.0
        return 1.0 - self.cap_weighted_functional / self.cap_weighted_timed


def timed_stimulus(net: Network, num_vectors: int, seed: int = 0,
                   input_probs: Optional[Dict[str, float]] = None
                   ) -> Dict[str, int]:
    """The shared stimulus of every timed-power experiment: Bernoulli
    words over all sources (primary inputs and latch outputs)."""
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    return random_words(sources, num_vectors, seed, input_probs)


def timed_average_power(net: Network, num_vectors: int = 256,
                        seed: int = 0,
                        input_probs: Optional[Dict[str, float]] = None,
                        delays: Optional[Dict[str, float]] = None,
                        params: Optional[PowerParameters] = None):
    """Eqn-1 power with *timed* (glitch-inclusive) activities.

    The standard :func:`repro.power.model.average_power` uses zero-delay
    activities and therefore excludes spurious-transition power; this
    variant drives the timed simulator so buffer-insertion trade-offs
    (extra capacitance vs removed glitches) are measured in watts.
    """
    from repro.power.model import power_report

    params = params or PowerParameters()
    words = timed_stimulus(net, num_vectors, seed, input_probs)
    timed = timed_transitions_from_words(net, words, num_vectors,
                                         delays=delays)
    return power_report(net, transition_activity(timed, num_vectors),
                        params)


def glitch_report(net: Network, num_vectors: int = 256, seed: int = 0,
                  input_probs: Optional[Dict[str, float]] = None,
                  delays: Optional[Dict[str, float]] = None,
                  params: Optional[PowerParameters] = None,
                  engine: str = "compiled") -> GlitchReport:
    """Run both simulators on the same random stimulus.

    ``engine="compiled"`` (default) times the words with the library
    engine; ``engine="event"`` runs the event-driven oracle on the same
    words, for cross-checks.
    """
    if engine not in ("compiled", "event"):
        raise ValueError(f"unknown timed engine {engine!r}; expected "
                         f"'compiled' or 'event'")
    params = params or PowerParameters()
    words = timed_stimulus(net, num_vectors, seed, input_probs)
    functional = simulate_transitions(net, words, num_vectors)
    if engine == "compiled":
        timed = timed_transitions_from_words(net, words, num_vectors,
                                             delays=delays)
    else:
        timed = EventSimulator(net, delays).run(
            vectors_from_words(words, num_vectors))
    caps = {name: node_capacitance(net, name, params)
            for name in net.nodes}
    cw_timed = sum(caps[n] * t for n, t in timed.items())
    cw_func = sum(caps[n] * t for n, t in functional.items())
    return GlitchReport(timed=timed, functional=functional,
                        cap_weighted_timed=cw_timed,
                        cap_weighted_functional=cw_func)
