"""Spurious-transition (glitch) analysis.

Compares event-driven (timed) transition counts with zero-delay counts on
the same stimulus; the excess is the spurious activity that path
balancing (Section III-A.2) attacks.  Fractions are reported both raw and
capacitance-weighted, since power is Σ C·N.

Both entry points default to the compiled word-parallel timed engine
(``repro.sim.timed``); ``engine="event"`` runs the bit-identical
event-driven oracle instead.  Either way the zero-delay and timed runs
share one compiled program per network, so a before/after comparison
compiles each network version exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.logic.netlist import Network
from repro.power.model import PowerParameters, node_capacitance
from repro.sim.event import _check_engine, timed_transitions
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

    def per_node_glitches(self) -> Dict[str, int]:
        return {name: self.timed[name] - self.functional.get(name, 0)
                for name in self.timed}


def timed_stimulus(net: Network, num_vectors: int, seed: int = 0,
                   input_probs: Optional[Dict[str, float]] = None
                   ) -> Tuple[List[str], Dict[str, int]]:
    """The shared stimulus of every timed-power experiment: Bernoulli
    words over all sources (primary inputs and latch outputs)."""
    sources = [n.name for n in net.nodes.values() if n.is_source()]
    return sources, random_words(sources, num_vectors, seed, input_probs)


def _timed_counts(net: Network, words: Dict[str, int], num_vectors: int,
                  delays: Optional[Dict[str, float]],
                  engine: str) -> Dict[str, int]:
    """Dispatch a word-packed stimulus to the selected timed engine."""
    _check_engine(engine)
    if engine == "compiled":
        return timed_transitions_from_words(net, words, num_vectors,
                                            delays=delays)
    vectors = vectors_from_words(words, num_vectors)
    return timed_transitions(net, vectors, delays=delays,
                             engine="event")


def timed_average_power(net: Network, num_vectors: int = 256,
                        seed: int = 0,
                        input_probs: Optional[Dict[str, float]] = None,
                        delays: Optional[Dict[str, float]] = None,
                        params: Optional[PowerParameters] = None,
                        engine: str = "compiled"):
    """Eqn-1 power with *timed* (glitch-inclusive) activities.

    The standard :func:`repro.power.model.average_power` uses zero-delay
    activities and therefore excludes spurious-transition power; this
    variant drives the timed simulator so buffer-insertion trade-offs
    (extra capacitance vs removed glitches) are measured in watts.
    """
    from repro.power.model import power_report

    params = params or PowerParameters()
    _sources, words = timed_stimulus(net, num_vectors, seed, input_probs)
    timed = _timed_counts(net, words, num_vectors, delays, engine)
    cycles = max(1, num_vectors - 1)
    activity = {name: t / cycles for name, t in timed.items()}
    return power_report(net, activity, params)


def glitch_report(net: Network, num_vectors: int = 256, seed: int = 0,
                  input_probs: Optional[Dict[str, float]] = None,
                  delays: Optional[Dict[str, float]] = None,
                  params: Optional[PowerParameters] = None,
                  engine: str = "compiled") -> GlitchReport:
    """Run both simulators on the same random stimulus."""
    params = params or PowerParameters()
    _sources, words = timed_stimulus(net, num_vectors, seed, input_probs)
    functional = simulate_transitions(net, words, num_vectors)
    timed = _timed_counts(net, words, num_vectors, delays, engine)
    caps = {name: node_capacitance(net, name, params)
            for name in net.nodes}
    cw_timed = sum(caps[n] * t for n, t in timed.items())
    cw_func = sum(caps[n] * t for n, t in functional.items())
    return GlitchReport(timed=timed, functional=functional,
                        cap_weighted_timed=cw_timed,
                        cap_weighted_functional=cw_func)
