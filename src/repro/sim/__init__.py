"""Gate-level simulation: stimulus, zero-delay and timed engines.

Timed (glitch-inclusive) counts come from one engine, the compiled
word-parallel ``repro.sim.timed``: ``timed_transitions_from_words`` for
a combinational word stimulus, ``timed_sequential_transitions`` for a
clocked run.  ``EventSimulator`` is the event-driven oracle the tests
hold it to.
"""

from repro.sim.vectors import random_words, words_from_vectors, \
    vectors_from_words, random_bus_stream, counter_bus_stream
from repro.sim.functional import simulate_transitions, \
    sequential_transitions
from repro.sim.compiled import (CompiledNetwork, compile_network,
                                get_compiled)
from repro.sim.event import EventSimulator
from repro.sim.timed import (CompiledTimedNetwork, get_timed,
                             timed_sequential_transitions,
                             timed_transitions_from_words)

__all__ = ["random_words", "words_from_vectors", "vectors_from_words",
           "random_bus_stream", "counter_bus_stream",
           "simulate_transitions", "sequential_transitions",
           "CompiledNetwork", "compile_network", "get_compiled",
           "EventSimulator",
           "CompiledTimedNetwork", "get_timed",
           "timed_sequential_transitions",
           "timed_transitions_from_words"]
