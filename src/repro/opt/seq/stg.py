"""State transition graphs: KISS reading, Markov analysis, FSM synthesis.

The sequential optimizations of Section III-C.1 work on the STG level:
state encoding needs the *weighted* switching activity between states,
which requires the stationary distribution of the STG viewed as a Markov
chain under given input statistics.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.logic.cube import Cube
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.power.markov import limit_distribution
from repro.sim.vectors import check_probabilities


@dataclass(frozen=True)
class Transition:
    """One STG edge: on ``input_cube`` move ``src -> dst`` emitting
    ``output`` (a '01-' string, one char per FSM output)."""

    input_cube: Cube
    src: str
    dst: str
    output: str


class STG:
    """A Moore/Mealy state transition graph (KISS semantics)."""

    def __init__(self, num_inputs: int, num_outputs: int,
                 states: Optional[Sequence[str]] = None,
                 reset_state: Optional[str] = None):
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.states: List[str] = list(states) if states else []
        self.transitions: List[Transition] = []
        self.reset_state = reset_state

    def add_state(self, name: str) -> str:
        if name not in self.states:
            self.states.append(name)
            if self.reset_state is None:
                self.reset_state = name
        return name

    def add_transition(self, input_cube: Union[str, Cube], src: str,
                       dst: str, output: str = "") -> Transition:
        if isinstance(input_cube, str):
            input_cube = Cube.from_string(input_cube)
        if input_cube.num_vars != self.num_inputs:
            raise ValueError("input cube arity mismatch")
        if len(output) != self.num_outputs:
            raise ValueError("output width mismatch")
        self.add_state(src)
        self.add_state(dst)
        t = Transition(input_cube, src, dst, output)
        self.transitions.append(t)
        return t

    def next_state(self, state: str, inputs: int) -> Tuple[str, str]:
        """Simulate one step; unspecified input combinations self-loop
        with all-zero outputs."""
        for t in self.transitions:
            if t.src == state and t.input_cube.covers_minterm(inputs):
                return t.dst, t.output
        return state, "0" * self.num_outputs

    # -- Markov analysis -----------------------------------------------------

    def transition_matrix(self,
                          input_probs: Optional[Sequence[float]] = None
                          ) -> Dict[str, Dict[str, float]]:
        """P(s -> t) under independent input bits (default p=0.5 each).
        A length other than ``num_inputs`` or a probability outside
        [0, 1] raises ``ValueError``; every Markov method checks here."""
        probs = list(input_probs) if input_probs is not None \
            else [0.5] * self.num_inputs
        if len(probs) != self.num_inputs:
            raise ValueError(f"expected {self.num_inputs} input "
                             f"probabilities, not {len(probs)}")
        check_probabilities({f"input {i}": p for i, p in enumerate(probs)})

        def cube_prob(cube: Cube) -> float:
            p = 1.0
            for var, phase in cube.literals():
                p *= probs[var] if phase else 1.0 - probs[var]
            return p

        matrix: Dict[str, Dict[str, float]] = \
            {s: {} for s in self.states}
        specified: Dict[str, float] = {s: 0.0 for s in self.states}
        for t in self.transitions:
            p = cube_prob(t.input_cube)
            matrix[t.src][t.dst] = matrix[t.src].get(t.dst, 0.0) + p
            specified[t.src] += p
        for s in self.states:
            missing = 1.0 - specified[s]
            if missing > 1e-9:
                matrix[s][s] = matrix[s].get(s, 0.0) + missing
        return matrix

    def _limit(self, matrix: Dict[str, Dict[str, float]]
               ) -> Dict[str, float]:
        start = self.reset_state or self.states[0]
        order = [start] + [s for s in self.states if s != start]
        index = {s: i for i, s in enumerate(order)}
        pi = limit_distribution([[(index[t], p) for t, p in
                                  matrix[s].items()] for s in order])
        return {s: pi[index[s]] for s in self.states}

    def edge_weights(self, input_probs: Optional[Sequence[float]] = None
                     ) -> Dict[Tuple[str, str], float]:
        """w(s, t) = π(s)·P(s→t): expected traversals per cycle."""
        matrix = self.transition_matrix(input_probs)
        pi = self._limit(matrix)
        return {(s, t): pi[s] * p
                for s, row in matrix.items() for t, p in row.items()}

    def self_loop_probability(self,
                              input_probs: Optional[Sequence[float]]
                              = None) -> float:
        """Expected fraction of cycles spent on self-loop edges — the
        clock-gating opportunity of [4]."""
        return sum(w for (s, t), w in
                   self.edge_weights(input_probs).items() if s == t)

    def random_input_sequence(self, length: int, seed: int = 0
                              ) -> List[int]:
        """``length`` uniformly random input patterns, bit *i* of each
        being input *i*; a negative ``length`` raises ``ValueError``."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length!r}")
        rng = random.Random(seed)
        return [rng.getrandbits(self.num_inputs) if self.num_inputs
                else 0 for _ in range(length)]

    def __repr__(self) -> str:
        return (f"STG({len(self.states)} states, "
                f"{len(self.transitions)} transitions, "
                f"{self.num_inputs} in / {self.num_outputs} out)")


def read_kiss(source: Union[str, TextIO]) -> STG:
    """Parse the KISS2 FSM interchange format."""
    if isinstance(source, str):
        source = io.StringIO(source)
    num_inputs = num_outputs = None
    reset = None
    rows: List[Tuple[str, str, str, str]] = []
    for raw in source:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == ".i":
            num_inputs = int(tok[1])
        elif tok[0] == ".o":
            num_outputs = int(tok[1])
        elif tok[0] in (".s", ".p", ".e", ".end"):
            continue
        elif tok[0] == ".r":
            reset = tok[1]
        elif len(tok) == 4:
            rows.append((tok[0], tok[1], tok[2], tok[3]))
        else:
            raise ValueError(f"bad KISS line: {line!r}")
    if num_inputs is None or num_outputs is None:
        raise ValueError("KISS file missing .i/.o")
    stg = STG(num_inputs, num_outputs, reset_state=reset)
    if reset:
        stg.add_state(reset)
    for inp, src, dst, out in rows:
        stg.add_transition(inp, src, dst, out)
    return stg


def synthesize_fsm(stg: STG, encoding: Dict[str, int],
                   minimize: bool = True,
                   name: str = "fsm") -> Network:
    """Two-level synthesis of an encoded FSM.

    ``encoding[state]`` is the integer code.  The result is a sequential
    :class:`Network` with inputs ``x0..``, state flip-flops ``s0..`` and
    outputs ``z0..``; next-state and output functions are (optionally
    minimized) SOP nodes over inputs and present-state bits.
    """
    num_bits = max(1, max(encoding.values()).bit_length()) \
        if encoding else 1
    codes = set()
    for state, code in encoding.items():
        if code in codes:
            raise ValueError(f"duplicate code {code} for {state!r}")
        codes.add(code)
    n_in = stg.num_inputs
    n_vars = n_in + num_bits

    net = Network(name)
    for i in range(n_in):
        net.add_input(f"x{i}")
    reset_code = encoding[stg.reset_state] if stg.reset_state else 0
    for j in range(num_bits):
        net.add_latch(f"ns{j}", f"s{j}", init=(reset_code >> j) & 1)

    ns_cubes: List[List[Cube]] = [[] for _ in range(num_bits)]
    out_cubes: List[List[Cube]] = [[] for _ in range(stg.num_outputs)]
    for t in stg.transitions:
        src_code = encoding[t.src]
        dst_code = encoding[t.dst]
        lits = list(t.input_cube.literals())
        for j in range(num_bits):
            lits.append((n_in + j, (src_code >> j) & 1))
        cube = Cube.from_literals(n_vars, lits)
        for j in range(num_bits):
            if (dst_code >> j) & 1:
                ns_cubes[j].append(cube)
        for k, ch in enumerate(t.output):
            if ch == "1":
                out_cubes[k].append(cube)

    fanins = [f"x{i}" for i in range(n_in)] + \
        [f"s{j}" for j in range(num_bits)]
    for j in range(num_bits):
        cover = Cover(n_vars, ns_cubes[j])
        if minimize:
            cover = cover.minimize()
        net.add_sop(f"ns{j}", fanins, cover)
    for k in range(stg.num_outputs):
        cover = Cover(n_vars, out_cubes[k])
        if minimize:
            cover = cover.minimize()
        net.add_sop(f"z{k}", fanins, cover)
        net.set_output(f"z{k}")
    net.check()
    return net
