"""Exact long-run distribution of a finite Markov chain from a start state."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

#: Restart rate from every state back to state 0: far below any real
#: transition probability, it moves mass only where nothing else does.
_RESTART = 1e-100


def limit_distribution(rows: Sequence[Iterable[Tuple[int, float]]]
                       ) -> List[float]:
    """The distribution a chain started in state 0 reaches in the long
    run: the Cesàro limit, which a simulation from state 0 converges to.

    ``rows[i]`` lists ``(j, p)``: state ``i`` moves to ``j`` with
    probability ``p``; repeated targets add up.  States unreachable from
    0 get 0.  The solve is exact, with no iteration count or tolerance:
    GTH elimination (Grassmann–Taksar–Heyman, no subtractions) with a
    vanishing restart to state 0.  The restarted chain's stationary
    vector is the Abel mean of the walk from 0, whose limit is the
    Cesàro limit, so transient states, several closed classes and
    periodic chains need no special case.  The worst case is cubic in
    the number of states.
    """
    n = len(rows)
    out: List[Dict[int, float]] = [{0: _RESTART} if i else {}
                                   for i in range(n)]
    into: List[Set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j, p in row:
            if j != i and p > 0.0:
                out[i][j] = out[i].get(j, 0.0) + p
                into[j].add(i)
    # Eliminate states n-1 .. 1.  Self-loops are never stored: a state's
    # exit rate is the sum of its remaining off-diagonal row.
    inflow: List[Dict[int, float]] = [{} for _ in range(n)]
    for k in range(n - 1, 0, -1):
        rate = sum(out[k].values())
        inflow[k] = {i: out[i].pop(k) / rate for i in into[k] if i < k}
        for i, a in inflow[k].items():
            for j, p in out[k].items():
                if j != i:
                    out[i][j] = out[i].get(j, 0.0) + a * p
                    into[j].add(i)
    pi = [1.0] + [0.0] * (n - 1)
    for k in range(1, n):
        pi[k] = sum(pi[i] * a for i, a in inflow[k].items())
    total = sum(pi)
    return [p / total for p in pi]
