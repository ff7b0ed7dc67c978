"""The exact limit-distribution solver against a reference in exact
arithmetic: closed classes reached from state 0, each weighted by the
probability of being absorbed into it."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro.power.markov import limit_distribution


def _solve(a, b):
    """x with a·x = b, by Gauss–Jordan elimination over Fractions."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] / m[r][r] for r in range(n)]


def reference_limit(rows):
    n = len(rows)
    p = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, q in row:
            p[i][j] += Fraction(q)

    def reach(s):
        seen, todo = {s}, [s]
        while todo:
            i = todo.pop()
            for j in range(n):
                if p[i][j] and j not in seen:
                    seen.add(j)
                    todo.append(j)
        return seen

    reach_of = {s: reach(s) for s in reach(0)}
    closed = {frozenset(r) for s, r in reach_of.items()
              if all(s in reach_of[t] for t in r)}
    transient = [s for s in reach_of if not any(s in c for c in closed)]
    pi = [Fraction(0)] * n
    for cls in closed:
        members = sorted(cls)
        # Stationary vector of the class: balance at every member but
        # the last, and total mass one.
        a = [[p[i][j] - (i == j) for i in members] for j in members[:-1]]
        stat = _solve(a + [[Fraction(1)] * len(members)],
                      [Fraction(0)] * (len(members) - 1) + [Fraction(1)])
        # Probability that the walk from 0 ends in this class.
        if 0 in cls:
            absorbed = Fraction(1)
        elif 0 in transient:
            h = _solve([[(i == j) - p[i][j] for j in transient]
                        for i in transient],
                       [sum(p[i][j] for j in cls) for i in transient])
            absorbed = h[transient.index(0)]
        else:
            absorbed = Fraction(0)
        for s, q in zip(members, stat):
            pi[s] = absorbed * q
    return pi


@st.composite
def chains(draw):
    """Random chains of at most 8 states whose probabilities are
    multiples of 1/512."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(n):
        k = draw(st.integers(1, min(3, n)))
        targets = draw(st.lists(st.integers(0, n - 1), min_size=k,
                                max_size=k, unique=True))
        cuts = sorted(draw(st.lists(st.integers(1, 511), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [512])]
        rows.append([(t, w / 512) for t, w in zip(targets, weights)])
    return rows


PERIODIC = [[(1, 1.0)], [(0, 0.5), (2, 0.5)], [(1, 1.0)]]
# 0 is transient with a 1/512 branch into a closed self-loop and the
# rest into a closed 2-cycle; state 4 is unreachable.
TWO_CLASSES = [[(1, 1 / 512), (2, 511 / 512)], [(1, 1.0)], [(3, 1.0)],
               [(2, 1.0)], [(0, 1.0)]]
# A tail into a 3-cycle entered at different phases.
TAIL_INTO_CYCLE = [[(1, 0.25), (2, 0.75)], [(2, 1.0)], [(3, 1.0)],
                   [(4, 1.0)], [(2, 1.0)]]


@given(chains())
@example(PERIODIC)
@example(TWO_CLASSES)
@example(TAIL_INTO_CYCLE)
@settings(max_examples=200, deadline=None)
def test_matches_exact_reference(rows):
    got = limit_distribution(rows)
    want = reference_limit(rows)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - float(w)) < 1e-12


def test_unreachable_states_get_exactly_zero():
    assert limit_distribution(TWO_CLASSES)[4] == 0.0
