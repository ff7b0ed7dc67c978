"""Sum-of-products covers and a compact espresso-style minimizer.

A :class:`Cover` is a list of :class:`~repro.logic.cube.Cube` objects over a
shared variable count.  The module provides the classical unate-recursive
operations (tautology, complement, cube containment) and a two-level
minimizer (`minimize`) implementing the EXPAND / IRREDUNDANT / REDUCE loop
of espresso, adequate for the node sizes seen in multi-level synthesis.
"""

from __future__ import annotations


from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.logic.cube import Cube

#: A cover's content: ``num_vars`` and each cube's ``(mask, value)`` in
#: order (:func:`_cover_key`).
_Key = Tuple[int, Tuple[Tuple[int, int], ...]]
#: A Shannon plan (:meth:`Cover._shannon_plan`): a constant leaf or
#: ``(var, hi, lo)``.
_Plan = Union[float, Tuple[int, "_Plan", "_Plan"]]


class Cover:
    """A sum-of-products cover (set of cubes) over ``num_vars`` variables."""

    __slots__ = ("num_vars", "cubes")

    def __init__(self, num_vars: int, cubes: Iterable[Cube] = ()):
        self.num_vars = num_vars
        self.cubes: List[Cube] = []
        for c in cubes:
            if c.num_vars != num_vars:
                raise ValueError("cube arity mismatch")
            self.cubes.append(c)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Cover":
        return cls(num_vars, [])

    @classmethod
    def one(cls, num_vars: int) -> "Cover":
        return cls(num_vars, [Cube.universe(num_vars)])

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        if not rows:
            raise ValueError("need at least one row (use Cover.zero)")
        n = len(rows[0])
        return cls(n, [Cube.from_string(r) for r in rows])

    @classmethod
    def from_minterms(cls, num_vars: int, minterms: Iterable[int]) -> "Cover":
        return cls(num_vars,
                   [Cube.from_minterm(num_vars, m) for m in minterms])

    def copy(self) -> "Cover":
        return Cover(self.num_vars, list(self.cubes))

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def is_empty(self) -> bool:
        return not self.cubes

    def num_literals(self) -> int:
        return sum(c.num_literals() for c in self.cubes)

    def support(self) -> int:
        """Bit-mask of variables appearing in the cover."""
        s = 0
        for c in self.cubes:
            s |= c.mask
        return s

    def evaluate(self, minterm: int) -> bool:
        return any(c.covers_minterm(minterm) for c in self.cubes)

    def evaluate_words(self, input_words: Sequence[int], width_mask: int) -> int:
        """Bit-parallel evaluation.

        ``input_words[i]`` holds one bit per pattern for variable *i*;
        returns a word with one output bit per pattern.  Any words with
        ``&``, ``|``, ``~`` and truth as a bitwise set do: with
        :class:`~repro.bdd.bdd.BDDFunction` words and ``width_mask`` its
        manager's ``true``, the result is the cover's global function.
        """
        out = width_mask ^ width_mask
        for c in self.cubes:
            term = width_mask
            m = c.mask
            while m:
                bit = m & -m
                var = bit.bit_length() - 1
                w = input_words[var]
                # ``term`` starts as ``width_mask`` and only shrinks, so
                # ``~w`` needs no mask of its own.
                term &= w if c.value & bit else ~w
                if not term:
                    break
                m ^= bit
            out |= term
            if out == width_mask:
                break
        return out

    def minterms(self) -> List[int]:
        """All covered minterms (exponential; small covers only)."""
        return [m for m in range(1 << self.num_vars) if self.evaluate(m)]

    # -- structural clean-up -------------------------------------------

    def sccc(self) -> "Cover":
        """Single-cube containment: drop cubes contained in another cube."""
        cubes = sorted(set(self.cubes), key=lambda c: c.num_literals())
        keep: List[Cube] = []
        for c in cubes:
            if not any(k.contains(c) for k in keep):
                keep.append(c)
        return Cover(self.num_vars, keep)

    # -- cofactors ------------------------------------------------------

    def cofactor_literal(self, var: int, phase: int) -> "Cover":
        out = []
        for c in self.cubes:
            cc = c.cofactor_literal(var, phase)
            if cc is not None:
                out.append(cc)
        return Cover(self.num_vars, out)

    def cofactor_cube(self, cube: Cube) -> "Cover":
        out = []
        for c in self.cubes:
            cc = c.cofactor_cube(cube)
            if cc is not None:
                out.append(cc)
        return Cover(self.num_vars, out)

    # -- unate recursion ------------------------------------------------

    def _most_binate_var(self) -> Optional[int]:
        best_var, best_score = None, -1
        pos = [0] * self.num_vars
        neg = [0] * self.num_vars
        for c in self.cubes:
            for var, phase in c.literals():
                if phase:
                    pos[var] += 1
                else:
                    neg[var] += 1
        for v in range(self.num_vars):
            if pos[v] and neg[v]:
                score = min(pos[v], neg[v]) * 1000 + pos[v] + neg[v]
                if score > best_score:
                    best_var, best_score = v, score
        if best_var is None:
            # Unate cover: pick the most frequent variable if any remain.
            for v in range(self.num_vars):
                total = pos[v] + neg[v]
                if total > best_score and total > 0:
                    best_var, best_score = v, total
            return best_var if best_score > 0 else None
        return best_var

    def is_tautology(self) -> bool:
        """Unate-recursive tautology check."""
        if any(c.is_universe() for c in self.cubes):
            return True
        if not self.cubes:
            return False
        # Unate reduction: a variable appearing in a single phase can only
        # help when absent, so cubes depending on it are discarded for the
        # tautology question only if the remaining cover is checked both
        # ways; we rely on plain Shannon recursion which is always correct.
        var = self._most_binate_var()
        if var is None:
            # No literals left and no universe cube.
            return False
        return self.cofactor_literal(var, 1).is_tautology() and \
            self.cofactor_literal(var, 0).is_tautology()

    def contains_cube(self, cube: Cube) -> bool:
        return self.cofactor_cube(cube).is_tautology()

    def contains_cover(self, other: "Cover") -> bool:
        return all(self.contains_cube(c) for c in other.cubes)

    def is_equivalent(self, other: "Cover") -> bool:
        return self.contains_cover(other) and other.contains_cover(self)

    def complement(self) -> "Cover":
        """Recursive-Shannon complement."""
        if not self.cubes:
            return Cover.one(self.num_vars)
        if any(c.is_universe() for c in self.cubes):
            return Cover.zero(self.num_vars)
        if len(self.cubes) == 1:
            # De Morgan on a single cube.
            c = self.cubes[0]
            out = []
            for var, phase in c.literals():
                out.append(Cube.from_literals(self.num_vars,
                                              [(var, 1 - phase)]))
            return Cover(self.num_vars, out)
        var = self._most_binate_var()
        assert var is not None
        hi = self.cofactor_literal(var, 1).complement()
        lo = self.cofactor_literal(var, 0).complement()
        out = []
        for c in hi.cubes:
            out.append(Cube(self.num_vars, c.mask | (1 << var),
                            c.value | (1 << var)))
        for c in lo.cubes:
            out.append(Cube(self.num_vars, c.mask | (1 << var), c.value))
        return Cover(self.num_vars, out).sccc()

    # -- boolean combination --------------------------------------------

    def union(self, other: "Cover") -> "Cover":
        return Cover(self.num_vars, self.cubes + other.cubes).sccc()

    def intersect(self, other: "Cover") -> "Cover":
        out = []
        for a in self.cubes:
            for b in other.cubes:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        return Cover(self.num_vars, out).sccc()

    # -- probability ------------------------------------------------------

    def probability(self, probs: Sequence[float]) -> float:
        """Exact probability the cover evaluates to 1.

        ``probs[i]`` is the probability that variable *i* is 1, variables
        independent.  Evaluates the cover's Shannon plan
        (:meth:`_shannon_plan`).
        """
        return _evaluate_plan(self._shannon_plan(), probs)

    def _shannon_plan(self) -> _Plan:
        """The Shannon expansion of the cover on its most binate
        variables: ``0.0`` or ``1.0`` where a cofactor is constant, else
        ``(var, hi, lo)`` with the plans of the two cofactors.  It
        depends on the cover's content alone, so a caller that meets
        one cover on many nodes builds it once (:func:`_memo_plan`).
        """
        if not self.cubes:
            return 0.0
        if any(c.is_universe() for c in self.cubes):
            return 1.0
        var = self._most_binate_var()
        assert var is not None
        return (var, self.cofactor_literal(var, 1)._shannon_plan(),
                self.cofactor_literal(var, 0)._shannon_plan())

    # -- espresso-style minimization ---------------------------------------

    def _expand_cube(self, cube: Cube, offset: "Cover") -> Cube:
        """Remove literals from ``cube`` while avoiding the OFF-set."""
        current = cube
        # Greedy: try dropping literals, rarest-variable first so common
        # variables (likely needed) are kept.
        lits = sorted(current.literals(),
                      key=lambda lv: sum(1 for c in self.cubes
                                         if c.mask >> lv[0] & 1))
        for var, _phase in lits:
            candidate = current.without_var(var)
            if not any(candidate.intersect(off) for off in offset.cubes):
                current = candidate
        return current

    def _irredundant(self, dc: "Cover") -> "Cover":
        cubes = sorted(self.cubes, key=lambda c: -c.num_literals())
        keep = list(cubes)
        i = 0
        while i < len(keep):
            rest = Cover(self.num_vars, keep[:i] + keep[i + 1:] + dc.cubes)
            if rest.contains_cube(keep[i]):
                keep.pop(i)
            else:
                i += 1
        return Cover(self.num_vars, keep)

    def _reduce(self, dc: "Cover") -> "Cover":
        # REDUCE must be *sequential*: each cube is reduced against the
        # current working cover (earlier cubes already reduced), so two
        # cubes can never both shed a minterm only they share.
        work: List[Optional[Cube]] = list(self.cubes)
        for i in range(len(work)):
            c = work[i]
            rest_cubes = [x for j, x in enumerate(work)
                          if j != i and x is not None] + dc.cubes
            rest = Cover(self.num_vars, rest_cubes)
            # Part of c not covered by the rest, as a supercube.
            uncovered = rest.cofactor_cube(c).complement()
            if uncovered.is_empty():
                work[i] = None
                continue
            sup = uncovered.cubes[0]
            for u in uncovered.cubes[1:]:
                sup = sup.supercube(u)
            reduced = c.intersect(Cube(self.num_vars, sup.mask,
                                       sup.value))
            work[i] = reduced if reduced is not None else c
        return Cover(self.num_vars, [c for c in work if c is not None])

    def minimize(self, dc: Optional["Cover"] = None,
                 max_iters: int = 4) -> "Cover":
        """Two-level minimization of this ON-set against a DC-set.

        Returns a cover F with ON \\ DC ⊆ F ⊆ ON ∪ DC and
        (heuristically) minimal cube and literal count — don't-care
        minterms may be covered or dropped, whichever is cheaper.
        """
        dc = dc if dc is not None else Cover.zero(self.num_vars)
        on = self.sccc()
        if on.is_empty():
            return on
        care_union = Cover(self.num_vars, on.cubes + dc.cubes)
        if care_union.is_tautology():
            return Cover.one(self.num_vars)
        offset = care_union.complement()
        best = on
        best_cost = (len(best), best.num_literals())
        current = on
        for _ in range(max_iters):
            expanded = Cover(self.num_vars,
                             [current._expand_cube(c, offset)
                              for c in current.cubes]).sccc()
            irr = expanded._irredundant(dc)
            cost = (len(irr), irr.num_literals())
            if cost < best_cost:
                best, best_cost = irr, cost
            reduced = irr._reduce(dc)
            if not reduced.cubes:
                break
            if reduced.cubes == current.cubes:
                break
            current = reduced
        return best

    # -- misc ---------------------------------------------------------------

    def to_strings(self) -> List[str]:
        return [c.to_string() for c in self.cubes]

    def __repr__(self) -> str:
        return f"Cover({self.to_strings()})"


def minterm_count(cover: Cover) -> int:
    """Number of minterms covered (via complement-free inclusion count)."""
    total = 0
    seen: List[Cube] = []
    for c in cover.cubes:
        total += c.count_minterms()
        # Inclusion-exclusion against previously counted cubes (pairwise and
        # deeper, done recursively on the overlap list).
        overlaps = [c.intersect(s) for s in seen]
        overlaps = [o for o in overlaps if o is not None]
        if overlaps:
            total -= minterm_count(Cover(cover.num_vars, overlaps).sccc())
        seen.append(c)
    return total


def truth_table(cover: Cover) -> int:
    """Truth table of the cover as an integer (bit m = value on minterm m)."""
    tt = 0
    for m in range(1 << cover.num_vars):
        if cover.evaluate(m):
            tt |= 1 << m
    return tt


def _cover_key(cover: Cover) -> _Key:
    """The content of ``cover``, the key under which whatever depends
    only on it is computed once per call: ``num_vars`` and each cube's
    ``(mask, value)``, in order."""
    return cover.num_vars, tuple([(c.mask, c.value) for c in cover.cubes])


def _evaluate_plan(plan: _Plan, probs: Sequence[float]) -> float:
    """P(1) of a Shannon plan, ``p * hi + (1 - p) * lo`` at each split."""
    if isinstance(plan, float):
        return plan
    var, hi, lo = plan
    p = probs[var]
    return p * _evaluate_plan(hi, probs) + \
        (1.0 - p) * _evaluate_plan(lo, probs)


def _memo_plan(cover: Cover, plans: Dict[_Key, _Plan]) -> _Plan:
    """The Shannon plan of ``cover`` from ``plans``, keyed by the
    cover's content, and built there on first use."""
    key = _cover_key(cover)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = cover._shannon_plan()
    return plan
