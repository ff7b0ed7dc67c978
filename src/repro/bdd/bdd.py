"""A compact hash-consed ROBDD package.

Provides the operations the flows use (dedicated AND/OR/XOR/NOT apply,
quantification, restriction) plus *weighted satisfy counting*, which
gives exact signal probabilities for switching-activity analysis —
the role BDDs play in refs [3], [16], [30] of the surveyed paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


class BDD:
    """BDD manager with a fixed variable order.

    Node 0 is constant FALSE, node 1 constant TRUE.  Internal nodes are
    triples ``(level, lo, hi)`` hash-consed in a unique table.

    ``&``, ``|`` and ``^`` each have their own recursive apply and memo
    table, keyed on the operand pair in ascending order so that ``f & g``
    and ``g & f`` share one entry.  ``~`` memoises both directions of
    every complement it builds.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self, variables: Sequence[str] = ()):
        self.var_names: List[str] = []
        self.var_level: Dict[str, int] = {}
        self._level: List[int] = [1 << 30, 1 << 30]  # terminals: max level
        self._lo: List[int] = [0, 1]
        self._hi: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        for v in variables:
            self.add_variable(v)

    # -- variables ------------------------------------------------------

    def add_variable(self, name: str) -> int:
        """Append a variable at the bottom of the current order."""
        if name in self.var_level:
            raise ValueError(f"variable {name!r} already exists")
        level = len(self.var_names)
        self.var_names.append(name)
        self.var_level[name] = level
        return level

    def level_of(self, name: str) -> int:
        """Level of an existing variable; ``ValueError`` names an
        unknown one."""
        level = self.var_level.get(name)
        if level is None:
            raise ValueError(f"unknown BDD variable {name!r}")
        return level

    def var(self, name: str) -> "BDDFunction":
        if name not in self.var_level:
            self.add_variable(name)
        level = self.var_level[name]
        node = self._mk(level, BDD.FALSE, BDD.TRUE)
        return BDDFunction(self, node)

    @property
    def true(self) -> "BDDFunction":
        return BDDFunction(self, BDD.TRUE)

    @property
    def false(self) -> "BDDFunction":
        return BDDFunction(self, BDD.FALSE)

    def num_nodes(self) -> int:
        return len(self._lo)

    # -- core construction ----------------------------------------------

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._lo)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def _and(self, f: int, g: int) -> int:
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f <= 1:
            return g if f else f
        key = (f, g)
        hit = self._and_cache.get(key)
        if hit is not None:
            return hit
        level, lo, hi = self._level, self._lo, self._hi
        lf, lg = level[f], level[g]
        if lf == lg:
            result = self._mk(lf, self._and(lo[f], lo[g]),
                              self._and(hi[f], hi[g]))
        elif lf < lg:
            result = self._mk(lf, self._and(lo[f], g), self._and(hi[f], g))
        else:
            result = self._mk(lg, self._and(f, lo[g]), self._and(f, hi[g]))
        self._and_cache[key] = result
        return result

    def _or(self, f: int, g: int) -> int:
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f <= 1:
            return BDD.TRUE if f else g
        key = (f, g)
        hit = self._or_cache.get(key)
        if hit is not None:
            return hit
        level, lo, hi = self._level, self._lo, self._hi
        lf, lg = level[f], level[g]
        if lf == lg:
            result = self._mk(lf, self._or(lo[f], lo[g]),
                              self._or(hi[f], hi[g]))
        elif lf < lg:
            result = self._mk(lf, self._or(lo[f], g), self._or(hi[f], g))
        else:
            result = self._mk(lg, self._or(f, lo[g]), self._or(f, hi[g]))
        self._or_cache[key] = result
        return result

    def _xor(self, f: int, g: int) -> int:
        if f == g:
            return BDD.FALSE
        if f > g:
            f, g = g, f
        if f <= 1:
            return self._not(g) if f else g
        key = (f, g)
        hit = self._xor_cache.get(key)
        if hit is not None:
            return hit
        level, lo, hi = self._level, self._lo, self._hi
        lf, lg = level[f], level[g]
        if lf == lg:
            result = self._mk(lf, self._xor(lo[f], lo[g]),
                              self._xor(hi[f], hi[g]))
        elif lf < lg:
            result = self._mk(lf, self._xor(lo[f], g), self._xor(hi[f], g))
        else:
            result = self._mk(lg, self._xor(f, lo[g]), self._xor(f, hi[g]))
        self._xor_cache[key] = result
        return result

    def _not(self, f: int) -> int:
        if f <= 1:
            return f ^ 1
        hit = self._not_cache.get(f)
        if hit is not None:
            return hit
        result = self._mk(self._level[f], self._not(self._lo[f]),
                          self._not(self._hi[f]))
        # ~~f is f: one entry serves both directions.
        self._not_cache[f] = result
        self._not_cache[result] = f
        return result

    # -- quantification / restriction --------------------------------------

    def _restrict(self, f: int, level: int, phase: int,
                  cache: Dict[int, int]) -> int:
        if self._level[f] > level:
            return f
        hit = cache.get(f)
        if hit is not None:
            return hit
        if self._level[f] == level:
            result = self._hi[f] if phase else self._lo[f]
        else:
            lo = self._restrict(self._lo[f], level, phase, cache)
            hi = self._restrict(self._hi[f], level, phase, cache)
            result = self._mk(self._level[f], lo, hi)
        cache[f] = result
        return result

    def _exists_set(self, f: int, levels: frozenset, last: int,
                    cache: Dict[int, int]) -> int:
        """Quantify every variable whose level is in ``levels`` (the
        deepest being ``last``) out of ``f`` in one memoised pass."""
        level = self._level[f]
        if level > last:
            return f
        hit = cache.get(f)
        if hit is not None:
            return hit
        lo = self._exists_set(self._lo[f], levels, last, cache)
        if level in levels:
            result = lo if lo == BDD.TRUE else self._or(
                lo, self._exists_set(self._hi[f], levels, last, cache))
        else:
            result = self._mk(level, lo, self._exists_set(
                self._hi[f], levels, last, cache))
        cache[f] = result
        return result

    # -- analysis -----------------------------------------------------------

    def _prob(self, f: int, level_probs: List[float],
              cache: Dict[int, float]) -> float:
        if f == BDD.TRUE:
            return 1.0
        if f == BDD.FALSE:
            return 0.0
        hit = cache.get(f)
        if hit is not None:
            return hit
        p = level_probs[self._level[f]]
        val = p * self._prob(self._hi[f], level_probs, cache) + \
            (1.0 - p) * self._prob(self._lo[f], level_probs, cache)
        cache[f] = val
        return val

class BDDFunction:
    """A Boolean function: a node handle within a :class:`BDD` manager."""

    __slots__ = ("bdd", "node")

    def __init__(self, bdd: BDD, node: int):
        self.bdd = bdd
        self.node = node

    # -- logical operators --------------------------------------------------

    def _coerce(self, other: object) -> "BDDFunction":
        if isinstance(other, BDDFunction):
            if other.bdd is not self.bdd:
                raise ValueError("mixing BDD managers")
            return other
        if other is True or other == 1:
            return self.bdd.true
        if other is False or other == 0:
            return self.bdd.false
        raise TypeError(f"cannot combine BDD with {other!r}")

    def __and__(self, other) -> "BDDFunction":
        o = self._coerce(other)
        return BDDFunction(self.bdd, self.bdd._and(self.node, o.node))

    def __or__(self, other) -> "BDDFunction":
        o = self._coerce(other)
        return BDDFunction(self.bdd, self.bdd._or(self.node, o.node))

    def __xor__(self, other) -> "BDDFunction":
        o = self._coerce(other)
        return BDDFunction(self.bdd, self.bdd._xor(self.node, o.node))

    def __invert__(self) -> "BDDFunction":
        return BDDFunction(self.bdd, self.bdd._not(self.node))

    __rand__ = __and__
    __ror__ = __or__
    __rxor__ = __xor__

    def equiv(self, other: "BDDFunction") -> bool:
        return self.node == self._coerce(other).node

    # -- predicates -----------------------------------------------------------

    @property
    def is_true(self) -> bool:
        return self.node == BDD.TRUE

    @property
    def is_false(self) -> bool:
        return self.node == BDD.FALSE

    def __bool__(self) -> bool:
        """True when satisfiable, as an int word is when non-zero."""
        return self.node != BDD.FALSE

    # -- quantification / restriction -----------------------------------------

    def restrict(self, assignment: Dict[str, int]) -> "BDDFunction":
        """Cofactor with respect to a partial variable assignment."""
        node = self.node
        for name, phase in assignment.items():
            level = self.bdd.level_of(name)
            node = self.bdd._restrict(node, level, 1 if phase else 0, {})
        return BDDFunction(self.bdd, node)

    def exists(self, variables: Iterable[str]) -> "BDDFunction":
        """Existential quantification over ``variables``, all in one
        memoised pass."""
        levels = frozenset(self.bdd.level_of(name) for name in variables)
        if not levels:
            return self
        return BDDFunction(self.bdd, self.bdd._exists_set(
            self.node, levels, max(levels), {}))

    def forall(self, variables: Iterable[str]) -> "BDDFunction":
        """Universal quantification over ``variables``: not-exists-not."""
        return ~(~self).exists(variables)

    # -- analysis ---------------------------------------------------------------

    def evaluate(self, assignment: Dict[str, int]) -> bool:
        node = self.node
        bdd = self.bdd
        while node > 1:
            name = bdd.var_names[bdd._level[node]]
            node = bdd._hi[node] if assignment.get(name, 0) else \
                bdd._lo[node]
        return node == BDD.TRUE

    def probability(self, probs: Dict[str, float],
                    default: float = 0.5) -> float:
        """Exact P(f = 1) with independent inputs."""
        level_probs = [default] * len(self.bdd.var_names)
        for name, p in probs.items():
            if name in self.bdd.var_level:
                level_probs[self.bdd.var_level[name]] = p
        return self.bdd._prob(self.node, level_probs, {})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BDDFunction) and \
            other.bdd is self.bdd and other.node == self.node

    def __hash__(self) -> int:
        return hash((id(self.bdd), self.node))

    def __repr__(self) -> str:
        return f"BDDFunction(node={self.node})"
