"""Algebraic division, kernel extraction and factoring (MIS-style).

These are the technology-independent restructuring primitives behind
Section III-A.3 of the paper: kernels found here are candidates for new
intermediate nodes, selected either for literal savings (area) or for
switched-capacitance savings (power, see ``repro.opt.logic.kernels``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.logic.cube import Cube
from repro.logic.sop import Cover

Literal = Tuple[int, int]  # (variable index, phase)


def cube_literals(cube: Cube) -> FrozenSet[Literal]:
    return frozenset(cube.literals())


def _cube_from_literals(num_vars: int, lits: FrozenSet[Literal]) -> Cube:
    return Cube.from_literals(num_vars, lits)


def common_cube(cover: Cover) -> FrozenSet[Literal]:
    """Largest cube dividing every cube of the cover."""
    if not cover.cubes:
        return frozenset()
    common = cube_literals(cover.cubes[0])
    for c in cover.cubes[1:]:
        common &= cube_literals(c)
    return common


def make_cube_free(cover: Cover) -> Cover:
    """Divide out the largest common cube."""
    common = common_cube(cover)
    if not common:
        return cover
    out = []
    for c in cover.cubes:
        out.append(_cube_from_literals(cover.num_vars,
                                       cube_literals(c) - common))
    return Cover(cover.num_vars, out)


def is_cube_free(cover: Cover) -> bool:
    return len(cover.cubes) > 1 and not common_cube(cover)


def divide_by_cube(cover: Cover, lits: FrozenSet[Literal]) -> Cover:
    """Quotient of algebraic division by a single cube."""
    out = []
    for c in cover.cubes:
        cl = cube_literals(c)
        if lits <= cl:
            out.append(_cube_from_literals(cover.num_vars, cl - lits))
    return Cover(cover.num_vars, out)


def algebraic_divide(cover: Cover, divisor: Cover
                     ) -> Tuple[Cover, Cover]:
    """Algebraic division ``cover = divisor * quotient + remainder``.

    Returns ``(quotient, remainder)``; quotient is empty when the divisor
    does not divide the cover.
    """
    if divisor.is_empty():
        raise ValueError("division by empty cover")
    quotient: Optional[Set[FrozenSet[Literal]]] = None
    for d in divisor.cubes:
        dl = cube_literals(d)
        q_d = {cube_literals(c) - dl
               for c in cover.cubes if dl <= cube_literals(c)}
        quotient = q_d if quotient is None else quotient & q_d
        if not quotient:
            break
    if not quotient:
        return Cover.zero(cover.num_vars), cover.copy()
    q_cover = Cover(cover.num_vars,
                    [_cube_from_literals(cover.num_vars, q)
                     for q in sorted(quotient, key=sorted)])
    # remainder = cover minus (divisor * quotient)
    product: Set[FrozenSet[Literal]] = set()
    for d in divisor.cubes:
        for q in quotient:
            product.add(cube_literals(d) | q)
    rem = [c for c in cover.cubes if cube_literals(c) not in product]
    return q_cover, Cover(cover.num_vars, rem)


def kernels(cover: Cover) -> List[Tuple[Cover, FrozenSet[Literal]]]:
    """All kernels of the cover with one co-kernel each.

    A kernel is a cube-free quotient of the cover by a cube.  Returns a
    list of ``(kernel_cover, co_kernel_literals)`` pairs (deduplicated on
    the kernel).  The cover itself is included (with empty co-kernel) when
    it is cube-free.
    """
    results: Dict[FrozenSet[FrozenSet[Literal]], Tuple[Cover, FrozenSet[Literal]]] = {}

    def key_of(c: Cover) -> FrozenSet[FrozenSet[Literal]]:
        return frozenset(cube_literals(x) for x in c.cubes)

    def visit(current: Cover, cokernel: FrozenSet[Literal],
              min_index: int) -> None:
        lit_count: Dict[Literal, int] = {}
        for c in current.cubes:
            for lit in cube_literals(c):
                lit_count[lit] = lit_count.get(lit, 0) + 1
        candidates = sorted(
            (lit for lit, cnt in lit_count.items() if cnt >= 2),
            key=lambda lv: (lv[0], lv[1]))
        for idx, lit in enumerate(candidates):
            order = lit[0] * 2 + lit[1]
            if order < min_index:
                continue
            sub = divide_by_cube(current, frozenset([lit]))
            common = common_cube(sub)
            sub_free = make_cube_free(sub)
            new_cokernel = cokernel | {lit} | common
            if len(sub_free.cubes) >= 2:
                results.setdefault(key_of(sub_free),
                                   (sub_free, new_cokernel))
                visit(sub_free, new_cokernel, order + 1)

    base = make_cube_free(cover)
    if is_cube_free(base):
        results.setdefault(
            frozenset(cube_literals(x) for x in base.cubes),
            (base, frozenset()))
    visit(cover, frozenset(), 0)
    return list(results.values())


def kernel_value(cover: Cover, kernel: Cover) -> int:
    """Literal savings from extracting ``kernel`` as a new node in
    ``cover`` (single-cover estimate): each co-kernel occurrence replaces
    lits(kernel) literals with one."""
    quotient, _rem = algebraic_divide(cover, kernel)
    return _kernel_saving(kernel, quotient)


def _kernel_saving(kernel: Cover, quotient: Cover) -> int:
    """:func:`kernel_value` from the quotient of the cover by ``kernel``."""
    occurrences = len(quotient.cubes)
    if occurrences < 1:
        return 0
    k_lits = kernel.num_literals()
    q_lits = quotient.num_literals()
    k_cubes = len(kernel.cubes)
    # cover = Q*K + R.  Before: every (q, k) cube pair spells out both
    # sides, |Q|·lits(K) + |K|·lits(Q) literals.  After: Q's cubes each
    # gain the new variable, and K is written once.
    before = occurrences * k_lits + k_cubes * q_lits
    after = q_lits + occurrences + k_lits
    return before - after


def best_kernel(cover: Cover) -> Optional[Tuple[Cover, int]]:
    """Kernel with the largest literal savings, or None."""
    best: Optional[Tuple[Cover, int]] = None
    for kern, _cok in kernels(cover):
        val = kernel_value(cover, kern)
        if val > 0 and (best is None or val > best[1]):
            best = (kern, val)
    return best


class FactorNode:
    """A factored-form expression tree (for literal counting / printing)."""

    def __init__(self, op: str, children: Sequence["FactorNode"] = (),
                 literal: Optional[Literal] = None):
        self.op = op  # "lit", "and", "or"
        self.children = list(children)
        self.literal = literal

    def literal_count(self) -> int:
        if self.op == "lit":
            return 1
        return sum(c.literal_count() for c in self.children)

    def to_string(self, names: Optional[Sequence[str]] = None) -> str:
        if self.op == "lit":
            var, phase = self.literal
            base = names[var] if names else f"x{var}"
            return base if phase else base + "'"
        sep = " " if self.op == "and" else " + "
        parts = []
        for c in self.children:
            s = c.to_string(names)
            if self.op == "and" and c.op == "or":
                s = f"({s})"
            parts.append(s)
        return sep.join(parts)

    def __repr__(self) -> str:
        return f"Factor({self.to_string()})"


def _cube_factor(num_vars: int, lits: FrozenSet[Literal]) -> FactorNode:
    children = [FactorNode("lit", literal=l) for l in sorted(lits)]
    if len(children) == 1:
        return children[0]
    return FactorNode("and", children)


def factor(cover: Cover) -> FactorNode:
    """Recursive algebraic factoring (quick-factor flavour)."""
    if cover.is_empty():
        return FactorNode("or", [])
    if len(cover.cubes) == 1:
        lits = cube_literals(cover.cubes[0])
        if not lits:
            return FactorNode("and", [])
        return _cube_factor(cover.num_vars, lits)
    common = common_cube(cover)
    if common:
        rest = factor(make_cube_free(cover))
        return FactorNode("and",
                          [_cube_factor(cover.num_vars, common), rest])
    choice = best_kernel(cover)
    if choice is None:
        # No worthwhile kernel: sum of factored cubes.
        return FactorNode("or", [
            _cube_factor(cover.num_vars, cube_literals(c))
            for c in cover.cubes])
    kern, _val = choice
    quotient, remainder = algebraic_divide(cover, kern)
    parts = [FactorNode("and", [factor(quotient), factor(kern)])]
    if not remainder.is_empty():
        parts.append(factor(remainder))
    if len(parts) == 1:
        return parts[0]
    return FactorNode("or", parts)
