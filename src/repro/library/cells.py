"""A generic standard-cell library.

Cells are characterized the way the architecture-level models of Section
IV-A assume: an input-pin capacitance, an intrinsic output (self)
capacitance, an area, and a linear delay model ``d = intrinsic +
drive · C_load``.  Values are derived from transistor counts of the
static CMOS realisation, in the same capacitance units as
:mod:`repro.power.model`, so mapped and unmapped netlists are comparable.

Each logical cell is offered in two drive strengths (``x1``/``x2``) —
the larger one halves the load-dependent delay but doubles input
capacitance — plus a low-power ``lp`` variant with reduced switched
capacitance at an area/delay premium.  These variants are exactly the
choice space exploited by low-power technology mapping ([43], [48]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


from repro.logic.sop import Cover


@dataclass(frozen=True)
class Cell:
    """One library cell."""

    name: str
    cover: Cover              # ON-set over the cell's ordered pins
    num_inputs: int
    area: float               # transistor count
    input_cap: float          # per-pin gate capacitance (cap units)
    output_cap: float         # intrinsic drain/wire capacitance
    intrinsic_delay: float
    drive: float              # delay per unit of load capacitance

    def delay(self, load: float) -> float:
        return self.intrinsic_delay + self.drive * load

    def __repr__(self) -> str:
        return f"Cell({self.name})"


class Library:
    """A set of cells indexed by name, with pattern-matching helpers."""

    def __init__(self, cells: List[Cell]):
        self.cells: Dict[str, Cell] = {c.name: c for c in cells}

    def __iter__(self):
        return iter(self.cells.values())

    def __getitem__(self, name: str) -> Cell:
        return self.cells[name]

    def __len__(self) -> int:
        return len(self.cells)

    def inverters(self) -> List[Cell]:
        return [c for c in self if c.num_inputs == 1 and
                c.cover.to_strings() == ["0"]]


def _cell_variants(name: str, rows: List[str], transistors: int,
                   intrinsic: float, drive: float) -> List[Cell]:
    """Build x1/x2/lp variants of a cell from PLA rows of its ON-set.

    ``x1``/``x2`` trade delay against input capacitance and area as
    usual.  ``lp`` models a low-power logic style ([48]: technology
    decomposition with alternative circuit styles): noticeably lower
    switched capacitance per transition at the cost of more layout area
    and a slower, weaker output — attractive only when the mapping cost
    function actually weighs activity.
    """
    cover = Cover.from_strings(rows) if rows and rows[0] else Cover.one(0)
    n = len(rows[0]) if rows else 0
    base_in = 2.0          # one P+N pair per pin, x1
    base_out = 0.5 * transistors
    out = []
    for mult, suffix in ((1.0, "_x1"), (2.0, "_x2")):
        out.append(Cell(
            name=name + suffix,
            cover=cover,
            num_inputs=n,
            area=transistors * mult,
            input_cap=base_in * mult,
            output_cap=base_out * mult,
            intrinsic_delay=intrinsic,
            drive=drive / mult,
        ))
    out.append(Cell(
        name=name + "_lp",
        cover=cover,
        num_inputs=n,
        area=transistors * 1.4,
        input_cap=base_in * 0.7,
        output_cap=base_out * 0.55,
        intrinsic_delay=intrinsic * 1.5,
        drive=drive * 1.7,
    ))
    return out


def generic_library() -> Library:
    """The default technology library used by the experiments."""
    cells: List[Cell] = []
    # name, ON-set rows (pin 0 first), transistors, intrinsic, drive
    defs: List[Tuple[str, List[str], int, float, float]] = [
        ("inv", ["0"], 2, 0.4, 0.10),
        ("buf", ["1"], 4, 0.7, 0.07),
        ("nand2", ["0-", "-0"], 4, 0.5, 0.12),
        ("nand3", ["0--", "-0-", "--0"], 6, 0.7, 0.15),
        ("nand4", ["0---", "-0--", "--0-", "---0"], 8, 0.9, 0.18),
        ("nor2", ["00"], 4, 0.6, 0.14),
        ("nor3", ["000"], 6, 0.9, 0.18),
        ("and2", ["11"], 6, 0.8, 0.10),
        ("or2", ["1-", "-1"], 6, 0.9, 0.11),
        ("xor2", ["10", "01"], 10, 1.1, 0.16),
        ("xnor2", ["11", "00"], 10, 1.1, 0.16),
        # AOI21: out = !(p0·p1 + p2) -> ON-set rows
        ("aoi21", ["0-0", "-00"], 6, 0.7, 0.15),
        # AOI22: out = !(p0·p1 + p2·p3)
        ("aoi22", ["0-0-", "0--0", "-00-", "-0-0"], 8, 0.8, 0.17),
        # OAI21: out = !((p0+p1)·p2)
        ("oai21", ["00-", "--0"], 6, 0.7, 0.15),
        # MUX2: out = s·d1 + s'·d0 with pins (s, d0, d1)
        ("mux2", ["01-", "1-1"], 10, 1.0, 0.14),
    ]
    for name, rows, transistors, intrinsic, drive in defs:
        cells.extend(_cell_variants(name, rows, transistors,
                                    intrinsic, drive))
    return Library(cells)
