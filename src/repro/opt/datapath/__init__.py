"""Datapath encoding optimizations (Section III-C.1, buses and
arithmetic: [39], [11])."""

from repro.opt.datapath.bus_coding import (BusCodingResult, bus_invert,
                                           partitioned_bus_invert,
                                           gray_code_stream,
                                           limited_weight_code)
from repro.opt.datapath.residue import OneHotResidue, residue_moduli_for

__all__ = ["BusCodingResult", "bus_invert", "partitioned_bus_invert",
           "gray_code_stream", "limited_weight_code",
           "OneHotResidue", "residue_moduli_for"]
