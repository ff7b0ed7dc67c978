"""E9 — Bus-invert coding (claim C9, [39]).

Paper (§III-C.1): adding one invert line bounds the per-transfer
transitions to about n/2 and cuts the expected count on random data;
Gray coding wins on sequential addresses; limited-weight codes win on
skewed symbol distributions.
"""

import random

from repro.bench.profiling import PHASE_OPT, phase
from repro.core.report import format_table
from repro.opt.datapath.bus_coding import (bus_invert, gray_code_stream,
                                           limited_weight_code,
                                           partitioned_bus_invert)
from repro.sim.vectors import counter_bus_stream, random_bus_stream

from conftest import emit, harness_params, scaled

CLAIMS = ("C9",)


def coding_sweep(length=4000, seed=0):
    rows = []
    for width in (8, 16, 32):
        stream = random_bus_stream(width, length, seed=width + seed)
        bi = bus_invert(stream, width)
        rows.append([f"random w={width}", "bus-invert", bi.extra_lines,
                     bi.transitions_uncoded / (len(stream) - 1),
                     bi.per_transfer, bi.saving])
    s32 = random_bus_stream(32, length, seed=9 + seed)
    pb = partitioned_bus_invert(s32, 32, 4)
    rows.append(["random w=32", "bus-invert/4", pb.extra_lines,
                 pb.transitions_uncoded / (length - 1), pb.per_transfer,
                 pb.saving])
    addr = counter_bus_stream(16, length)
    gr = gray_code_stream(addr, 16)
    rows.append(["addresses w=16", "gray", 0,
                 gr.transitions_uncoded / (length - 1), gr.per_transfer,
                 gr.saving])
    rng = random.Random(4 + seed)
    skew = rng.choices([0xFF, 0x0F, 0xF0, 0x3C], [0.6, 0.2, 0.1, 0.1],
                       k=length)
    lw = limited_weight_code(skew, 8)
    rows.append(["skewed w=8", "limited-weight", lw.extra_lines,
                 lw.transitions_uncoded / (length - 1), lw.per_transfer,
                 lw.saving])
    return rows


def run(params=None):
    quick, seed = harness_params(params)
    length = scaled(4000, quick, floor=500)
    with phase(PHASE_OPT):
        rows = coding_sweep(length=length, seed=seed)
    metrics = {}
    for stream, scheme, _extra, _uncoded, per_xfer, saving in rows:
        key = (stream.replace(" ", "_").replace("=", "")
               + "." + scheme.replace("/", "_"))
        metrics[f"{key}.per_transfer"] = per_xfer
        metrics[f"{key}.saving"] = saving
    return {"metrics": metrics, "vectors": length}


def bench_bus_coding(benchmark):
    rows = benchmark(coding_sweep)
    emit("E9: bus coding (transitions per transfer)", format_table(
        ["stream", "scheme", "extra lines", "uncoded/xfer",
         "coded/xfer", "saving"], rows))
    by = {(r[0], r[1]): r for r in rows}
    # Narrower buses benefit more from a single invert line.
    assert by[("random w=8", "bus-invert")][5] > \
        by[("random w=32", "bus-invert")][5]
    # Expected ~18% at w=8 on i.i.d. data.
    assert 0.10 < by[("random w=8", "bus-invert")][5] < 0.25
    # Partitioning recovers the loss on wide buses.
    assert by[("random w=32", "bus-invert/4")][5] > \
        by[("random w=32", "bus-invert")][5]
    # Gray on addresses: one flip per transfer.
    assert by[("addresses w=16", "gray")][4] == 1.0
    assert by[("skewed w=8", "limited-weight")][5] > 0.3
