"""E7 — Technology mapping for low power (claim C7).

Paper (§III-B, [43]/[48]/[26]): extending DAGON's tree covering to a
power cost function trades area for measurably less power than the
area-driven mapping of the same subject graph.
"""

from repro.bench.profiling import (PHASE_EST, PHASE_OPT, PHASE_VERIFY,
                                   phase)
from repro.core.report import format_table
from repro.library.cells import generic_library
from repro.logic.generators import (array_multiplier, comparator,
                                    equality_checker, random_logic,
                                    ripple_carry_adder)
from repro.opt.logic.mapping import tech_map
from repro.power.model import average_power
from repro.sim.functional import verify_equivalence

from conftest import emit, harness_params, scaled

CLAIMS = ("C7",)

CIRCUITS = [
    ("rca6", lambda: ripple_carry_adder(6)),
    ("cmp8", lambda: comparator(8)),
    ("eq8", lambda: equality_checker(8)),
]


def mapping_sweep(vectors=512, verify_vectors=128):
    lib = generic_library()
    rows = []
    for name, make in CIRCUITS:
        net = make()
        with phase(PHASE_OPT):
            res_a = tech_map(net, lib, "area", seed=1)
            res_p = tech_map(net, lib, "power", seed=1)
        with phase(PHASE_VERIFY):
            assert verify_equivalence(net, res_a.mapped,
                                      verify_vectors)
            assert verify_equivalence(net, res_p.mapped,
                                      verify_vectors)
        with phase(PHASE_EST):
            p_area = average_power(res_a.mapped, vectors,
                                   seed=5).total
            p_power = average_power(res_p.mapped, vectors,
                                    seed=5).total
        rows.append([name, res_a.total_area, res_p.total_area,
                     p_area * 1e6, p_power * 1e6,
                     1 - p_power / p_area])
    return rows


#: Circuits whose mapped costs are gated exactly: a change to cut
#: enumeration or matching that picks a different cover shows here.
EXACT_CIRCUITS = [
    ("mult8", lambda: array_multiplier(8)),
    ("rand140_0", lambda: random_logic(16, 140, 0)),
    ("rand140_2", lambda: random_logic(16, 140, 2)),
]


def exact_metrics():
    """Area, arrival and power cost under every objective (each prices
    its chosen cells with the same estimated activity; only the power
    objective also chooses by it), and the walk's work: the cuts kept
    and the (cut, cell) pairs priced."""
    lib = generic_library()
    metrics = {}
    for name, make in EXACT_CIRCUITS:
        net = make()
        for objective in ("area", "power", "delay"):
            with phase(PHASE_OPT):
                res = tech_map(net, lib, objective, seed=1)
            key = f"{name}.{objective}"
            metrics[f"{key}.total_area"] = res.total_area
            metrics[f"{key}.arrival"] = res.arrival
            metrics[f"{key}.power_cost"] = res.power_cost
            metrics[f"{key}.cuts"] = res.cuts
            metrics[f"{key}.matches"] = res.matches
    return metrics


def decomposition_rows(vectors=1024):
    """[48] ablation: balanced vs probability-ordered subject graphs
    under skewed input statistics (wide-gate decoder)."""
    from repro.logic.gates import GateType
    from repro.logic.netlist import Network
    from repro.sim.functional import verify_equivalence_exact

    lib = generic_library()
    # Wide-gate "address match" logic: the decomposition style decides
    # the chain order inside each wide AND.
    net = Network("widedec")
    names = [f"s{i}" for i in range(5)] + ["en"]
    net.add_inputs(names)
    for code in range(4):
        lits = [names[i] if (code >> i) & 1 else
                net.add_gate(f"n{code}_{i}", GateType.NOT, [names[i]])
                for i in range(5)]
        net.add_gate(f"o{code}", GateType.AND, lits + ["en"])
        net.set_output(f"o{code}")
    probs = {f"s{i}": 0.1 for i in range(5)}
    probs["en"] = 0.95
    from repro.logic.transform import decompose_to_primitives

    rows = []
    for style in ("balanced", "power"):
        with phase(PHASE_OPT):
            subject = decompose_to_primitives(net, input_probs=probs,
                                              decomposition=style)
        with phase(PHASE_EST):
            p_subject = average_power(subject, vectors, seed=6,
                                      input_probs=probs).total
        with phase(PHASE_OPT):
            res = tech_map(net, lib, "power", decomposition=style,
                           input_probs=probs, seed=2)
        with phase(PHASE_VERIFY):
            assert verify_equivalence_exact(net, res.mapped)
        with phase(PHASE_EST):
            p_mapped = average_power(res.mapped, vectors, seed=6,
                                     input_probs=probs).total
        rows.append([style, p_subject * 1e6, res.total_area,
                     p_mapped * 1e6])
    return rows


def run(params=None):
    quick, _seed = harness_params(params)
    vectors = scaled(512, quick, floor=128)
    rows = mapping_sweep(vectors=vectors,
                         verify_vectors=scaled(128, quick, floor=64))
    drows = decomposition_rows(vectors=scaled(1024, quick, floor=256))
    metrics = {}
    for name, area_a, area_p, p_area, p_power, saving in rows:
        metrics[f"{name}.area_area_obj"] = area_a
        metrics[f"{name}.area_power_obj"] = area_p
        metrics[f"{name}.power_saving"] = saving
    for style, p_subject, area, p_mapped in drows:
        metrics[f"decomp.{style}.subject_power_uW"] = p_subject
        metrics[f"decomp.{style}.mapped_power_uW"] = p_mapped
    metrics.update(exact_metrics())
    return {"metrics": metrics, "vectors": vectors}


def bench_tech_mapping(benchmark):
    rows = benchmark.pedantic(mapping_sweep, rounds=2, iterations=1)
    emit("E7: area- vs power-driven mapping", format_table(
        ["circuit", "area(A)", "area(P)", "power(A) uW", "power(P) uW",
         "power saving"], rows))
    for row in rows:
        # Power mapping wins clearly on power (it buys the low-cap lp
        # cells) and pays for it in area — the classic [43] trade.
        assert row[5] > 0.15, row
        assert row[2] > row[1], row

    drows = decomposition_rows()
    emit("E7b: decomposition style under skewed statistics ([48])",
         format_table(["subject graph", "unmapped power uW", "area",
                       "mapped power uW"], drows))
    balanced, power = drows
    # The probability-ordered chains win on the raw subject graph
    # (modestly here — output loads and inverters are order-invariant);
    # after the 4-cut matcher re-covers the structure the two styles
    # converge (the covering largely absorbs the decomposition).
    assert power[1] < 0.98 * balanced[1]
    assert power[3] <= balanced[3] * 1.05
