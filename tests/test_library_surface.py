"""Every public definition in ``src/repro`` has a user outside the tests.

A public, undecorated top-level function or class, or a public method
of a top-level class, must appear as a word somewhere in ``src/``
(outside its own definition, and outside the imports and ``__all__`` of
package ``__init__`` files), ``benchmarks/``, ``examples/`` or
``perfbench/``.  Code that only tests call belongs with the tests: a
function whose tests check only that function goes together with them,
and a reference the tests hold library code to lives in
``tests/oracles.py``.

Definitions under a decorator other than ``property``,
``classmethod``, ``staticmethod``, ``dataclass``, ``contextmanager`` or
``lru_cache`` are skipped, because their decorator registers them (lint
rules, pass adapters).  ``ALLOWED`` names the library API that only
tests use today, with the reason each one stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
USER_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Decorators that wrap a definition without registering it anywhere.
PLAIN_DECORATORS = {"property", "classmethod", "staticmethod", "dataclass",
                    "contextmanager", "lru_cache"}

ALLOWED = {
    "repro.arch.allocation.BindingResult.unit_sequences":
        "per-unit operation order of a binding; the tests check "
        "bind_operations through it",
    "repro.arch.allocation.RegisterBindingResult.register_sequences":
        "per-register value order; the tests check bind_registers "
        "through it",
    "repro.arch.dfg.iir_biquad_dfg":
        "the IIR biquad benchmark DFG beside fir_dfg and chained_sum_dfg",
    "repro.arch.power_models.activity_power":
        "the activity-sensitive architectural power model of Section IV",
    "repro.bdd.bdd.BDDFunction.equiv":
        "BDD API: canonical equality of two functions",
    "repro.bdd.bdd.BDDFunction.is_false":
        "BDD API: the unsatisfiable function, beside is_true",
    "repro.bdd.bdd.BDDFunction.restrict":
        "BDD API: cofactor by a partial assignment",
    "repro.logic.factor.FactorNode.literal_count":
        "literal count of a factored form, the MIS area measure",
    "repro.logic.gates.GateType.is_inverting":
        "gate polarity, beside the gate's arity and transistor count",
    "repro.logic.netlist.Network.insert_buffer":
        "netlist edit; the mutation tests drive the reader index with it",
    "repro.logic.sop.Cover.from_minterms":
        "cover constructor from an ON-set",
    "repro.logic.sop.minterm_count":
        "ON-set size of a cover",
    "repro.opt.datapath.residue.residue_moduli_for":
        "picks the coprime moduli a OneHotResidue needs for a range",
    "repro.opt.datapath.residue.OneHotResidue.decode":
        "inverse of OneHotResidue.encode",
    "repro.opt.datapath.residue.OneHotResidue.total_wires":
        "wire cost of the one-hot residue code, the price of its "
        "low switching",
    "repro.opt.logic.dontcare.controllability_dont_cares":
        "don't-care API: one node's controllability don't-cares",
    "repro.opt.logic.dontcare.observability_dont_cares":
        "don't-care API: one node's observability don't-cares",
    "repro.opt.logic.share.share_product_terms":
        "multi-output product-term sharing, a surveyed logic technique",
    "repro.opt.seq.fsm_benchmarks.all_benchmarks":
        "the bundled FSM suite in one call",
    "repro.power.activity.transition_density":
        "Najm's transition-density propagation (Section II)",
    "repro.sw.isa.assemble":
        "assembler for the instruction-level power model's ISA",
    "repro.sw.power_model.InstructionPowerModel.predict_program":
        "the model's energy for a program, before it runs",
}


def _is_registered(node):
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in PLAIN_DECORATORS:
            return True
    return False


def _public(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) \
        and not node.name.startswith("_") and not _is_registered(node)


def library_definitions():
    """``(dotted name, short name, path, first line, last line)`` for
    every definition the guard checks."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("")
                          .parts)
        for node in ast.parse(path.read_text()).body:
            if _public(node):
                found.append((f"{module}.{node.name}", node.name, path,
                              node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _public(item) and not isinstance(item, ast.ClassDef):
                        found.append((f"{module}.{node.name}.{item.name}",
                                      item.name, path, item.lineno,
                                      item.end_lineno))
    return found


def _user_lines():
    """Per file, its lines with package re-exports blanked."""
    files = {}
    for sub in USER_DIRS:
        for path in sorted((ROOT / sub).rglob("*.py")):
            text = path.read_text()
            lines = text.splitlines()
            if path.name == "__init__.py":
                for node in ast.parse(text).body:
                    if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                            isinstance(node, ast.Assign) and any(
                                getattr(t, "id", None) == "__all__"
                                for t in node.targets)):
                        for i in range(node.lineno - 1, node.end_lineno):
                            lines[i] = ""
            files[path] = lines
    return files


def names_used_only_by_tests():
    """Dotted names of definitions that appear nowhere but in their own
    definitions (of any class or module)."""
    defs = library_definitions()
    spans = {}
    for _dotted, name, path, lo, hi in defs:
        spans.setdefault(name, []).append((path, lo, hi))
    used = set()
    for path, lines in _user_lines().items():
        for number, line in enumerate(lines, 1):
            for word in set(re.findall(r"\w+", line)) & spans.keys():
                if not any(p == path and lo <= number <= hi
                           for p, lo, hi in spans[word]):
                    used.add(word)
    return sorted(d for d, name, *_ in defs if name not in used)


def test_no_new_test_only_code():
    unexpected = [n for n in names_used_only_by_tests()
                  if n not in ALLOWED]
    assert not unexpected, (
        "library code used only by tests (delete it with its tests, or "
        f"move a reference implementation to tests/oracles.py): "
        f"{unexpected}")


def test_allowlist_is_current():
    stale = sorted(set(ALLOWED) - set(names_used_only_by_tests()))
    assert not stale, f"ALLOWED entries the scan no longer reports: {stale}"
