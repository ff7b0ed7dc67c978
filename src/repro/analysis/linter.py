"""Rule registry and lint driver.

A :class:`Rule` couples an id, a default severity and a check function
``check(ctx) -> [Diagnostic]`` running against a :class:`RuleContext`
(the network plus shared lazily-computed facts: adjacency,
topological order).  Rules register themselves at import via the
:func:`rule` decorator; the standard catalog lives in
:mod:`repro.analysis.structural` and :mod:`repro.analysis.power_rules`
and is imported lazily so this module stays cycle-free.

The :class:`Linter` establishes three gate facts before anything else —
is every reference *driven* (complete), is the combinational graph
*acyclic*, is every cover well-formed — from the errors of the rules
that check them, and skips rules whose prerequisites fail (recorded in
``LintReport.skipped_rules``) instead of crashing on a broken input.

:func:`check_invariants` is the fast structural-error subset the pass
manager runs pre/post every flow stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.diagnostics import (ERROR, Diagnostic, LintReport,
                                        sort_diagnostics)
from repro.analysis.hazards import DEFAULT_MAX_VARS
from repro.logic.netlist import Network


@dataclass
class LintConfig:
    """Tunables shared by all rules."""

    #: how many hot nets the ranking rule reports
    hot_net_top: int = 5
    #: fanin-count cap for the exponential hazard containment check
    hazard_max_vars: int = DEFAULT_MAX_VARS
    #: PI signal probabilities for the zero-delay hot-net ranking
    input_probs: Optional[Dict[str, float]] = None


class RuleContext:
    """One network under analysis plus shared cached facts."""

    def __init__(self, net: Network, config: LintConfig):
        self.net = net
        self.config = config
        #: every fanin / latch / output reference resolves
        self.complete = True
        #: the combinational graph is a DAG
        self.acyclic = True
        #: every SOP cover matches its arity and is well-formed
        self.covers_ok = True
        self._adjacency: Optional[Dict[str, List[str]]] = None

    def adjacency(self) -> Dict[str, List[str]]:
        """node -> combinational fanins (sources have none; references
        to missing nodes are dropped)."""
        if self._adjacency is None:
            adj: Dict[str, List[str]] = {}
            for node in self.net.nodes.values():
                if node.is_source():
                    adj[node.name] = []
                else:
                    adj[node.name] = [fi for fi in node.fanins
                                      if fi in self.net.nodes]
            self._adjacency = adj
        return self._adjacency


RuleCheck = Callable[[RuleContext], List[Diagnostic]]

STRUCTURAL = "structural"
POWER = "power"


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    severity: str
    category: str
    description: str
    check: RuleCheck
    #: prerequisite: every reference must resolve
    needs_complete: bool = False
    #: prerequisite: the combinational graph must be a DAG
    needs_dag: bool = False
    #: prerequisite: covers must be well-formed (the rule evaluates
    #: or cofactors them)
    needs_covers: bool = False
    #: member of the fast :func:`check_invariants` subset
    invariant: bool = False


_REGISTRY: Dict[str, Rule] = {}
_LOADED = False


def rule(id: str, severity: str, category: str, description: str,
         needs_complete: bool = False, needs_dag: bool = False,
         needs_covers: bool = False,
         invariant: bool = False) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator registering ``check(ctx) -> [Diagnostic]`` as a rule."""

    def deco(check: RuleCheck) -> RuleCheck:
        if id in _REGISTRY:
            raise ValueError(f"duplicate rule id {id!r}")
        _REGISTRY[id] = Rule(id=id, severity=severity,
                             category=category,
                             description=description, check=check,
                             needs_complete=needs_complete,
                             needs_dag=needs_dag,
                             needs_covers=needs_covers,
                             invariant=invariant)
        return check

    return deco


def _ensure_rules() -> None:
    """Import the standard catalog (registers itself on import)."""
    global _LOADED
    if _LOADED:
        return
    import repro.analysis.power_rules  # noqa: F401
    import repro.analysis.structural  # noqa: F401
    _LOADED = True


def all_rules() -> List[Rule]:
    _ensure_rules()
    return sorted(_REGISTRY.values(), key=lambda r: r.id)


def select_rules(spec: Optional[str]) -> List[Rule]:
    """Resolve a comma-separated id list (``None``/empty: all rules)."""
    rules = all_rules()
    if not spec:
        return rules
    wanted = [s.strip() for s in spec.split(",") if s.strip()]
    by_id = {r.id: r for r in rules}
    out: List[Rule] = []
    for w in wanted:
        if w not in by_id:
            raise ValueError(
                f"unknown rule {w!r}; available: "
                f"{', '.join(sorted(by_id))}")
        if by_id[w] not in out:
            out.append(by_id[w])
    return out


#: The rules whose errors decide the gate facts ``complete``,
#: ``acyclic`` and ``covers_ok``.
_GATE_RULES = ("undriven-net", "combinational-cycle", "invalid-cover")


@dataclass
class Linter:
    """Drives a rule set over networks."""

    rules: Sequence[Rule] = field(default_factory=list)
    config: LintConfig = field(default_factory=LintConfig)

    def __post_init__(self) -> None:
        if not self.rules:
            self.rules = all_rules()

    def run(self, net: Network) -> LintReport:
        ctx = RuleContext(net, self.config)
        report = LintReport(network=net.name)
        # Gate facts are established first so downstream rules never
        # crash on a broken input.  Each gate rule runs once: a selected
        # one reports the findings it gave here.
        _ensure_rules()
        found = {rid: _REGISTRY[rid].check(ctx) for rid in _GATE_RULES}
        clean = {rid: all(d.severity != ERROR for d in found[rid])
                 for rid in _GATE_RULES}
        ctx.complete = clean["undriven-net"]
        ctx.acyclic = ctx.complete and clean["combinational-cycle"]
        ctx.covers_ok = clean["invalid-cover"]
        diags: List[Diagnostic] = []
        for r in self.rules:
            if r.needs_complete and not ctx.complete:
                report.skipped_rules.append(
                    (r.id, "network has undriven references"))
                continue
            if r.needs_dag and not ctx.acyclic:
                report.skipped_rules.append(
                    (r.id, "network is cyclic or incomplete"))
                continue
            if r.needs_covers and not ctx.covers_ok:
                report.skipped_rules.append(
                    (r.id, "network has malformed covers"))
                continue
            diags.extend(found[r.id] if r.id in found else r.check(ctx))
        report.diagnostics = sort_diagnostics(diags)
        return report


def lint_network(net: Network, rules: Optional[Sequence[Rule]] = None,
                 config: Optional[LintConfig] = None) -> LintReport:
    """Lint ``net`` with the given rules (default: the full catalog)."""
    return Linter(rules=list(rules) if rules else [],
                  config=config or LintConfig()).run(net)


def check_invariants(net: Network,
                     config: Optional[LintConfig] = None
                     ) -> List[Diagnostic]:
    """Fast structural legality check for the pass manager.

    Runs the invariant rule subset (cycles, undriven references,
    duplicate latches, invalid covers, malformed delays) and returns
    the *error*-severity findings — empty means structurally legal.
    """
    invariant_rules = [r for r in all_rules() if r.invariant]
    report = lint_network(net, invariant_rules,
                          config or LintConfig())
    return report.errors

