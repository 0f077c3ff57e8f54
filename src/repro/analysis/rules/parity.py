"""RPR002 — engine parity: the reference and fleet loops must speak the
same surface.

``runtime/simulator.py`` (the reference minute loop) and
``runtime/fleet.py`` (the columnar fleet-scale loop) are contractually
metric-identical — the golden tests pin bit-equality, but only for the
configurations they sample. A handler added to one loop and forgotten in
the other (a new obs record hook or metric instrument) slips straight
past a golden test that never exercises it.
This rule makes the asymmetry itself the error: it cross-references the
two engine files and flags every

- ``record_*`` observability-hook call, and
- metric instrument name (the string handed to ``counter``/``gauge``/
  ``histogram``)

that appears in one engine file but not the other. ``RunResult`` is not
compared: both engines build it in the one shared
:meth:`repro.runtime.driver.Stepper.finalize`. A deliberate asymmetry (e.g. a hook fired from a helper that both
engines share) is waived at the referencing line with a reasoned
``# repro: lint-ok[RPR002] ...`` comment — except for the
fleet-reducer emit site listed in :data:`FLEET_REDUCER_CARVEOUTS`,
which is structural to the columnar engine and therefore carved out in
the rule itself rather than re-waived at every call site.

Engine files are recognised by basename (``simulator.py`` /
``fleet.py``) and compared per directory, so a fixture copy of the pair
in a test sandbox is checked exactly like the real one. Both categories
are compared on both engines: the fleet engine carries a real
observability session (:class:`~repro.obs.fleet.FleetObsSession`).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.analysis.engine import (
    Finding,
    Rule,
    Severity,
    SourceModule,
    register_rule,
)

__all__ = ["EngineParityRule"]

REFERENCE_BASENAME = "simulator.py"
FLEET_BASENAME = "fleet.py"

#: Comparison order: a pair present in one directory is cross-checked
#: (reference first, so its findings sort first).
_ENGINE_BASENAMES = (REFERENCE_BASENAME, FLEET_BASENAME)

_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: Documented carve-out: the obs hook the columnar reducer emits from
#: its own inlined Alg. 1 (``record_peak``: the loop engine records pool
#: peaks from the shared ``GlobalOptimizer.review`` helper, which the
#: reducer inlines for vectorization). The name is exempt from the
#: one-sided check when the *fleet* engine is the side that references
#: it; any other asymmetry (including this name appearing only in
#: simulator.py) still fails. Pinned by ``tests/test_analysis_rules.py``.
FLEET_REDUCER_CARVEOUTS = frozenset({"record_peak"})


def _engine_scope(path: Path) -> bool:
    return path.name in _ENGINE_BASENAMES


class _EngineSurface(ast.NodeVisitor):
    """Collect the parity-checked references of one engine file, each
    with the position of its first occurrence."""

    def __init__(self) -> None:
        self.obs_hooks: dict[str, ast.AST] = {}
        self.metric_names: dict[str, ast.AST] = {}

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr.startswith("record_"):
                self.obs_hooks.setdefault(func.attr, node)
            if (
                func.attr in _METRIC_FACTORIES
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self.metric_names.setdefault(node.args[0].value, node)
        self.generic_visit(node)


def _surface(module: SourceModule) -> _EngineSurface:
    visitor = _EngineSurface()
    visitor.visit(module.tree)
    return visitor


@register_rule
class EngineParityRule(Rule):
    """Cross-check simulator.py vs fleet.py for one-sided references."""

    id = "RPR002"
    severity = Severity.ERROR
    summary = (
        "every obs hook / metric name in one engine must appear (or be "
        "waived) in the other"
    )
    project_scope = staticmethod(_engine_scope)

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        groups: dict[str, dict[str, SourceModule]] = {}
        for module in modules:
            name = module.path.name
            if name in _ENGINE_BASENAMES:
                key = str(module.path.resolve().parent)
                groups.setdefault(key, {})[name] = module
        out: list[Finding] = []
        for group in groups.values():
            if len(group) == len(_ENGINE_BASENAMES):
                out.extend(
                    self._compare(group[REFERENCE_BASENAME], group[FLEET_BASENAME])
                )
        return out

    def _compare(
        self, reference: SourceModule, other: SourceModule
    ) -> Iterator[Finding]:
        surf_ref = _surface(reference)
        surf_other = _surface(other)
        categories: list[tuple[str, dict[str, ast.AST], dict[str, ast.AST]]] = [
            ("obs hook", surf_ref.obs_hooks, surf_other.obs_hooks),
            ("metric", surf_ref.metric_names, surf_other.metric_names),
        ]
        for label, in_ref, in_other in categories:
            yield from self._one_sided(label, reference, in_ref, other, in_other)
            yield from self._one_sided(label, other, in_other, reference, in_ref)

    def _one_sided(
        self,
        label: str,
        present: SourceModule,
        present_refs: dict[str, ast.AST],
        missing: SourceModule,
        missing_refs: dict[str, ast.AST],
    ) -> Iterator[Finding]:
        for name in sorted(set(present_refs) - set(missing_refs)):
            if (
                label == "obs hook"
                and present.path.name == FLEET_BASENAME
                and name in FLEET_REDUCER_CARVEOUTS
            ):
                continue
            yield self.finding(
                present,
                present_refs[name],
                f"engine parity: {label} {name!r} is referenced in "
                f"{present.path.name} but not in {missing.path.name} — "
                "handle it in both engine loops, or waive here with a "
                "reason if a shared helper covers both",
            )
