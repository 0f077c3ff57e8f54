"""RPR009 — columnar kernel hygiene in the fleet-scale engine.

``runtime/columnar.py`` / ``runtime/fleet.py`` (and the observability
mirror ``obs/fleet.py``) carry the repo's two fleet-scale contracts:
**throughput** ("Python orchestrates, the kernel computes" — no
per-function Python loops on the serve/observe/step hot paths) and
**bit-identity** (golden equivalence vs the reference engine and
obs-on ≡ obs-off — every accumulation order is pinned). Both contracts
break silently: a stray ``for fid in range(n_fn)`` is a 100x slowdown
nobody sees on the 12-function tests, and an ``argsort`` that loses
``kind="stable"`` flips tie-breaks only on ties. This rule lints them,
using the analysis core's dtype inference (``self.levels =
np.full(..., dtype=np.int8)`` makes ``levels`` an int8 array wherever
it flows):

- **hot-path loops** — a ``for`` over ``.tolist()`` /
  ``np.flatnonzero`` / ``range(n_fn | n_functions | n_events)`` inside
  a function named ``serve`` / ``observe_and_plan`` / ``step``. The
  compat-mode fallbacks (per-event serving, pool reconcile) are real
  and deliberate — they carry reasoned waivers naming the mode that
  bounds them;
- **narrow-dtype arithmetic** — ``+``/``-``/``*`` on an int8/int16
  array before a widening ``.astype``: plan levels live in int8 and
  overflow wraps silently;
- **order-sensitive calls** — ``argsort`` without
  ``kind="stable"``/``"mergesort"``; ``argpartition`` outside the
  documented carve-out (a function that re-establishes total order with
  a stable argsort, as ``_candidate_table`` does); and an unordered
  float reduction (``.sum()`` / ``np.sum`` on a float array, no
  ``axis=``) in a hot-path function, where the canon is the documented
  sequential fold.

Scope: any file named ``columnar.py`` or ``fleet.py`` (fixture copies
included).
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
from repro.analysis.project import (
    FunctionInfo,
    ProjectContext,
    ReachingDefs,
    dotted_name,
    import_aliases,
    resolve_alias,
)

__all__ = ["ColumnarHygieneRule"]

_SCOPE_BASENAMES = frozenset({"columnar.py", "fleet.py"})
_HOT_FUNCTIONS = frozenset({"serve", "observe_and_plan", "step"})
_NARROW_DTYPES = frozenset({"int8", "int16"})
_STABLE_KINDS = frozenset({"stable", "mergesort"})
_FID_COUNT_NAMES = frozenset({"n_fn", "n_functions", "n_events", "n_fids"})


def _columnar_scope(path: Path) -> bool:
    return path.name in _SCOPE_BASENAMES


def _unwrap_iter(node: ast.expr) -> ast.expr:
    """Strip ``enumerate(...)`` / ``zip(...)`` down to the first
    iterable, and ``X[...]`` slicing down to ``X`` for loop checks."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("enumerate", "zip", "reversed")
        and node.args
    ):
        node = node.args[0]
    return node


def _range_over_fleet(call: ast.Call) -> bool:
    """``range(..n_fn..)`` — any argument whose terminal identifier is a
    fleet-cardinality name."""
    for arg in call.args:
        for inner in ast.walk(arg):
            name: str | None = None
            if isinstance(inner, ast.Name):
                name = inner.id
            elif isinstance(inner, ast.Attribute):
                name = inner.attr
            if name is not None and name in _FID_COUNT_NAMES:
                return True
    return False


@register_rule
class ColumnarHygieneRule(Rule):
    """Keep the columnar kernel vectorized, overflow-safe, and
    deterministically ordered."""

    id = "RPR009"
    severity = Severity.ERROR
    summary = (
        "columnar kernel hygiene: no per-fid python loops in hot paths, "
        "no int8/int16 arithmetic before widening, argsort stays "
        "kind='stable' and argpartition/float-sum stay inside the "
        "documented carve-outs"
    )
    project_scope = staticmethod(_columnar_scope)

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        context = (
            modules
            if isinstance(modules, ProjectContext)
            else ProjectContext(list(modules))
        )
        out: list[Finding] = []
        for module in context:
            if not _columnar_scope(module.path):
                continue
            syms = context.symbols.module(module.display)
            if syms is None:
                continue
            aliases = import_aliases(module.tree)
            functions = list(syms.functions.values())
            for cls in syms.classes.values():
                functions.extend(cls.methods.values())
            for fn in functions:
                defs = context.reaching(fn.node, module)
                out.extend(self._check_function(module, fn, defs, aliases))
        return out

    def _check_function(
        self,
        module: SourceModule,
        fn: FunctionInfo,
        defs: ReachingDefs,
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        hot = fn.name in _HOT_FUNCTIONS
        has_stable_sort = self._has_stable_argsort(fn.node, aliases)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.For) and hot:
                yield from self._check_loop(module, fn, node, aliases)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                yield from self._check_narrow(module, node, defs)
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    module, fn, node, defs, aliases, hot, has_stable_sort
                )

    # -- hot-path loops ------------------------------------------------------
    def _check_loop(
        self,
        module: SourceModule,
        fn: FunctionInfo,
        node: ast.For,
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        target = _unwrap_iter(node.iter)
        reason: str | None = None
        if isinstance(target, ast.Call):
            func = target.func
            if isinstance(func, ast.Attribute) and func.attr == "tolist":
                reason = "iterates a per-fid array via .tolist()"
            else:
                dotted = dotted_name(func)
                if dotted is not None:
                    resolved = resolve_alias(dotted, aliases)
                    tail = resolved.rsplit(".", maxsplit=1)[-1]
                    if tail in ("flatnonzero", "nonzero", "where"):
                        reason = f"iterates np.{tail}() output per element"
                    elif tail == "range" and _range_over_fleet(target):
                        reason = "ranges over the fleet cardinality"
        if reason is not None:
            yield self.finding(
                module,
                node,
                f"python-level loop in hot path {fn.name}(): {reason} — "
                "vectorize with numpy, or waive naming the compat mode / "
                "bound that keeps it off the fleet-scale path",
            )

    # -- narrow-dtype arithmetic ---------------------------------------------
    def _check_narrow(
        self,
        module: SourceModule,
        node: ast.BinOp | ast.AugAssign,
        defs: ReachingDefs,
    ) -> Iterator[Finding]:
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            return
        if isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        else:
            operands = [node.target, node.value]
        for operand in operands:
            inferred = defs.type_of_expr(operand)
            if inferred.kind == "array" and inferred.detail in _NARROW_DTYPES:
                yield self.finding(
                    module,
                    node,
                    f"arithmetic on {inferred.detail} array can overflow "
                    "silently (numpy wraps) — widen first with "
                    ".astype(np.int64), or waive with the range invariant "
                    "that bounds the values",
                )
                return

    # -- order-sensitive calls -----------------------------------------------
    def _has_stable_argsort(
        self, fn_node: ast.AST, aliases: dict[str, str]
    ) -> bool:
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Call) and self._is_argsort(node, aliases):
                if self._stable_kind(node):
                    return True
        return False

    @staticmethod
    def _is_argsort(call: ast.Call, aliases: dict[str, str]) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "argsort":
            return True
        dotted = dotted_name(func)
        if dotted is None:
            return False
        return resolve_alias(dotted, aliases).endswith(".argsort")

    @staticmethod
    def _stable_kind(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "kind":
                return (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value in _STABLE_KINDS
                )
        return False

    def _check_call(
        self,
        module: SourceModule,
        fn: FunctionInfo,
        node: ast.Call,
        defs: ReachingDefs,
        aliases: dict[str, str],
        hot: bool,
        has_stable_sort: bool,
    ) -> Iterator[Finding]:
        func = node.func
        if self._is_argsort(node, aliases) and not self._stable_kind(node):
            yield self.finding(
                module,
                node,
                "argsort without kind='stable' — tie order is unspecified "
                "and breaks bit-identity across numpy versions; pass "
                "kind='stable'",
            )
            return
        is_argpartition = (
            isinstance(func, ast.Attribute) and func.attr == "argpartition"
        )
        if not is_argpartition:
            dotted = dotted_name(func)
            is_argpartition = dotted is not None and resolve_alias(
                dotted, aliases
            ).endswith(".argpartition")
        if is_argpartition:
            if not has_stable_sort:
                yield self.finding(
                    module,
                    node,
                    "argpartition outside the documented carve-out: its "
                    "output order is unspecified, so it is only allowed in "
                    "a function that re-establishes total order with a "
                    "stable argsort (see _candidate_table)",
                )
            return
        if hot and isinstance(func, ast.Attribute) and func.attr == "sum":
            if any(kw.arg == "axis" for kw in node.keywords):
                return
            inferred = defs.type_of_expr(func.value)
            if inferred.kind == "array" and inferred.detail.startswith("float"):
                yield self.finding(
                    module,
                    node,
                    f"unordered float reduction in hot path {fn.name}(): "
                    ".sum() on a float array has no pinned accumulation "
                    "order — use the documented sequential fold, or waive "
                    "with the invariant that pins this value",
                )
