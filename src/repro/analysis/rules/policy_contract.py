"""RPR003 — policy contract: every ``KeepAlivePolicy`` subclass must stay
engine- and sweep-safe.

Policies travel through the experiment runner's process pools (they are
constructed in the parent and pickled to workers) and through the
engines' lifecycle hooks (``attach_observability`` then ``bind``). Four
mechanical mistakes break those contracts silently:

- **skipping base initialisation** — a subclass ``__init__`` that never
  calls ``super().__init__()`` leaves ``self.obs`` and the bound-state
  slots unset, crashing only when observability is first enabled;
- **overriding the template hooks without delegating** — ``bind`` is a
  template method (it validates the assignment and then calls
  ``on_bind``); ``attach_observability`` wires the telemetry session.
  An override that forgets ``super().bind(...)`` /
  ``super().attach_observability(...)`` drops validation or telemetry
  for every wrapped component;
- **unpicklable state on self** — a lambda (or nested closure) stored on
  an attribute pickles on no platform; sweeps die only when the policy
  first crosses a process boundary;
- **module-level mutable state** — a module dict/list/set mutated by a
  policy is invisible to the process pool (each worker mutates its own
  copy) and leaks across runs within one process. Constants are fine as
  tuples/frozensets; per-run state belongs on the instance.

A class participates if any of its (textual) bases is ``KeepAlivePolicy``
or ends in ``Policy``; the abstract base itself is exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.engine import (
    Finding,
    Rule,
    Severity,
    SourceModule,
    register_rule,
)

__all__ = ["PolicyContractRule"]

#: Template methods whose override must delegate to super().
DELEGATING_HOOKS = ("bind", "attach_observability")

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})


def _base_names(node: ast.ClassDef) -> list[str]:
    """Last dotted segment of each base (``a.b.FooPolicy`` -> ``FooPolicy``)."""
    names: list[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_policy_class(node: ast.ClassDef) -> bool:
    if node.name == "KeepAlivePolicy":
        return False
    return any(
        name == "KeepAlivePolicy" or name.endswith("Policy")
        for name in _base_names(node)
    )


def _calls_super_method(func: ast.FunctionDef, method: str) -> bool:
    """Does ``func`` contain a ``super().<method>(...)`` call?"""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            return True
    return False


def _self_attribute_target(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


@register_rule
class PolicyContractRule(Rule):
    """Lifecycle, picklability and shared-state checks for policies."""

    id = "RPR003"
    severity = Severity.ERROR
    summary = (
        "KeepAlivePolicy subclasses: super().__init__/bind/"
        "attach_observability delegation, no lambdas on self, no "
        "module-level mutable state"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        policy_classes = [
            node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef) and _is_policy_class(node)
        ]
        if not policy_classes:
            return ()
        out: list[Finding] = []
        for cls in policy_classes:
            out.extend(self._check_class(module, cls))
        out.extend(self._check_module_state(module))
        return out

    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        init = methods.get("__init__")
        if init is not None and not _calls_super_method(init, "__init__"):
            yield self.finding(
                module,
                init,
                f"{cls.name}.__init__ never calls super().__init__(): the "
                "base class wires self.obs and the bound state; skipping it "
                "breaks the first observed run",
            )
        for hook in DELEGATING_HOOKS:
            override = methods.get(hook)
            if override is not None and not _calls_super_method(override, hook):
                yield self.finding(
                    module,
                    override,
                    f"{cls.name}.{hook} overrides the lifecycle template "
                    f"without calling super().{hook}(...): input validation "
                    "and telemetry wiring are lost",
                )
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                else:
                    targets = [node.target]
                value = node.value
                if value is None:
                    continue
                if any(_self_attribute_target(t) for t in targets):
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Lambda):
                            yield self.finding(
                                module,
                                sub,
                                f"{cls.name} stores a lambda on self: "
                                "lambdas do not pickle, so the policy dies "
                                "crossing the sweep runner's process pool — "
                                "use a def/functools.partial",
                            )

    def _check_module_state(self, module: SourceModule) -> Iterator[Finding]:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value: ast.expr | None = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if value is None or not _is_mutable_value(value):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or all(n.startswith("__") for n in names):
                continue  # __all__ and friends
            yield self.finding(
                module,
                stmt,
                f"module-level mutable state ({', '.join(names)}) in a "
                "policy module: process-pool workers each mutate their own "
                "copy and in-process runs leak state into each other — "
                "make it a tuple/frozenset or move it onto the instance",
            )
