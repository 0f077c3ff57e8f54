"""RPR008 — lock discipline in the serving layer.

``repro.serve`` is the one genuinely concurrent subsystem: HTTP handler
threads and per-session auto-tick daemon threads share
``SessionManager``'s registry and each ``_ManagedSession``'s state. The
convention (documented in ``serve/app.py``) is per-object mutexes —
``self._registry_lock`` guards the session registry, ``managed.lock``
guards one session — and a race here does not crash loudly; it corrupts
a tenant's simulation silently. This rule machine-checks the
convention, using the project analysis core for the typing it needs
(``managed = self._get(sid)`` resolves through ``_get``'s return
annotation to ``_ManagedSession``):

- a **guarded class** is any class whose ``__init__`` assigns a
  ``threading.Lock``/``RLock`` attribute;
- its **shared state** is every mutable container/counter attribute
  assigned in ``__init__`` plus every attribute rebound outside
  ``__init__`` anywhere in the serving layer;
- every read or write of shared state outside the owner's ``__init__``
  must sit lexically inside ``with <same-receiver>.<lock-attr>:`` for
  one of the owner's locks — including *reads*: an unlocked
  ``sorted(self._sessions)`` races the registrations it iterates;
- two locks acquired nested in both orders is an **ordering** finding
  (the classic ABBA deadlock shape);
- a ``threading.Thread(..., daemon=True)`` target that writes, with no
  lock held, an attribute some ``snapshot()`` method reads is a
  **daemon-vs-snapshot** finding even when the owner has no lock at
  all.

Scope: files under a ``serve`` directory (fixture trees included). A
deliberate exception is waived at the access line with a reasoned
``# repro: lint-ok[RPR008] ...`` naming the invariant that makes the
unlocked access safe.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
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
)

__all__ = ["LockDisciplineRule"]

_LOCK_TYPES = frozenset({"threading.Lock", "threading.RLock"})
_CONTAINER_KINDS = frozenset({"dict", "list", "set", "deque", "counter"})


def _serve_scope(path: Path) -> bool:
    return "serve" in path.parts


@dataclass
class _Access:
    """One read/write of a guarded class's attribute."""

    module: SourceModule
    fn: FunctionInfo
    node: ast.Attribute
    owner: str  # class name
    attr: str
    store: bool
    held: frozenset[str]  # dotted lock exprs held at this point
    base: str  # dotted receiver ("self", "managed", ...)
    in_owner_init: bool


@dataclass
class _WithEnter:
    """Entering a ``with <recv>.<lock>:`` whose receiver types to a
    guarded class — the raw material of the ordering check."""

    module: SourceModule
    node: ast.AST
    label: str  # "Class.lockattr"
    outer: tuple[str, ...]  # labels already held, outermost first


@dataclass
class _Store:
    """Any typed attribute write (for the daemon-vs-snapshot check)."""

    module: SourceModule
    fn: FunctionInfo
    node: ast.Attribute
    owner: str
    attr: str
    held: frozenset[str]


class _FunctionWalker:
    """Recursive walk of one function body tracking the ``with`` stack."""

    def __init__(
        self,
        rule: "LockDisciplineRule",
        module: SourceModule,
        fn: FunctionInfo,
        defs: ReachingDefs,
        locks: dict[str, tuple[str, ...]],
    ) -> None:
        self.rule = rule
        self.module = module
        self.fn = fn
        self.defs = defs
        self.locks = locks
        self.held: list[str] = []  # dotted lock exprs, outermost first
        self.labels: list[str] = []  # class-qualified, outermost first

    def walk(self) -> None:
        for stmt in self.fn.node.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested callable does not hold the enclosing locks when it
            # later runs; analyze its body with an empty stack.
            saved_held, saved_labels = self.held, self.labels
            self.held, self.labels = [], []
            for child in ast.iter_child_nodes(node):
                self._visit(child)
            self.held, self.labels = saved_held, saved_labels
            return
        if isinstance(node, ast.Attribute):
            self._record_attribute(node)
        if isinstance(node, ast.Call):
            self._record_thread_spawn(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        entered: list[tuple[str, str | None]] = []
        for item in node.items:
            self._visit(item.context_expr)  # exprs evaluate pre-acquire
            if item.optional_vars is not None:
                self._visit(item.optional_vars)
            dotted = dotted_name(item.context_expr)
            if dotted is None:
                continue
            label = self._lock_label(item.context_expr)
            if label is not None:
                self.rule.with_enters.append(
                    _WithEnter(
                        module=self.module,
                        node=item.context_expr,
                        label=label,
                        outer=tuple(self.labels),
                    )
                )
            entered.append((dotted, label))
            self.held.append(dotted)
            if label is not None:
                self.labels.append(label)
        for stmt in node.body:
            self._visit(stmt)
        for dotted, label in reversed(entered):
            self.held.pop()
            if label is not None:
                self.labels.pop()

    def _lock_label(self, expr: ast.expr) -> str | None:
        """``"Class.lockattr"`` when ``expr`` is a lock attribute of a
        guarded class, else ``None``."""
        if not isinstance(expr, ast.Attribute):
            return None
        owner = self._receiver_class(expr.value)
        if owner is None:
            return None
        if expr.attr in self.locks.get(owner, ()):
            return f"{owner}.{expr.attr}"
        return None

    def _receiver_class(self, expr: ast.expr) -> str | None:
        inferred = self.defs.type_of_expr(expr)
        return inferred.detail if inferred.kind == "instance" else None

    def _record_attribute(self, node: ast.Attribute) -> None:
        owner = self._receiver_class(node.value)
        if owner is None:
            return
        base = dotted_name(node.value)
        if base is None:
            return
        store = isinstance(node.ctx, (ast.Store, ast.Del))
        record = _Access(
            module=self.module,
            fn=self.fn,
            node=node,
            owner=owner,
            attr=node.attr,
            store=store,
            held=frozenset(self.held),
            base=base,
            in_owner_init=(
                self.fn.owner == owner and self.fn.name == "__init__"
            ),
        )
        if owner in self.locks:
            self.rule.accesses.append(record)
        if store:
            self.rule.stores.append(
                _Store(
                    module=self.module,
                    fn=self.fn,
                    node=node,
                    owner=owner,
                    attr=node.attr,
                    held=frozenset(self.held),
                )
            )
        if self.fn.name == "snapshot" and not store:
            self.rule.snapshot_reads.add((owner, node.attr))

    def _record_thread_spawn(self, node: ast.Call) -> None:
        """``threading.Thread(target=..., daemon=True)`` — resolve the
        target to a method qualname."""
        dotted = dotted_name(node.func)
        if dotted is None or not dotted.endswith("Thread"):
            return
        daemon = False
        target: ast.expr | None = None
        for kw in node.keywords:
            if kw.arg == "daemon":
                daemon = (
                    isinstance(kw.value, ast.Constant) and kw.value.value is True
                )
            elif kw.arg == "target":
                target = kw.value
        if not daemon or target is None:
            return
        if isinstance(target, ast.Attribute):
            owner = self._receiver_class(target.value)
            if owner is not None:
                self.rule.daemon_targets.add(f"{owner}.{target.attr}")
        elif isinstance(target, ast.Name):
            self.rule.daemon_targets.add(target.id)


@register_rule
class LockDisciplineRule(Rule):
    """Shared serving-layer state must be accessed under its lock."""

    id = "RPR008"
    severity = Severity.ERROR
    summary = (
        "serve-layer shared state (SessionManager registry, managed-"
        "session fields) must be read and written under its lock; lock "
        "order must be consistent; daemon threads must not race snapshot()"
    )
    project_scope = staticmethod(_serve_scope)

    def __init__(self) -> None:
        self.accesses: list[_Access] = []
        self.with_enters: list[_WithEnter] = []
        self.stores: list[_Store] = []
        self.snapshot_reads: set[tuple[str, str]] = set()
        self.daemon_targets: set[str] = set()  # "Class.method" or "func"

    def finalize(self, context: ProjectContext) -> Iterable[Finding]:
        locks = self._guarded_classes(context)
        if not locks:
            return ()
        for module in context:
            syms = context.symbols.module(module.display)
            if syms is None:
                continue
            functions = list(syms.functions.values())
            for cls in syms.classes.values():
                functions.extend(cls.methods.values())
            for fn in functions:
                defs = context.reaching(fn.node, module)
                _FunctionWalker(self, module, fn, defs, locks).walk()
        shared = self._shared_attrs(context, locks)
        out: list[Finding] = []
        out.extend(self._unguarded_findings(context, locks, shared))
        out.extend(self._ordering_findings())
        out.extend(self._daemon_findings())
        return out

    # -- model construction --------------------------------------------------
    def _guarded_classes(
        self, context: ProjectContext
    ) -> dict[str, tuple[str, ...]]:
        """Class name -> its lock attribute names."""
        out: dict[str, tuple[str, ...]] = {}
        for cls in context.symbols.iter_classes():
            lock_attrs = tuple(
                attr
                for attr, inferred in cls.attr_types.items()
                if inferred.kind == "call" and inferred.detail in _LOCK_TYPES
            )
            if lock_attrs:
                out[cls.name] = lock_attrs
        return out

    def _shared_attrs(
        self,
        context: ProjectContext,
        locks: dict[str, tuple[str, ...]],
    ) -> dict[str, set[str]]:
        """Per guarded class: the attributes that need the lock — its
        ``__init__``-assigned mutable containers/counters plus anything
        rebound outside ``__init__``."""
        out: dict[str, set[str]] = {name: set() for name in locks}
        for name in locks:
            cls = context.symbols.find_class(name)
            if cls is None:
                continue
            for attr in cls.init_attrs:
                inferred = cls.attr_types.get(attr)
                if (
                    inferred is not None
                    and inferred.kind == "container"
                    and inferred.detail in _CONTAINER_KINDS
                ):
                    out[name].add(attr)
        for access in self.accesses:
            if access.store and not access.in_owner_init:
                out.setdefault(access.owner, set()).add(access.attr)
        for name, lock_attrs in locks.items():
            out[name] -= set(lock_attrs)
        return out

    # -- findings ------------------------------------------------------------
    def _unguarded_findings(
        self,
        context: ProjectContext,
        locks: dict[str, tuple[str, ...]],
        shared: dict[str, set[str]],
    ) -> Iterator[Finding]:
        entries = self._entry_reachable(context)
        for access in self.accesses:
            if access.in_owner_init:
                continue
            if access.attr not in shared.get(access.owner, ()):
                continue
            lock_attrs = locks[access.owner]
            wanted = {f"{access.base}.{lock}" for lock in lock_attrs}
            if access.held & wanted:
                continue
            verb = "write to" if access.store else "read of"
            reach = ""
            if access.fn.qualname in entries:
                reach = f" (reachable from {entries[access.fn.qualname]})"
            lock_list = " / ".join(
                f"with {access.base}.{lock}:" for lock in lock_attrs
            )
            yield self.finding(
                access.module,
                access.node,
                f"unlocked {verb} shared {access.owner}.{access.attr}"
                f"{reach} — wrap the access in {lock_list} or waive with "
                "the invariant that makes it safe",
            )

    def _entry_reachable(self, context: ProjectContext) -> dict[str, str]:
        """qualname -> the entry point it is reachable from (public
        method, module function, or daemon-thread target)."""
        graph = context.call_graph
        origin: dict[str, str] = {}
        queue: list[str] = []
        for syms in context.symbols.modules.values():
            for fn in syms.functions.values():
                origin.setdefault(fn.qualname, fn.name)
                queue.append(fn.qualname)
            for cls in syms.classes.values():
                for fn in cls.methods.values():
                    short = f"{cls.name}.{fn.name}"
                    is_entry = not fn.name.startswith("_")
                    if short in self.daemon_targets or (
                        fn.name in self.daemon_targets
                    ):
                        is_entry = True
                    if is_entry:
                        origin.setdefault(fn.qualname, short)
                        queue.append(fn.qualname)
        while queue:
            current = queue.pop()
            for callee in graph.callees(current):
                if callee not in origin:
                    origin[callee] = origin[current]
                    queue.append(callee)
        return origin

    def _ordering_findings(self) -> Iterator[Finding]:
        seen: dict[tuple[str, str], _WithEnter] = {}
        for enter in self.with_enters:
            for outer in enter.outer:
                if outer != enter.label:
                    seen.setdefault((outer, enter.label), enter)
        reported: set[frozenset[str]] = set()
        for (outer, inner), enter in sorted(seen.items()):
            if (inner, outer) not in seen:
                continue
            pair = frozenset((outer, inner))
            if pair in reported:
                continue
            reported.add(pair)
            other = seen[(inner, outer)]
            yield self.finding(
                enter.module,
                enter.node,
                f"inconsistent lock order: {inner} acquired while holding "
                f"{outer} here, but {other.module.display}:"
                f"{getattr(other.node, 'lineno', '?')} acquires them in "
                "the opposite order — pick one order (ABBA deadlock risk)",
            )

    def _daemon_findings(self) -> Iterator[Finding]:
        if not self.daemon_targets:
            return
        for store in self.stores:
            short = (
                f"{store.fn.owner}.{store.fn.name}"
                if store.fn.owner
                else store.fn.name
            )
            if short not in self.daemon_targets:
                continue
            if store.held:
                continue
            if (store.owner, store.attr) not in self.snapshot_reads:
                continue
            yield self.finding(
                store.module,
                store.node,
                f"daemon thread {short} writes {store.owner}.{store.attr} "
                "with no lock held, and a snapshot() method reads it — "
                "snapshots may observe torn state",
            )
