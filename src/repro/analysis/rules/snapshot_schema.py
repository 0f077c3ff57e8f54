"""RPR010 — snapshot-schema drift between the engines and the
checkpoint version.

The bit-identity contract of checkpoint/resume (see
``runtime/checkpoint.py``) hangs on an unwritten invariant: the field
set each engine's ``live_state()`` pickles is *part of the schema* that
``CHECKPOINT_SCHEMA_VERSION`` names. Add, remove, or retype a
snapshot-carried field without bumping the version and an old snapshot
restores into a stepper missing state — usually silently, as a wrong
number many minutes later. This rule makes the schema explicit and
machine-checks it against a golden manifest in the checkpoint module:

- ``SNAPSHOT_FIELDS`` maps each engine key (``reference`` /
  ``fleet`` — by engine file basename) to the exact key set
  its ``live_state()`` returns. Any drift between the dict literal in
  the engine and the manifest is a finding: updating the manifest is
  the reviewed act that accompanies a version bump;
- ``STATE_FIELDS`` pins the ``SimulationState`` dataclass itself as
  ``(name, annotation)`` pairs, so *retyping* a snapshot field is also
  drift;
- ``CHECKPOINT_SCHEMA_VERSION`` must be an integer literal, and the
  checkpoint module must contain a ``v<N>:`` migration note for the
  current version — a bump without a note is itself a finding;
- ``WIRE_FIELDS`` pins the JSON wire envelope: when the checkpoint
  module defines a ``to_wire_json`` codec, the key set of the dict
  literal it emits must match the manifest — the envelope is what
  snapshots look like over HTTP and in the serve-layer journal, so an
  unreviewed key change breaks cross-version restore exactly like a
  ``live_state()`` drift.

Files are grouped by directory (like the engine-parity rule), so a
fixture copy of ``checkpoint.py`` + ``simulator.py`` in a test sandbox
is checked exactly like the real tree. A directory with engine files
but no ``checkpoint.py`` is skipped (``obs/fleet.py`` has no snapshot
surface).
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

__all__ = ["SnapshotSchemaRule"]

CHECKPOINT_BASENAME = "checkpoint.py"

#: Engine file basename -> its key in the ``SNAPSHOT_FIELDS`` manifest.
ENGINE_KEYS = {
    "simulator.py": "reference",
    "fleet.py": "fleet",
}

_SCOPE_BASENAMES = frozenset({CHECKPOINT_BASENAME, *ENGINE_KEYS})

_VERSION_NAME = "CHECKPOINT_SCHEMA_VERSION"
_MANIFEST_NAME = "SNAPSHOT_FIELDS"
_STATE_MANIFEST_NAME = "STATE_FIELDS"
_WIRE_MANIFEST_NAME = "WIRE_FIELDS"
_WIRE_CODEC_NAME = "to_wire_json"
_STATE_CLASS = "SimulationState"


def _snapshot_scope(path: Path) -> bool:
    return path.name in _SCOPE_BASENAMES


def _assign_value(tree: ast.Module, name: str) -> ast.expr | None:
    """The value of top-level ``name = ...`` / ``name: T = ...``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == name
                and node.value is not None
            ):
                return node.value
    return None


def _str_set(node: ast.expr) -> frozenset[str] | None:
    """A literal set of strings: ``{...}`` / ``frozenset({...})`` /
    ``frozenset((...))``; ``None`` when not statically readable."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set")
        and len(node.args) == 1
        and not node.keywords
    ):
        node = node.args[0]
    if not isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        return None
    out: set[str] = set()
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.add(elt.value)
    return frozenset(out)


def _fmt(names: Iterable[str]) -> str:
    return ", ".join(sorted(names))


@register_rule
class SnapshotSchemaRule(Rule):
    """live_state() field sets and SimulationState must match the
    versioned SNAPSHOT_FIELDS/STATE_FIELDS manifest."""

    id = "RPR010"
    severity = Severity.ERROR
    summary = (
        "snapshot-carried fields (live_state keys, SimulationState "
        "fields) must match checkpoint.py's versioned SNAPSHOT_FIELDS/"
        "STATE_FIELDS manifest, and the schema version needs a "
        "migration note"
    )
    project_scope = staticmethod(_snapshot_scope)

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        groups: dict[str, dict[str, SourceModule]] = {}
        for module in modules:
            name = module.path.name
            if name in _SCOPE_BASENAMES:
                key = str(module.path.resolve().parent)
                groups.setdefault(key, {})[name] = module
        out: list[Finding] = []
        for group in groups.values():
            checkpoint = group.get(CHECKPOINT_BASENAME)
            if checkpoint is None:
                continue  # no snapshot surface in this directory
            out.extend(self._check_group(checkpoint, group))
        return out

    def _check_group(
        self, checkpoint: SourceModule, group: dict[str, SourceModule]
    ) -> Iterator[Finding]:
        version_node = _assign_value(checkpoint.tree, _VERSION_NAME)
        if version_node is None:
            yield self.finding(
                checkpoint,
                checkpoint.tree,
                f"checkpoint module defines no {_VERSION_NAME} — snapshot "
                "compatibility cannot be versioned",
            )
            return
        version: int | None = None
        if isinstance(version_node, ast.Constant) and isinstance(
            version_node.value, int
        ):
            version = version_node.value
        else:
            yield self.finding(
                checkpoint,
                version_node,
                f"{_VERSION_NAME} must be an integer literal so tooling "
                "can read it statically",
                severity=Severity.WARNING,
            )
        if version is not None and f"v{version}:" not in checkpoint.source:
            yield self.finding(
                checkpoint,
                version_node,
                f"{_VERSION_NAME} = {version} has no 'v{version}:' "
                "migration note in this module — a version bump must say "
                "what changed and how old snapshots are affected",
            )

        manifest_node = _assign_value(checkpoint.tree, _MANIFEST_NAME)
        manifest = self._read_manifest(checkpoint, manifest_node)
        engines_present = [
            name for name in ENGINE_KEYS if name in group
            if self._live_state_defs(group[name])
        ]
        if manifest is None:
            if manifest_node is None and engines_present:
                yield self.finding(
                    checkpoint,
                    checkpoint.tree,
                    f"engine live_state() methods exist ({_fmt(engines_present)}) "
                    f"but checkpoint module has no {_MANIFEST_NAME} manifest "
                    "pinning their snapshot-carried field sets",
                )
        else:
            for name in engines_present:
                yield from self._check_engine(
                    group[name], ENGINE_KEYS[name], manifest
                )

        yield from self._check_state_class(checkpoint)
        yield from self._check_wire_codec(checkpoint)

    # -- manifest ------------------------------------------------------------
    def _read_manifest(
        self, checkpoint: SourceModule, node: ast.expr | None
    ) -> dict[str, frozenset[str]] | None:
        if node is None or not isinstance(node, ast.Dict):
            return None
        out: dict[str, frozenset[str]] = {}
        for key, value in zip(node.keys, node.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            fields = _str_set(value)
            if fields is not None:
                out[key.value] = fields
        return out

    # -- live_state vs manifest ---------------------------------------------
    @staticmethod
    def _live_state_defs(
        module: SourceModule,
    ) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "live_state"
        ]

    def _check_engine(
        self,
        module: SourceModule,
        engine_key: str,
        manifest: dict[str, frozenset[str]],
    ) -> Iterator[Finding]:
        for fn in self._live_state_defs(module):
            keys = self._returned_keys(fn)
            if keys is None:
                yield self.finding(
                    module,
                    fn,
                    "live_state() does not return a single dict literal "
                    "with string keys — the snapshot field set cannot be "
                    "verified against the manifest",
                    severity=Severity.WARNING,
                )
                continue
            expected = manifest.get(engine_key)
            if expected is None:
                yield self.finding(
                    module,
                    fn,
                    f"engine {engine_key!r} has a live_state() but no entry "
                    f"in {_MANIFEST_NAME} — add it (and bump "
                    f"{_VERSION_NAME} with a migration note)",
                )
                continue
            added = keys - expected
            removed = expected - keys
            if added or removed:
                detail = []
                if added:
                    detail.append(f"added: {_fmt(added)}")
                if removed:
                    detail.append(f"removed: {_fmt(removed)}")
                yield self.finding(
                    module,
                    fn,
                    f"snapshot-carried fields of engine {engine_key!r} "
                    f"drifted from {_MANIFEST_NAME} ({'; '.join(detail)}) — "
                    f"update the manifest AND bump {_VERSION_NAME} with a "
                    "migration note; old snapshots restore into this field "
                    "set",
                )

    @staticmethod
    def _returned_keys(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> frozenset[str] | None:
        returns = [
            node
            for node in ast.walk(fn)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        if len(returns) != 1 or not isinstance(returns[0].value, ast.Dict):
            return None
        keys: set[str] = set()
        for key in returns[0].value.keys:
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                return None
            keys.add(key.value)
        return frozenset(keys)

    # -- SimulationState vs STATE_FIELDS -------------------------------------
    def _check_state_class(self, checkpoint: SourceModule) -> Iterator[Finding]:
        state_cls: ast.ClassDef | None = None
        for node in checkpoint.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == _STATE_CLASS:
                state_cls = node
                break
        manifest_node = _assign_value(checkpoint.tree, _STATE_MANIFEST_NAME)
        if state_cls is None:
            return
        actual = [
            (item.target.id, ast.unparse(item.annotation))
            for item in state_cls.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
        ]
        if manifest_node is None:
            yield self.finding(
                checkpoint,
                state_cls,
                f"{_STATE_CLASS} exists but the checkpoint module has no "
                f"{_STATE_MANIFEST_NAME} manifest pinning its (name, type) "
                "pairs — retyping a snapshot field would go unnoticed",
            )
            return
        expected = self._read_state_manifest(manifest_node)
        if expected is None:
            yield self.finding(
                checkpoint,
                manifest_node,
                f"{_STATE_MANIFEST_NAME} must be a literal tuple of "
                "(name, annotation) string pairs",
                severity=Severity.WARNING,
            )
            return
        if actual != expected:
            yield self.finding(
                checkpoint,
                state_cls,
                f"{_STATE_CLASS} fields {actual!r} drifted from "
                f"{_STATE_MANIFEST_NAME} {expected!r} — update the manifest "
                f"AND bump {_VERSION_NAME} with a migration note (a field "
                "rename or retype changes what old snapshots restore into)",
            )

    # -- to_wire_json vs WIRE_FIELDS ------------------------------------------
    def _check_wire_codec(self, checkpoint: SourceModule) -> Iterator[Finding]:
        codec: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        for node in ast.walk(checkpoint.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == _WIRE_CODEC_NAME
            ):
                codec = node
                break
        if codec is None:
            return
        manifest_node = _assign_value(checkpoint.tree, _WIRE_MANIFEST_NAME)
        if manifest_node is None:
            yield self.finding(
                checkpoint,
                codec,
                f"a {_WIRE_CODEC_NAME}() wire codec exists but the "
                f"checkpoint module has no {_WIRE_MANIFEST_NAME} manifest "
                "pinning the envelope's key set — an envelope key change "
                "would go unreviewed",
            )
            return
        expected = _str_set(manifest_node)
        if expected is None:
            yield self.finding(
                checkpoint,
                manifest_node,
                f"{_WIRE_MANIFEST_NAME} must be a literal tuple/set of "
                "string keys so tooling can read it statically",
                severity=Severity.WARNING,
            )
            return
        emitted = self._emitted_keys(codec)
        if emitted is None:
            yield self.finding(
                checkpoint,
                codec,
                f"{_WIRE_CODEC_NAME}() does not build a single dict "
                "literal with string keys — the envelope key set cannot "
                f"be verified against {_WIRE_MANIFEST_NAME}",
                severity=Severity.WARNING,
            )
            return
        added = emitted - expected
        removed = expected - emitted
        if added or removed:
            detail = []
            if added:
                detail.append(f"added: {_fmt(added)}")
            if removed:
                detail.append(f"removed: {_fmt(removed)}")
            yield self.finding(
                checkpoint,
                codec,
                f"wire-envelope keys of {_WIRE_CODEC_NAME}() drifted from "
                f"{_WIRE_MANIFEST_NAME} ({'; '.join(detail)}) — update the "
                f"manifest AND note the change at {_VERSION_NAME}; peers "
                "on the old envelope cannot restore these snapshots",
            )

    @staticmethod
    def _emitted_keys(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> frozenset[str] | None:
        dicts = [
            node for node in ast.walk(fn) if isinstance(node, ast.Dict)
        ]
        if len(dicts) != 1:
            return None
        keys: set[str] = set()
        for key in dicts[0].keys:
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                return None
            keys.add(key.value)
        return frozenset(keys)

    @staticmethod
    def _read_state_manifest(
        node: ast.expr,
    ) -> list[tuple[str, str]] | None:
        if not isinstance(node, (ast.Tuple, ast.List)):
            return None
        out: list[tuple[str, str]] = []
        for elt in node.elts:
            if not (
                isinstance(elt, ast.Tuple)
                and len(elt.elts) == 2
                and all(
                    isinstance(part, ast.Constant)
                    and isinstance(part.value, str)
                    for part in elt.elts
                )
            ):
                return None
            first, second = elt.elts
            assert isinstance(first, ast.Constant)
            assert isinstance(second, ast.Constant)
            out.append((str(first.value), str(second.value)))
        return out
