"""The static-analysis engine: modules, rules, suppressions, findings.

This is a deliberately dependency-free (stdlib-only) AST linter built for
*this* repository's contracts — determinism of the replay harness, parity
between the simulation engines, lock discipline in the serving layer,
columnar-kernel hygiene — rather than general style. The pieces:

- :class:`SourceModule` — one parsed file: source text, AST, and the
  ``# repro: lint-ok[RULE]`` suppression comments found by tokenizing;
- :class:`Rule` — a check. Per-file rules implement
  :meth:`Rule.check_module`; whole-project rules (engine parity, lock
  discipline) implement :meth:`Rule.finalize`, which
  receives a :class:`~repro.analysis.project.ProjectContext` — a
  ``Sequence[SourceModule]`` that also carries the symbol table, call
  graph and reaching-definitions oracles. A project rule declares the
  files its ``finalize`` needs via :attr:`Rule.project_scope` so the
  incremental cache knows to keep parsing them even when unchanged;
- :func:`register_rule` — the registry. Rules self-register on import
  (see :mod:`repro.analysis.rules`), so ``rule_ids()`` always reflects
  the loaded rule pack;
- :func:`run_lint` — parse, run every selected rule, apply suppressions,
  and return a sorted :class:`LintReport`. Pass ``cache=`` (a
  :class:`~repro.analysis.cache.LintCache`) to skip re-parsing files
  whose sha256 is unchanged, and ``jobs=`` to fan per-file work out to a
  process pool.

Suppression syntax::

    something_flagged()  # repro: lint-ok[RPR001] reason for the waiver

A waiver covers its own line; a comment alone on a line covers the next
line (for statements too long to annotate inline). Waivers *must* carry
a reason — a bare ``lint-ok[...]`` is itself reported (RPR000), as is a
waiver naming an unknown rule. ``lint-ok[*]`` waives every rule.
RPR000 findings (engine-level: syntax errors, malformed waivers) cannot
be suppressed.

Exit codes: ``0`` clean, ``1`` findings, ``2`` engine error — at least
one file could not be parsed at all (the report still carries the
RPR000 findings for the broken files).
"""

from __future__ import annotations

import abc
import ast
import io
import os
import re
import tokenize
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from repro.analysis.cache import CacheEntry, LintCache

__all__ = [
    "META_RULE_ID",
    "Finding",
    "LintReport",
    "Rule",
    "Severity",
    "SourceModule",
    "Suppression",
    "iter_python_files",
    "lint_paths",
    "make_rules",
    "project_scope_paths",
    "register_rule",
    "rule_ids",
    "rule_summaries",
    "run_lint",
]

#: Engine-level findings (parse failures, malformed waivers) report under
#: this id; it is not a registrable rule and cannot be suppressed.
META_RULE_ID = "RPR000"

#: ``LintReport.exit_code`` when at least one file could not be parsed.
ENGINE_ERROR_EXIT = 2

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[([A-Za-z0-9*,\s]*)\]\s*(.*)"
)
_RULE_ID_RE = re.compile(r"^RPR\d{3}$")


class Severity(str, Enum):
    """How bad a finding is. ``error`` findings gate CI; ``warning``
    findings still fail ``repro lint`` but mark advisory checks."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One reported problem, anchored to a file position."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "Finding":
        """Inverse of :meth:`to_dict` (used by the incremental cache)."""
        return cls(
            path=str(doc["path"]),
            line=int(doc["line"]),  # type: ignore[call-overload]
            col=int(doc["col"]),  # type: ignore[call-overload]
            rule=str(doc["rule"]),
            severity=Severity(str(doc["severity"])),
            message=str(doc["message"]),
        )


@dataclass(frozen=True)
class Suppression:
    """One ``# repro: lint-ok[...]`` waiver comment."""

    line: int
    rules: frozenset[str]
    reason: str
    standalone: bool  # comment is alone on its line -> covers the next line

    def covers(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


@dataclass
class SourceModule:
    """One parsed Python file, ready for rules to inspect."""

    path: Path
    display: str
    source: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, display: str | None = None) -> "SourceModule":
        """Parse ``path``; raises :class:`SyntaxError` on a broken file."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        module = cls(
            path=path,
            display=display if display is not None else _display(path),
            source=source,
            tree=tree,
        )
        module.suppressions = _scan_suppressions(source)
        return module

    def suppression_for(self, line: int) -> Suppression | None:
        """The waiver covering ``line``: an inline comment on the line
        itself, or a standalone comment above it (a waiver too long for
        one comment line may continue over plain comment lines — the
        whole block covers the next code line)."""
        supp = self.suppressions.get(line)
        if supp is not None:
            return supp
        lines = self.source.splitlines()
        current = line - 1
        while current >= 1:
            above = self.suppressions.get(current)
            if above is not None:
                return above if above.standalone else None
            text = lines[current - 1].strip() if current - 1 < len(lines) else ""
            if text.startswith("#"):
                current -= 1  # plain comment line: keep scanning upward
                continue
            return None
        return None


def _display(path: Path) -> str:
    """Repo-relative path when possible — stable across machines."""
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _scan_suppressions(source: str) -> dict[int, Suppression]:
    """Find every ``lint-ok`` comment, via tokenize so string literals
    that merely *contain* the pattern are not misread as waivers."""
    out: dict[int, Suppression] = {}
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        rules = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        text = lines[line - 1] if line - 1 < len(lines) else ""
        out[line] = Suppression(
            line=line,
            rules=rules,
            reason=match.group(2).strip(),
            standalone=text.lstrip().startswith("#"),
        )
    return out


# -- the rule registry -------------------------------------------------------
class Rule(abc.ABC):
    """One check. Subclass, set ``id``/``severity``/``summary``, implement
    :meth:`check_module` (per file) and/or :meth:`finalize` (whole project),
    and decorate with :func:`register_rule`.

    A fresh instance is created per lint run. Per-file rules must be
    stateless across files (``check_module`` calls may run in separate
    worker processes and their filtered findings are cached per file);
    cross-file logic belongs in :meth:`finalize`, which always runs in
    the parent process over every parsed module.

    A rule that implements :meth:`finalize` should also declare
    :attr:`project_scope`: a static predicate naming the files its
    cross-file analysis reads. Those files are (re-)parsed on every run
    — even when the incremental cache says they are unchanged — so
    ``finalize`` always sees real ASTs. A project rule without a scope
    forces every file to be parsed every run (correct, but forfeits the
    cache's speedup).
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""
    #: Static predicate: does this rule's ``finalize`` need ``path``
    #: parsed? ``None`` (the default) means "no declared scope".
    project_scope: ClassVar[Callable[[Path], bool] | None] = None

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        """Findings for one file. Default: none."""
        return ()

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        """Findings requiring the whole file set (cross-file rules).

        ``modules`` is a :class:`~repro.analysis.project.ProjectContext`
        — iterable exactly like the historical ``Sequence[SourceModule]``
        but also exposing ``.symbols`` / ``.call_graph`` / ``.reaching``.
        """
        return ()

    def finding(
        self,
        module: SourceModule,
        node: ast.AST,
        message: str,
        severity: Severity | None = None,
    ) -> Finding:
        """Build a finding anchored at ``node``'s position."""
        return Finding(
            path=module.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=severity if severity is not None else self.severity,
            message=message,
        )


_RULE_TYPES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add a rule type to the registry."""
    if not _RULE_ID_RE.match(cls.id) or cls.id == META_RULE_ID:
        raise ValueError(
            f"rule id must match RPRnnn (and not {META_RULE_ID}), "
            f"got {cls.id!r}"
        )
    if not cls.summary:
        raise ValueError(f"rule {cls.id} must carry a one-line summary")
    _RULE_TYPES[cls.id] = cls
    return cls


def rule_ids() -> list[str]:
    """Sorted ids of every registered rule."""
    return sorted(_RULE_TYPES)


def rule_summaries() -> dict[str, str]:
    """id -> one-line summary, for ``repro lint --help``-style listings."""
    return {rid: _RULE_TYPES[rid].summary for rid in rule_ids()}


def make_rules(ids: Sequence[str] | None = None) -> list[Rule]:
    """Fresh rule instances for ``ids`` (default: every registered rule)."""
    if ids is None:
        selected = rule_ids()
    else:
        unknown = sorted(set(ids) - set(_RULE_TYPES))
        if unknown:
            raise ValueError(
                f"unknown rule ids {unknown}; known: {rule_ids()}"
            )
        selected = sorted(set(ids))
    return [_RULE_TYPES[rid]() for rid in selected]


def _overrides(rule: Rule, method: str) -> bool:
    return getattr(type(rule), method) is not getattr(Rule, method)


def _scope_predicates(
    rules: Sequence[Rule],
) -> tuple[list[Callable[[Path], bool]], bool]:
    """The declared project scopes of the selected cross-file rules,
    plus whether any project rule left its scope undeclared (in which
    case every file must be parsed)."""
    predicates: list[Callable[[Path], bool]] = []
    undeclared = False
    for rule in rules:
        if not _overrides(rule, "finalize"):
            continue
        scope = type(rule).project_scope
        if scope is None:
            undeclared = True
        else:
            predicates.append(scope)
    return predicates, undeclared


def project_scope_paths(
    files: Sequence[Path],
    rule_ids: Sequence[str] | None = None,
) -> list[Path]:
    """The subset of ``files`` some selected cross-file rule needs parsed.

    Used by ``repro lint --changed`` to widen a git-diff file set so the
    cross-file rules (engine parity, lock discipline)
    still see every module they reason about.
    """
    rules = make_rules(rule_ids)
    predicates, undeclared = _scope_predicates(rules)
    if undeclared:
        return list(files)
    return [
        path for path in files if any(pred(path) for pred in predicates)
    ]


# -- running -----------------------------------------------------------------
@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding]
    n_files: int
    rule_ids: list[str]
    #: Files that could not be parsed at all (their RPR000 findings are
    #: in :attr:`findings`); drives the distinct engine-error exit code.
    n_parse_errors: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        """``0`` clean, ``1`` findings, ``2`` engine error (unparseable
        file) — so CI and scripts can tell a broken tree from a dirty
        one."""
        if self.n_parse_errors:
            return ENGINE_ERROR_EXIT
        return 0 if self.clean else 1

    def by_rule(self) -> dict[str, list[Finding]]:
        out: dict[str, list[Finding]] = {}
        for finding in self.findings:
            out.setdefault(finding.rule, []).append(finding)
        return out


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a de-duplicated list of ``.py``
    files.

    The ``__pycache__`` exclusion applies only to directory expansion:
    a path named *explicitly* is always kept, so ``repro lint some.py``
    lints exactly that file even when the default target set would have
    skipped it.
    """
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = [
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            ]
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def _meta_findings(module: SourceModule) -> list[Finding]:
    """Engine-level checks on the waiver comments themselves."""
    out: list[Finding] = []
    known = set(_RULE_TYPES)
    for supp in module.suppressions.values():
        if not supp.reason:
            out.append(
                Finding(
                    path=module.display,
                    line=supp.line,
                    col=0,
                    rule=META_RULE_ID,
                    severity=Severity.ERROR,
                    message=(
                        "lint-ok waiver must carry a reason string after "
                        "the bracket, e.g. '# repro: lint-ok[RPR001] seeded "
                        "via rng_from_seed'"
                    ),
                )
            )
        unknown = sorted(supp.rules - known - {"*"})
        if not supp.rules:
            unknown = ["<empty>"]
        if unknown:
            out.append(
                Finding(
                    path=module.display,
                    line=supp.line,
                    col=0,
                    rule=META_RULE_ID,
                    severity=Severity.ERROR,
                    message=(
                        f"lint-ok waiver names unknown rule(s) "
                        f"{', '.join(unknown)}; known: "
                        f"{', '.join(rule_ids())} (or *)"
                    ),
                )
            )
    return out


def _parse_error_finding(path: Path, exc: Exception) -> Finding:
    return Finding(
        path=_display(path),
        line=getattr(exc, "lineno", None) or 1,
        col=getattr(exc, "offset", None) or 0,
        rule=META_RULE_ID,
        severity=Severity.ERROR,
        message=f"cannot parse file: {exc.__class__.__name__}: {exc}",
    )


def _filtered(module: SourceModule, raw: Iterable[Finding]) -> list[Finding]:
    """Drop findings covered by a reasoned waiver in ``module``."""
    out: list[Finding] = []
    for finding in raw:
        supp = module.suppression_for(finding.line)
        if supp is not None and supp.covers(finding.rule) and supp.reason:
            continue
        out.append(finding)
    return out


def _check_one_module(
    module: SourceModule, file_rules: Sequence[Rule]
) -> list[Finding]:
    """Meta findings plus suppression-filtered per-file rule findings —
    the cacheable per-file result."""
    raw: list[Finding] = []
    for rule in file_rules:
        raw.extend(rule.check_module(module))
    return _meta_findings(module) + _filtered(module, raw)


@dataclass
class _FileResult:
    """Per input file: what the per-file pass produced."""

    path: Path
    display: str
    findings: list[Finding]
    parse_error: bool
    module: SourceModule | None  # parsed AST, when the parent needs it
    sha: str | None  # content hash, when a cache is active
    from_cache: bool


def _lint_file_worker(
    path_str: str, rule_ids: Sequence[str] | None
) -> tuple[str, list[dict[str, object]], bool]:
    """Process-pool entry: lint one file with the per-file rules.

    Must stay a module-level function (picklable); imports the rule
    pack so spawned interpreters see a populated registry.
    """
    import repro.analysis  # noqa: F401  (registers the bundled rules)

    path = Path(path_str)
    rules = [r for r in make_rules(rule_ids) if _overrides(r, "check_module")]
    try:
        module = SourceModule.load(path)
    except (SyntaxError, ValueError) as exc:
        return (
            _display(path),
            [_parse_error_finding(path, exc).to_dict()],
            True,
        )
    findings = _check_one_module(module, rules)
    return module.display, [f.to_dict() for f in findings], False


def run_lint(
    files: Sequence[Path],
    rule_ids: Sequence[str] | None = None,
    *,
    cache: "LintCache | None" = None,
    jobs: int = 1,
) -> LintReport:
    """Lint ``files`` with the selected rules and return the report.

    Findings covered by a reasoned waiver are dropped; engine-level
    problems (unparseable files, malformed waivers) always survive.

    ``cache`` (a :class:`~repro.analysis.cache.LintCache`) makes the run
    incremental: files whose sha256 matches the cache reuse their stored
    per-file findings and skip re-parsing, except files inside a
    selected cross-file rule's :attr:`Rule.project_scope`, which are
    always parsed so ``finalize`` sees real ASTs (their per-file
    findings still come from the cache). Cross-file findings are
    recomputed every run — reports are byte-identical to a cold run.

    ``jobs`` > 1 fans per-file parsing/checking out to a process pool
    (``jobs=0`` means one per CPU). Cross-file rules always run in the
    parent process.
    """
    rules = make_rules(rule_ids)
    selected = [rule.id for rule in rules]
    file_rules = [r for r in rules if _overrides(r, "check_module")]
    project_rules = [r for r in rules if _overrides(r, "finalize")]
    predicates, undeclared = _scope_predicates(rules)

    def in_scope(path: Path) -> bool:
        if not project_rules:
            return False
        return undeclared or any(pred(path) for pred in predicates)

    if cache is not None:
        cache.open(selected)

    results: list[_FileResult] = []
    pending: list[tuple[int, Path, str | None, "CacheEntry | None", bool]] = []
    for path in files:
        sha = cache.file_sha(path) if cache is not None else None
        entry = cache.get(path, sha) if cache is not None else None
        scoped = in_scope(path)
        if entry is not None and not scoped:
            results.append(
                _FileResult(
                    path=path,
                    display=entry.display,
                    findings=[Finding.from_dict(d) for d in entry.findings],
                    parse_error=entry.parse_error,
                    module=None,
                    sha=sha,
                    from_cache=True,
                )
            )
        else:
            results.append(None)  # type: ignore[arg-type]  (placeholder)
            pending.append((len(results) - 1, path, sha, entry, scoped))

    # Files a cross-file rule needs (or whose cached findings we can
    # reuse) are parsed in the parent; the rest may go to the pool.
    pool_work: list[tuple[int, Path, str | None]] = []
    for index, path, sha, entry, parent_only in pending:
        if parent_only or entry is not None or jobs == 1:
            results[index] = _process_in_parent(path, sha, entry, file_rules)
        else:
            pool_work.append((index, path, sha))

    if pool_work:
        n_jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        n_jobs = max(1, min(n_jobs, len(pool_work)))
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            worker_out = pool.map(
                _lint_file_worker,
                [str(path) for _, path, _ in pool_work],
                [selected] * len(pool_work),
            )
            for (index, path, sha), (display, docs, parse_error) in zip(
                pool_work, worker_out
            ):
                results[index] = _FileResult(
                    path=path,
                    display=display,
                    findings=[Finding.from_dict(d) for d in docs],
                    parse_error=parse_error,
                    module=None,
                    sha=sha,
                    from_cache=False,
                )

    findings: list[Finding] = []
    parsed: list[SourceModule] = []
    n_parse_errors = 0
    for result in results:
        findings.extend(result.findings)
        if result.parse_error:
            n_parse_errors += 1
        if result.module is not None:
            parsed.append(result.module)
        if cache is not None and not result.from_cache and result.sha:
            cache.put(
                result.path,
                result.sha,
                result.display,
                [f.to_dict() for f in result.findings],
                result.parse_error,
            )

    if project_rules:
        from repro.analysis.project import ProjectContext

        context = ProjectContext(parsed)
        by_display = {module.display: module for module in parsed}
        raw: list[Finding] = []
        for rule in project_rules:
            raw.extend(rule.finalize(context))
        for finding in raw:
            module = by_display.get(finding.path)
            if module is not None:
                supp = module.suppression_for(finding.line)
                if supp is not None and supp.covers(finding.rule) and supp.reason:
                    continue
            findings.append(finding)

    if cache is not None:
        cache.save()

    findings.sort(key=lambda f: f.sort_key)
    return LintReport(
        findings=findings,
        n_files=len(files),
        rule_ids=selected,
        n_parse_errors=n_parse_errors,
    )


def _process_in_parent(
    path: Path,
    sha: str | None,
    entry: "CacheEntry | None",
    file_rules: Sequence[Rule],
) -> _FileResult:
    """Parse + per-file check one file in-process. Reuses the cache's
    stored findings when the content hash matched (the parse is then
    only feeding the cross-file rules)."""
    try:
        module = SourceModule.load(path)
    except (SyntaxError, ValueError) as exc:
        return _FileResult(
            path=path,
            display=_display(path),
            findings=[_parse_error_finding(path, exc)],
            parse_error=True,
            module=None,
            sha=sha,
            from_cache=False,
        )
    if entry is not None:
        findings = [Finding.from_dict(d) for d in entry.findings]
        from_cache = True
    else:
        findings = _check_one_module(module, file_rules)
        from_cache = False
    return _FileResult(
        path=path,
        display=module.display,
        findings=findings,
        parse_error=False,
        module=module,
        sha=sha,
        from_cache=from_cache,
    )


def lint_paths(
    paths: Iterable[Path],
    rule_ids: Sequence[str] | None = None,
    *,
    cache: "LintCache | None" = None,
    jobs: int = 1,
) -> LintReport:
    """Convenience wrapper: expand ``paths`` and :func:`run_lint` them."""
    return run_lint(
        iter_python_files(paths), rule_ids=rule_ids, cache=cache, jobs=jobs
    )
