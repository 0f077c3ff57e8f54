"""The static-analysis engine: modules, rules, suppressions, findings.

This is a deliberately dependency-free (stdlib-only) AST linter built for
*this* repository's contracts — determinism of the replay harness, lock
discipline in the serving layer, columnar-kernel hygiene — rather than
general style. The pieces:

- :class:`SourceModule` — one parsed file: source text, AST, and the
  ``# repro: lint-ok[RULE]`` suppression comments found by tokenizing;
- :class:`Rule` — a check. Per-file rules implement
  :meth:`Rule.check_module`; cross-file rules (lock discipline,
  columnar hygiene) implement :meth:`Rule.finalize`, which receives a
  :class:`~repro.analysis.project.ProjectContext` — the parsed modules
  the rule's :attr:`Rule.project_scope` selects, plus the symbol table,
  call graph and reaching-definitions oracles built over them;
- :func:`register_rule` — the registry. Rules self-register on import
  (see :mod:`repro.analysis.rules`), so ``rule_ids()`` always reflects
  the loaded rule pack;
- :func:`run_lint` — one sequential pass: parse each file, run every
  selected rule, apply suppressions, and return a sorted
  :class:`LintReport`.

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
import re
import tokenize
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from repro.analysis.project import ProjectContext

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
    stateless across files; cross-file logic belongs in :meth:`finalize`.

    A rule that implements :meth:`finalize` declares :attr:`project_scope`:
    a static predicate naming the files its cross-file analysis reads.
    ``finalize`` sees exactly the parsed modules the predicate selects;
    a rule without a scope sees every parsed module.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""
    #: Static predicate: does this rule's ``finalize`` see ``path``?
    #: ``None`` (the default) means every parsed module.
    project_scope: ClassVar[Callable[[Path], bool] | None] = None

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        """Findings for one file. Default: none."""
        return ()

    def finalize(self, context: "ProjectContext") -> Iterable[Finding]:
        """Findings requiring several files (cross-file rules).

        ``context`` is a ``Sequence[SourceModule]`` of the modules in
        :attr:`project_scope` that also exposes ``.symbols`` /
        ``.call_graph`` / ``.reaching``. Default: none.
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


def _waived(module: SourceModule, finding: Finding) -> bool:
    """Whether a reasoned waiver in ``module`` covers ``finding``."""
    supp = module.suppression_for(finding.line)
    return supp is not None and supp.covers(finding.rule) and bool(supp.reason)


def run_lint(
    files: Sequence[Path], rule_ids: Sequence[str] | None = None
) -> LintReport:
    """Lint ``files`` with the selected rules and return the report.

    One sequential pass: each file is parsed once, in order, and checked
    by every per-file rule; then each cross-file rule's
    :meth:`Rule.finalize` runs over a
    :class:`~repro.analysis.project.ProjectContext` of the parsed
    modules its :attr:`Rule.project_scope` selects. Findings covered by
    a reasoned waiver are dropped; engine-level problems (unparseable
    files, malformed waivers) always survive.
    """
    from repro.analysis.project import ProjectContext

    rules = make_rules(rule_ids)
    file_rules = [r for r in rules if _overrides(r, "check_module")]
    project_rules = [r for r in rules if _overrides(r, "finalize")]
    findings: list[Finding] = []
    parsed: list[SourceModule] = []
    for path in files:
        try:
            module = SourceModule.load(path)
        except (SyntaxError, ValueError) as exc:
            findings.append(_parse_error_finding(path, exc))
            continue
        parsed.append(module)
        findings.extend(_meta_findings(module))
        for rule in file_rules:
            findings.extend(
                f for f in rule.check_module(module) if not _waived(module, f)
            )

    by_display = {module.display: module for module in parsed}
    for rule in project_rules:
        scope = type(rule).project_scope
        scoped = [m for m in parsed if scope is None or scope(m.path)]
        for finding in rule.finalize(ProjectContext(scoped)):
            module = by_display.get(finding.path)
            if module is None or not _waived(module, finding):
                findings.append(finding)

    findings.sort(key=lambda f: f.sort_key)
    return LintReport(
        findings=findings,
        n_files=len(files),
        rule_ids=[rule.id for rule in rules],
        n_parse_errors=len(files) - len(parsed),
    )


def lint_paths(
    paths: Iterable[Path], rule_ids: Sequence[str] | None = None
) -> LintReport:
    """Convenience wrapper: expand ``paths`` and :func:`run_lint` them."""
    return run_lint(iter_python_files(paths), rule_ids=rule_ids)
