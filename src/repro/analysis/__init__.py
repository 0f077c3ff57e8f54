"""Static analysis for the repro codebase: ``repro lint``.

An AST-based lint engine plus a rule pack enforcing this repository's
reproducibility contracts *at lint time* — determinism of the replay
harness (RPR001), the policy lifecycle/picklability contract (RPR003),
spec-string hygiene (RPR005), exception hygiene (RPR006), facade
signatures (RPR007), serve-layer lock discipline (RPR008) and
columnar-kernel hygiene (RPR009). ``repro lint`` is one sequential
pass: every file is parsed and checked in order, then each cross-file
rule runs over a :class:`~repro.analysis.project.ProjectContext` — a
symbol table, call graph and reaching-definitions helper built over the
modules the rule's ``project_scope`` selects. See
``docs/architecture.md`` ("Analysis core") for the rule catalogue, the
``# repro: lint-ok[RULE] reason`` waiver syntax, and how to add a rule.

Typical use::

    from pathlib import Path
    from repro import analysis

    report = analysis.lint_paths([Path("src/repro")])
    print(analysis.render_text(report))
    raise SystemExit(report.exit_code)
"""

from repro.analysis import rules as _rules  # registers the rule pack
from repro.analysis.engine import (
    ENGINE_ERROR_EXIT,
    META_RULE_ID,
    Finding,
    LintReport,
    Rule,
    Severity,
    SourceModule,
    Suppression,
    iter_python_files,
    lint_paths,
    make_rules,
    register_rule,
    rule_ids,
    rule_summaries,
    run_lint,
)
from repro.analysis.project import (
    CallGraph,
    ProjectContext,
    ReachingDefs,
    SymbolTable,
)
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = [
    "ENGINE_ERROR_EXIT",
    "META_RULE_ID",
    "CallGraph",
    "Finding",
    "LintReport",
    "ProjectContext",
    "ReachingDefs",
    "Rule",
    "Severity",
    "SourceModule",
    "Suppression",
    "SymbolTable",
    "iter_python_files",
    "lint_paths",
    "make_rules",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "rule_summaries",
    "run_lint",
]

del _rules
