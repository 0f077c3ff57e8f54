"""RPR001 — determinism: no unseeded entropy or wall-clock reads in the
replay harness.

The repro's headline guarantee is that a run is a pure function of
``(trace, assignment, policy, config, seed)``: the golden equivalence
tests pin fleet-vs-reference bit-identity and the paper tables are only
meaningful if replaying them reproduces the same numbers. One stray
``random.random()`` or ``time.time()`` inside the engine silently breaks
that. This rule bans, inside the determinism-scoped packages
(``runtime/``, ``faults/``, ``milp/``, ``sota/``):

- the stdlib ``random`` and ``secrets`` modules (process-global,
  unseeded streams) — use :func:`repro.utils.rng.rng_from_seed`;
- wall-clock/entropy reads whose value changes across identical runs:
  ``time.time``/``time.time_ns``, ``datetime.now``/``utcnow``/``today``,
  ``date.today``, ``os.urandom``/``os.getrandom``, ``uuid.uuid1``/
  ``uuid.uuid4``. ``time.perf_counter``/``time.monotonic`` stay legal:
  they feed only the wall-clock fields (``wall_clock_s``, span timers,
  Figure 9's overhead) that the equivalence tests explicitly exclude;
- module-level ``numpy.random`` draws (``np.random.rand``,
  ``np.random.seed``, ...), which share one hidden global
  ``RandomState``. Constructing explicit generators
  (``default_rng``/``Generator``/``SeedSequence``/bit generators) is the
  sanctioned pattern;
- ``for``-loops (and comprehensions) iterating directly over a ``set``
  literal, set comprehension, or ``set()``/``frozenset()`` call: set
  order is salted per process, so any result that folds over it is
  nondeterministic across interpreter runs — sort first.
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

__all__ = ["DeterminismRule"]

#: Package directories the determinism contract covers. Anything under a
#: directory with one of these names is engine/replay code.
SCOPED_DIRS = frozenset({"runtime", "faults", "milp", "sota"})

#: Modules whose import alone is a finding.
BANNED_MODULES = {
    "random": (
        "the stdlib random module draws from one process-global unseeded "
        "stream; use repro.utils.rng.rng_from_seed(seed) instead"
    ),
    "secrets": (
        "the secrets module reads OS entropy on every call; replay code "
        "must derive randomness from an explicit seed"
    ),
}

#: Fully-qualified callables whose value differs across identical runs.
BANNED_CALLS = {
    "time.time": "wall-clock read; runs replayed later would differ",
    "time.time_ns": "wall-clock read; runs replayed later would differ",
    "datetime.datetime.now": "wall-clock read breaks replay determinism",
    "datetime.datetime.utcnow": "wall-clock read breaks replay determinism",
    "datetime.datetime.today": "wall-clock read breaks replay determinism",
    "datetime.date.today": "wall-clock read breaks replay determinism",
    "os.urandom": "OS entropy; derive randomness from the run's seed",
    "os.getrandom": "OS entropy; derive randomness from the run's seed",
    "uuid.uuid1": "host/time-derived id; not stable across runs",
    "uuid.uuid4": "OS entropy; not stable across runs",
}

#: ``numpy.random`` attributes that construct *explicit* generators and
#: are therefore allowed; every other ``np.random.x(...)`` call is a
#: draw from (or a mutation of) the hidden global RandomState.
NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",  # explicit legacy generator object (still seeded)
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

_SET_BUILTINS = frozenset({"set", "frozenset"})


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Local binding name -> fully-qualified dotted origin."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def _resolve(dotted: str, aliases: dict[str, str]) -> str:
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


def in_scope(module: SourceModule) -> bool:
    """Is this file part of the determinism-scoped packages?"""
    return not SCOPED_DIRS.isdisjoint(module.path.resolve().parts)


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SET_BUILTINS
    )


@register_rule
class DeterminismRule(Rule):
    """Ban unseeded randomness, wall-clock reads and unordered set
    iteration inside the replay-determinism-scoped packages."""

    id = "RPR001"
    severity = Severity.ERROR
    summary = (
        "no unseeded RNG, wall-clock reads or set-order dependence in "
        "runtime/, faults/, milp/, sota/"
    )

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        if not in_scope(module):
            return ()
        return list(self._check(module))

    def _check(self, module: SourceModule) -> Iterator[Finding]:
        aliases = _collect_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    root = item.name.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            module,
                            node,
                            f"import of {root!r}: {BANNED_MODULES[root]}",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in BANNED_MODULES and not node.level:
                    yield self.finding(
                        module,
                        node,
                        f"import from {root!r}: {BANNED_MODULES[root]}",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter):
                    yield self.finding(
                        module,
                        node.iter,
                        "iterating a set: iteration order is salted per "
                        "process, so any result folded over it is "
                        "nondeterministic — sort the elements first",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expression(gen.iter):
                        yield self.finding(
                            module,
                            gen.iter,
                            "comprehension over a set: iteration order is "
                            "salted per process — sort the elements first",
                        )

    def _check_call(
        self,
        module: SourceModule,
        node: ast.Call,
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        resolved = _resolve(dotted, aliases)
        root = resolved.split(".")[0]
        if root in BANNED_MODULES and resolved != root:
            yield self.finding(
                module,
                node,
                f"call to {resolved}: {BANNED_MODULES[root]}",
            )
            return
        if resolved in BANNED_CALLS:
            yield self.finding(
                module, node, f"call to {resolved}: {BANNED_CALLS[resolved]}"
            )
            return
        if resolved.startswith("numpy.random."):
            attr = resolved.rsplit(".", maxsplit=1)[1]
            if attr not in NUMPY_RANDOM_ALLOWED:
                yield self.finding(
                    module,
                    node,
                    f"call to {resolved}: module-level numpy.random draws "
                    "share one hidden global RandomState; construct an "
                    "explicit generator (numpy.random.default_rng / "
                    "repro.utils.rng.rng_from_seed) and draw from it",
                )
