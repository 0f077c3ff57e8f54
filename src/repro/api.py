"""The public front door: one policy registry, one simulate entry point.

Historically every caller — the CLI, the experiment runner, the benches,
the tests — kept its own dict of zero-argument policy-factory lambdas
and its own ``SimulationConfig(fast=...)`` plumbing. This module
replaces both:

- a **policy registry**: :func:`make_policy` constructs any bundled
  policy by name (with keyword overrides), :func:`list_policies`
  enumerates the names, :func:`policy_spec` exposes each policy's
  metadata (description, natural keep-alive window);
- a **simulate facade**: :func:`simulate` runs one policy over one
  trace on an explicitly chosen engine (``"auto"``/``"reference"``/
  ``"fast"``/``"fleet"``), optionally under a
  :class:`~repro.faults.plan.FaultPlan`, hiding the ``Simulation``/
  engine split (the ``SimulationConfig(fast=...)`` boolean is gone).

Factories registered here must be picklable (they fan out across the
experiment runner's process pools), which is why :func:`make_policy`
pairs with ``functools.partial`` instead of lambdas::

    from functools import partial
    policies = {name: partial(make_policy, name, resilient=True)
                for name in list_policies()}
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from repro.faults.isolation import ResilientPolicy
from repro.faults.plan import FaultPlan
from repro.models.variants import ModelFamily
from repro.obs.session import ObservabilityConfig
from repro.runtime.checkpoint import CheckpointConfig, SimulationState
from repro.runtime.metrics import RunResult
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.schema import Trace

__all__ = [
    "PolicySpec",
    "list_policies",
    "make_policy",
    "policy_spec",
    "register_policy",
    "run_sweep",
    "simulate",
]


@dataclass(frozen=True)
class PolicySpec:
    """Registry entry for one constructible policy.

    ``keep_alive_window`` is the schedule capacity the policy was
    designed for: 10 minutes for the fixed-window policies and PULSE,
    240 for the long-horizon predictors (Wild/IceBreaker plan whole
    4-hour windows) — running those under a 10-minute schedule would
    silently truncate their keep-alives.
    """

    name: str
    factory: Callable[..., KeepAlivePolicy]
    description: str
    keep_alive_window: int = 10


_REGISTRY: dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Add (or replace) a registry entry; returns it for chaining."""
    if not isinstance(spec, PolicySpec):
        raise TypeError(f"expected a PolicySpec, got {spec!r}")
    _REGISTRY[spec.name] = spec
    return spec


def list_policies() -> list[str]:
    """Sorted names of every registered policy."""
    return sorted(_REGISTRY)


def policy_spec(name: str) -> PolicySpec:
    """The registry entry for ``name`` (KeyError-free lookup with a
    helpful message)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {list_policies()}"
        ) from None


def make_policy(
    name: str, *, resilient: bool = False, **kwargs
) -> KeepAlivePolicy:
    """Construct a fresh policy instance by registry name.

    ``kwargs`` pass through to the policy's factory (e.g.
    ``make_policy("pulse", config=PulseConfig(threshold_scheme="T2"))``).
    ``resilient=True`` wraps the instance in
    :class:`~repro.faults.isolation.ResilientPolicy`, so a policy crash
    degrades the affected function instead of killing the run.
    """
    policy = policy_spec(name).factory(**kwargs)
    return ResilientPolicy(policy) if resilient else policy


# -- the bundled policies ---------------------------------------------------
# Factories are module-level functions (picklable, unlike lambdas) and
# import lazily: the registry must not drag scipy (MILP) or the sota
# predictors into `import repro.api`.

def _pulse(**kw):
    from repro.core.pulse import PulsePolicy

    return PulsePolicy(**kw)


def _pulse_t2(**kw):
    from repro.core.pulse import PulseConfig, PulsePolicy

    kw.setdefault("config", PulseConfig(threshold_scheme="T2"))
    return PulsePolicy(**kw)


def _openwhisk(**kw):
    from repro.baselines.openwhisk import OpenWhiskPolicy

    return OpenWhiskPolicy(**kw)


def _all_low(**kw):
    from repro.baselines.static import AllLowQualityPolicy

    return AllLowQualityPolicy(**kw)


def _random_mixed(**kw):
    from repro.baselines.static import RandomMixedPolicy

    return RandomMixedPolicy(**kw)


def _ideal(**kw):
    from repro.baselines.ideal import IdealOraclePolicy

    return IdealOraclePolicy(**kw)


def _wild(**kw):
    from repro.sota.wild import WildPolicy

    return WildPolicy(**kw)


def _icebreaker(**kw):
    from repro.sota.icebreaker import IceBreakerPolicy

    return IceBreakerPolicy(**kw)


def _wild_pulse(**kw):
    from repro.sota.integration import PulseIntegratedPolicy
    from repro.sota.wild import WildPolicy

    return PulseIntegratedPolicy(WildPolicy(), **kw)


def _icebreaker_pulse(**kw):
    from repro.sota.icebreaker import IceBreakerPolicy
    from repro.sota.integration import PulseIntegratedPolicy

    return PulseIntegratedPolicy(IceBreakerPolicy(), **kw)


def _milp(**kw):
    from repro.milp.policy import MilpPolicy

    return MilpPolicy(**kw)


for _spec in (
    PolicySpec("pulse", _pulse, "PULSE: mixed-quality keep-alive"),
    PolicySpec("pulse-t2", _pulse_t2, "PULSE with the T2 threshold scheme"),
    PolicySpec("openwhisk", _openwhisk,
               "fixed 10-minute highest-variant keep-alive"),
    PolicySpec("all-low", _all_low, "fixed keep-alive, lowest variants"),
    PolicySpec("random-mixed", _random_mixed,
               "fixed keep-alive, random variant per function"),
    PolicySpec("ideal", _ideal, "oracle: warm exactly at invocation minutes"),
    PolicySpec("wild", _wild,
               "Serverless-in-the-Wild hybrid histogram", 240),
    PolicySpec("icebreaker", _icebreaker,
               "IceBreaker FFT harmonic forecasting", 240),
    PolicySpec("wild+pulse", _wild_pulse,
               "PULSE variant selection inside Wild windows", 240),
    PolicySpec("icebreaker+pulse", _icebreaker_pulse,
               "PULSE variant selection inside IceBreaker windows", 240),
    PolicySpec("milp", _milp, "MILP comparator (scipy/HiGHS)"),
):
    register_policy(_spec)
del _spec


# -- the simulate facade ----------------------------------------------------
def simulate(
    trace: Trace,
    *,
    assignment: dict[int, ModelFamily],
    policy: KeepAlivePolicy | str,
    config: SimulationConfig | None = None,
    engine: str = "auto",
    faults: FaultPlan | str | None = None,
    observe: bool | ObservabilityConfig | None = None,
    checkpoint: CheckpointConfig | str | Path | None = None,
    resume_from: SimulationState | str | Path | None = None,
) -> RunResult:
    """Run one policy over one trace and return its metrics.

    - ``policy`` — a :class:`~repro.runtime.policy.KeepAlivePolicy`
      instance, or a registry name (constructed fresh via
      :func:`make_policy`, at the policy's natural keep-alive window
      unless ``config`` overrides it);
    - ``engine`` — ``"auto"`` (fast unless the config needs the
      reference cadence), ``"reference"``, ``"fast"``, or ``"fleet"``
      (the columnar fleet-scale kernel, see
      :mod:`repro.runtime.fleet`);
    - ``faults`` — a :class:`~repro.faults.plan.FaultPlan` or a compact
      spec string (``"spawn=0.1,pressure=0.05,pressure-mb=4000"``),
      overriding ``config.faults``;
    - ``observe`` — ``True`` or an
      :class:`~repro.obs.session.ObservabilityConfig` (e.g. with
      ``trace_sample`` set for fleet runs), overriding
      ``config.observe``; the run then carries an
      :class:`~repro.obs.session.ObsSession` on ``result.obs``;
    - ``checkpoint`` — a
      :class:`~repro.runtime.checkpoint.CheckpointConfig`, or just a
      path (checkpointed there at the default cadence): the engine
      periodically snapshots its complete state, crash-safely;
    - ``resume_from`` — a saved
      :class:`~repro.runtime.checkpoint.SimulationState` (or its path):
      continue an interrupted run from the snapshot, bit-identically to
      never having stopped. Must be paired with the same
      trace/assignment/policy/config that produced it.

    Every engine produces bit-identical metrics (fault-free and under
    any fixed fault plan), so ``engine`` is purely a speed knob.

    All arguments past ``trace`` are keyword-only (the whole ``repro.api``
    facade is — RPR007 — so call sites stay greppable and reorderable).

    Every call runs through :meth:`Simulation.run` and so through the
    one batch driver (:mod:`repro.runtime.driver`) that
    :meth:`repro.serve.session.ControlSession.replay` also uses — plain,
    checkpointed and resumed runs alike, on every engine — so the batch
    facade and the serving layer cannot diverge.
    """
    cfg = config if config is not None else SimulationConfig()
    if isinstance(policy, str):
        spec = policy_spec(policy)
        if config is None and spec.keep_alive_window != cfg.keep_alive_window:
            cfg = replace(cfg, keep_alive_window=spec.keep_alive_window)
        policy = spec.factory()
    if faults is not None:
        if isinstance(faults, str):
            faults = FaultPlan.from_spec(faults)
        cfg = replace(cfg, faults=faults)
    if observe is not None:
        cfg = replace(cfg, observe=observe)
    if isinstance(checkpoint, (str, Path)):
        checkpoint = CheckpointConfig(path=checkpoint)
    return Simulation(trace, assignment, policy, cfg).run(
        engine=engine,
        checkpoint=checkpoint,
        resume_from=resume_from,
    )


def run_sweep(
    trace: Trace,
    *,
    policies: list[str],
    config=None,
    durable: bool = False,
    out_dir: str | Path | None = None,
    resume: str | Path | None = None,
    durable_config=None,
    zoo=None,
    ingest=None,
    resilient: bool = False,
    on_error: str = "record",
    sweep_config_extra=None,
):
    """Run every named policy over the same sampled assignments.

    The in-process path (``durable=False``, the default) wraps
    :func:`repro.experiments.runner.run_policies` with crash-isolating
    ``on_error="record"`` semantics and returns its
    ``{policy: [RunResult | RunError]}`` dict.

    ``durable=True`` switches to the durable executor
    (:func:`repro.experiments.durable.run_durable_sweep`): one process
    per run, per-attempt timeouts, bounded jittered retries, engine
    checkpoints, and a crash-safe ``out_dir/manifest.json`` — returning
    a :class:`~repro.experiments.durable.SweepResult`. ``resume`` takes
    a previous sweep's manifest path and continues it (``out_dir``
    defaults to the manifest's directory).

    ``config`` is an :class:`~repro.experiments.runner.ExperimentConfig`
    (defaults apply when ``None``); ``durable_config`` a
    :class:`~repro.experiments.durable.DurableSweepConfig`.
    """
    from functools import partial

    from repro.experiments.durable import run_durable_sweep
    from repro.experiments.manifest import RunManifest
    from repro.experiments.runner import ExperimentConfig, run_policies

    cfg = config if config is not None else ExperimentConfig()
    for name in policies:
        policy_spec(name)  # fail fast on unknown names
    if not durable:
        if (
            out_dir is not None
            or resume is not None
            or durable_config is not None
            or sweep_config_extra is not None
        ):
            raise ValueError(
                "out_dir/resume/durable_config/sweep_config_extra "
                "require durable=True"
            )
        factories = {
            name: partial(make_policy, name, resilient=resilient)
            for name in policies
        }
        return run_policies(trace, factories, cfg, zoo, on_error=on_error)
    manifest = None
    if resume is not None:
        manifest = RunManifest.load(resume)
        if out_dir is None:
            out_dir = Path(resume).parent
    if out_dir is None:
        raise ValueError("durable=True requires out_dir (or resume)")
    return run_durable_sweep(
        trace,
        policies,
        cfg,
        out_dir=out_dir,
        durable=durable_config,
        resume=manifest,
        zoo=zoo,
        ingest=ingest,
        resilient=resilient,
        sweep_config_extra=sweep_config_extra,
    )
