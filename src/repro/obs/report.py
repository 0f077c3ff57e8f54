"""Self-contained HTML run report with inline SVG charts.

One run, one file, no dependencies: the report embeds
:mod:`repro.utils.svgplot` SVGs directly, so it renders anywhere a
browser opens a local file (including as a CI artifact). Sections are
included only when the run carried the data for them:

- headline summary table (always);
- memory-over-time line chart (when ``record_series`` was on);
- warm/cold/forced-downgrade bar chart;
- span-phase timing bar chart (when spans were enabled);
- a fleet telemetry section (when the run carried a
  :class:`~repro.obs.fleet.FleetObsSession`): serving totals and the
  serve/observe/plan phase timings, run throughput, and the memory /
  valve / downgrade timeline from the columnar partials;
- decision-record tally and flat metrics table (when the respective
  observability layers were enabled).

``RunResult`` is consumed duck-typed — this module must not import
``repro.runtime`` (see :mod:`repro.obs.export` for why).
"""

from __future__ import annotations

from html import escape
from pathlib import Path

from repro.obs.fleet import FleetObsSession
from repro.utils import svgplot
from repro.utils.atomicio import atomic_write_text

__all__ = ["render_run_report", "save_run_report"]

_STYLE = """
body { font-family: sans-serif; margin: 2em auto; max-width: 72em;
       color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: left;
         font-size: 0.9em; }
th { background: #f2f2f2; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
figure { margin: 0.8em 0; }
.note { color: #666; font-size: 0.85em; }
"""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(rows: list[tuple[str, object]], headers: tuple[str, str]) -> str:
    cells = "".join(
        f"<tr><td>{escape(str(k))}</td>"
        f'<td class="num">{escape(_fmt(v))}</td></tr>'
        for k, v in rows
    )
    return (
        f"<table><tr><th>{escape(headers[0])}</th>"
        f"<th>{escape(headers[1])}</th></tr>{cells}</table>"
    )


def _fleet_section(result, obs: FleetObsSession) -> list[str]:
    """The fleet-only report section: serving totals and phase timings,
    throughput, and the memory / valve / downgrade timeline from the
    columnar partials."""
    parts: list[str] = ["<h2>Fleet telemetry</h2>"]

    wall = float(result.wall_clock_s)
    throughput = result.n_invocations / wall if wall > 0 else 0.0
    minutes_per_s = obs.horizon / wall if wall > 0 else 0.0
    tree = obs.spans.tree() if obs.spans_enabled and obs.spans else {}
    phase_ms = [
        (f"{phase} ms", tree[phase]["seconds"] * 1e3)
        for phase in ("serve", "observe", "plan")
        if phase in tree
    ]
    parts.append(
        _table(
            [
                ("functions", obs.n_functions),
                ("invocations", result.n_invocations),
                ("cold starts", result.n_cold),
                ("sampled decision traces", int(obs.sample_fids.size)),
                ("memory peaks", obs.n_peaks),
                ("throughput (invocations/s)", throughput),
                ("simulated minutes/s", minutes_per_s),
                *phase_ms,
            ],
            ("fleet", "value"),
        )
    )

    reduce_phases = tree.get("reduce", {}).get("children", {})
    if reduce_phases:
        parts.append("<figure>")
        parts.append(
            svgplot.bar_chart(
                {
                    name: node["seconds"] * 1e3
                    for name, node in sorted(reduce_phases.items())
                },
                title="Reducer wall-clock per phase", ylabel="ms",
            )
        )
        parts.append("</figure>")

    parts.append("<h2>Fleet memory and valve timeline</h2><figure>")
    parts.append(
        svgplot.line_chart(
            {"committed MB": obs.mem_series},
            title="Committed keep-alive memory", xlabel="minute",
            ylabel="MB",
        )
    )
    parts.append("</figure>")
    if obs.valve_series.any() or obs.downgrade_series.any():
        parts.append("<figure>")
        parts.append(
            svgplot.line_chart(
                {
                    "valve victims": obs.valve_series,
                    "downgrades": obs.downgrade_series,
                },
                title="Capacity-valve victims and downgrades per minute",
                xlabel="minute", ylabel="count",
            )
        )
        parts.append("</figure>")
    else:
        parts.append(
            '<p class="note">No capacity-valve victims or Algorithm-2 '
            "downgrades this run.</p>"
        )
    return parts


def render_run_report(result, title: str | None = None) -> str:
    """Render ``result`` (a duck-typed ``RunResult``) as an HTML page."""
    obs = result.obs
    has_obs = obs is not None and obs.enabled
    name = title or f"Run report — {result.policy_name}"
    parts: list[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{escape(name)}</title><style>{_STYLE}</style></head><body>",
        f"<h1>{escape(name)}</h1>",
    ]

    # -- headline summary ----------------------------------------------------
    parts.append("<h2>Summary</h2>")
    parts.append(_table(sorted(result.summary().items()), ("field", "value")))

    # -- memory over time ----------------------------------------------------
    if result.memory_series_mb is not None and len(result.memory_series_mb):
        series = {"committed": result.memory_series_mb}
        if (
            result.ideal_memory_series_mb is not None
            and len(result.ideal_memory_series_mb)
        ):
            series["ideal"] = result.ideal_memory_series_mb
        parts.append("<h2>Keep-alive memory over time</h2><figure>")
        parts.append(
            svgplot.line_chart(
                series, title="Keep-alive memory", xlabel="minute",
                ylabel="MB",
            )
        )
        parts.append("</figure>")

    # -- start/downgrade counts ----------------------------------------------
    parts.append("<h2>Starts and downgrades</h2><figure>")
    parts.append(
        svgplot.bar_chart(
            {
                "warm": float(result.n_warm),
                "cold": float(result.n_cold),
                "forced dg": float(result.n_forced_downgrades),
            },
            title="Invocation outcomes", ylabel="count",
        )
    )
    parts.append("</figure>")

    # -- span phases ---------------------------------------------------------
    if has_obs and obs.spans_enabled and obs.spans:
        phase_ms = {
            phase: obs.spans.seconds(phase) * 1e3 for phase in obs.spans.phases
        }
        parts.append("<h2>Phase timings</h2><figure>")
        parts.append(
            svgplot.bar_chart(
                phase_ms, title="Wall-clock per phase", ylabel="ms",
            )
        )
        parts.append("</figure>")
        parts.append(
            _table(
                [
                    (phase, f"{obs.spans.seconds(phase) * 1e3:.3f} ms / "
                            f"{obs.spans.count(phase)} samples")
                    for phase in obs.spans.phases
                ],
                ("phase", "total / samples"),
            )
        )

    # -- fleet telemetry -----------------------------------------------------
    if has_obs and isinstance(obs, FleetObsSession):
        parts.extend(_fleet_section(result, obs))

    # -- decision records ----------------------------------------------------
    if has_obs and obs.decisions_enabled:
        tally: dict[str, int] = {}
        for rec in obs.records:
            tally[rec["kind"]] = tally.get(rec["kind"], 0) + 1
        parts.append("<h2>Decision trace</h2>")
        if tally:
            parts.append(_table(sorted(tally.items()), ("record kind", "count")))
        else:
            parts.append('<p class="note">No decision records.</p>')
        parts.append(
            '<p class="note">Dump with <code>--trace-out run.jsonl</code> '
            "and query with <code>python -m repro inspect run.jsonl</code>."
            "</p>"
        )

    # -- flat metrics --------------------------------------------------------
    if has_obs and obs.metrics_enabled:
        flat = obs.metrics.as_flat_dict()
        if flat:
            parts.append("<h2>Metrics</h2>")
            parts.append(_table(sorted(flat.items()), ("series", "value")))

    if not has_obs:
        parts.append(
            '<p class="note">Observability was disabled for this run; '
            "phase timings, decision traces and metrics are unavailable. "
            "Re-run with <code>--observe</code>.</p>"
        )
    parts.append("</body></html>")
    return "\n".join(parts)


def save_run_report(result, path, title: str | None = None) -> Path:
    """Render and write the report; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, render_run_report(result, title=title))
    return path
