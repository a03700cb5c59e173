"""ASCII rendering of the reproduced figures, tables and sweep reports.

The benches print these so that a terminal run of the benchmark suite
shows the same series the paper plots.  The sweep-report half
(:func:`artifact_rows`, :func:`group_stats`, :func:`render_sweep_report`)
is the raw→CSV→figures stage behind ``repro report``: it aggregates the
provenance sidecars of an :class:`~repro.serve.ArtifactStore` into tidy
rows — no artifact tensors are loaded and nothing is re-simulated.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "bar_chart",
    "table",
    "render_figure5",
    "render_figure7",
    "render_figure8",
    "SWEEP_COLUMNS",
    "artifact_rows",
    "group_stats",
    "stage_stats",
    "render_sweep_report",
]


def bar_chart(
    items: Mapping[str, float],
    width: int = 48,
    unit: str = "",
    precision: int = 2,
) -> str:
    """Horizontal ASCII bar chart, one row per item."""
    if not items:
        return "(empty)"
    max_value = max(max(items.values()), 1e-12)
    label_width = max(len(k) for k in items)
    lines = []
    for label, value in items.items():
        bar = "#" * int(round(width * value / max_value))
        lines.append(f"{label:<{label_width}} | {bar} {value:.{precision}f}{unit}")
    return "\n".join(lines)


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    out = []
    for r, row in enumerate(cells):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


#: Tidy-row column order of :func:`artifact_rows` (and the CSV header).
SWEEP_COLUMNS = (
    "digest",
    "scenario",
    "seed",
    "predictor",
    "acquisition",
    "resolution_m",
    "dtype",
    "samples",
    "retained_samples",
    "test_rmse_dbm",
    "n_macs",
    "wall_time_s",
)


def artifact_rows(records: Sequence[Mapping[str, object]]) -> List[Dict[str, object]]:
    """Tidy rows (one dict per artifact) from store sidecar records.

    ``records`` is what :meth:`~repro.serve.ArtifactStore.list` returns;
    each row carries the :data:`SWEEP_COLUMNS` drawn from the sidecar's
    spec and provenance — everything the report stage needs without
    loading a single tensor.  Rows come back sorted by
    (scenario, predictor, acquisition, resolution, seed, digest) so
    CSV output is deterministic regardless of store iteration order.
    """
    rows = []
    for record in records:
        spec = record.get("spec", {})
        provenance = record.get("provenance", {})
        rows.append(
            {
                "digest": record.get("digest", ""),
                "scenario": spec.get("scenario", ""),
                "seed": spec.get("seed"),
                "predictor": spec.get("predictor", ""),
                "acquisition": spec.get("acquisition", ""),
                "resolution_m": spec.get("resolution_m"),
                "dtype": record.get("dtype", ""),
                "samples": provenance.get("samples"),
                "retained_samples": provenance.get("retained_samples"),
                "test_rmse_dbm": provenance.get("test_rmse_dbm"),
                "n_macs": provenance.get("n_macs"),
                "wall_time_s": provenance.get("wall_time_s"),
            }
        )
    rows.sort(
        key=lambda r: (
            str(r["scenario"]),
            str(r["predictor"]),
            str(r["acquisition"]),
            float(r["resolution_m"] or 0.0),
            int(r["seed"] or 0),
            str(r["digest"]),
        )
    )
    return rows


def group_stats(
    rows: Sequence[Mapping[str, object]],
    by: str,
    value: str = "test_rmse_dbm",
) -> Dict[str, Dict[str, float]]:
    """Mean/std/min/max/n of ``value`` grouped by the ``by`` column.

    Rows whose ``value`` is missing (``None``) are dropped from their
    group; a group with no usable rows is omitted entirely.  Groups
    come back sorted by key.
    """
    groups: Dict[str, List[float]] = {}
    for row in rows:
        raw = row.get(value)
        if raw is None:
            continue
        groups.setdefault(str(row.get(by, "")), []).append(float(raw))
    stats = {}
    for key in sorted(groups):
        values = groups[key]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        stats[key] = {
            "mean": mean,
            "std": math.sqrt(var),
            "min": min(values),
            "max": max(values),
            "n": float(len(values)),
        }
    return stats


def stage_stats(
    records: Sequence[Mapping[str, object]],
) -> Dict[str, Dict[str, float]]:
    """Aggregate per-stage build wall times across store sidecars.

    Sums the ``provenance["stage_wall_s"]`` breakdowns that
    :func:`repro.serve.jobs.run_job` records (scenario / campaign /
    preprocess / fit / score / rem / uncertainty, via
    :class:`repro.perf.StageTimer`) into ``{stage: {total_s, mean_s,
    n}}``, sorted by descending total.  Artifacts built before the
    breakdown existed are skipped; an empty dict means no record
    carries one.
    """
    totals: Dict[str, List[float]] = {}
    for record in records:
        provenance = record.get("provenance", {})
        breakdown = provenance.get("stage_wall_s")
        if not isinstance(breakdown, Mapping):
            continue
        for stage, seconds in breakdown.items():
            totals.setdefault(str(stage), []).append(float(seconds))
    stats = {
        stage: {
            "total_s": sum(values),
            "mean_s": sum(values) / len(values),
            "n": float(len(values)),
        }
        for stage, values in totals.items()
    }
    return dict(
        sorted(stats.items(), key=lambda kv: -kv[1]["total_s"])
    )


def render_sweep_report(
    rows: Sequence[Mapping[str, object]],
    by: str = "predictor",
    value: str = "test_rmse_dbm",
    title: Optional[str] = None,
) -> str:
    """Markdown sweep report: stats table plus an ASCII mean-value chart.

    This is the "figures" stage of raw→CSV→figures: ``rows`` are tidy
    :func:`artifact_rows`, the rendered report groups them by ``by``
    (predictor-vs-RMSE in the default configuration).
    """
    heading = title or f"Sweep report — {value} by {by}"
    lines = [f"# {heading}", ""]
    lines.append(f"{len(rows)} artifact(s)")
    lines.append("")
    stats = group_stats(rows, by=by, value=value)
    if not stats:
        lines.append(f"(no rows carry {value!r})")
        return "\n".join(lines)
    lines.append("```")
    lines.append(
        table(
            [by, "n", "mean", "std", "min", "max"],
            [
                [
                    key,
                    int(s["n"]),
                    f"{s['mean']:.4f}",
                    f"{s['std']:.4f}",
                    f"{s['min']:.4f}",
                    f"{s['max']:.4f}",
                ]
                for key, s in stats.items()
            ],
        )
    )
    lines.append("```")
    lines.append("")
    lines.append(f"mean {value} by {by}:")
    lines.append("")
    lines.append("```")
    lines.append(
        bar_chart({key: s["mean"] for key, s in stats.items()}, precision=4)
    )
    lines.append("```")
    return "\n".join(lines)


def render_figure5(result) -> str:
    """Fig. 5 as a table: rows = radio settings, columns = channels."""
    channels = result.channels_with_detections()
    headers = ["setting"] + [f"ch{c}" for c in channels] + ["total"]
    rows = []
    for label, counts in result.series.items():
        rows.append(
            [label]
            + [f"{counts.get(c, 0.0):.1f}" for c in channels]
            + [f"{sum(counts.values()):.1f}"]
        )
    return table(headers, rows)


def render_figure7(result) -> str:
    """Fig. 7 as two ASCII histograms."""
    out = ["samples per 0.5 m bin along x:"]
    x_edges = result.x_histogram.edges
    x_items = {
        f"[{x_edges[i]:.1f},{x_edges[i+1]:.1f})": float(c)
        for i, c in enumerate(result.x_histogram.counts)
    }
    out.append(bar_chart(x_items, precision=0))
    out.append("samples per 0.5 m bin along y:")
    y_edges = result.y_histogram.edges
    y_items = {
        f"[{y_edges[i]:.1f},{y_edges[i+1]:.1f})": float(c)
        for i, c in enumerate(result.y_histogram.counts)
    }
    out.append(bar_chart(y_items, precision=0))
    return "\n".join(out)


def render_figure8(result) -> str:
    """Fig. 8 as a bar chart plus the paper's reference values."""
    lines = [bar_chart(result.rmse_dbm, unit=" dBm", precision=4)]
    lines.append("")
    lines.append("paper reference values:")
    for name, value in result.paper_rmse_dbm.items():
        lines.append(f"  {name}: {value:.4f} dBm")
    return "\n".join(lines)
