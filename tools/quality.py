#!/usr/bin/env python3
"""Distributional quality harness: how good the maps and annotations are.

The benchmark (``perfbench/``) times one fixed world; this harness
measures *quality* over N seeded worlds, so that a change which moves
decisions (which tick runs, which waypoint a drone picks) can be judged
by the distribution it produces rather than by byte-identical pins.

For each seed ``s`` in ``1..N`` it builds:

* ``build``: ``RemJobSpec(seed=s)``, the default §III-B grid-search
  tuned k-NN lattice build;
* ``{condo,office}.{active,fleet}``: the four untuned k-NN cells of the
  benchmark sweep's grid (``RemJobSpec(scenario=..., seed=s,
  acquisition=..., tune=False)``);
* ``hover``: :func:`repro.uwb.evaluate_hovering_accuracy` with 6 TDoA
  anchors at the demo hover point, the paper's §II-B ~9 cm check, run
  ``HOVER_RUNS`` times a seed.  One run's mean error spreads about 9%
  between runs, so 10 runs would leave the mean's standard error near
  3% against a 5% bound; 100 runs bring it under 1%.

and reports, as ``mean / p50 / p95 / min / max``:

* ``annotation_error_cm``: the per-scan distance between the annotated
  (estimated) and true positions, pooled over every scan of every seed
  (all samples of one scan share one estimate);
* ``holdout_rmse_db`` and ``map_rmse_db``: the held-out RMSE and the
  lattice's RMSE against the world's true mean RSS, one value a seed;
* ``rmse_at_<w>wp_db``: for active and fleet cells, the online holdout
  RMSE once ``w`` waypoints are flown, one value a seed;
* ``hover.mean_error_cm`` / ``hover.p95_error_cm``: one value a run;

plus the tuned winner of each seed's default build.

Usage::

    PYTHONPATH=src python tools/quality.py --seeds 10 --out QUALITY.json
    PYTHONPATH=src python tools/quality.py --check QUALITY.json

``--check`` recomputes the report over the baseline's seeds and fails
(exit status 1) unless every metric's mean lies within
``bounds.mean_rel`` of the baseline's, every p95 within
``bounds.p95_rel``, and the tuned winner matches the baseline's on at
least ``bounds.winner_min_share`` of the seeds.  Every input is seeded,
so two runs of one commit report identical numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

#: The bounds a change must keep against the committed baseline.
BOUNDS = {"mean_rel": 0.05, "p95_rel": 0.10, "winner_min_share": 0.9}
#: The untuned sweep cells: (scenario, acquisition), k-NN.
CELLS = (
    ("condo", "active"),
    ("condo", "fleet"),
    ("office", "active"),
    ("office", "fleet"),
)
HOVER_ANCHORS = 6
HOVER_RUNS = 10
HOVER_POINT = (1.87, 1.6, 1.0)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``mean / p50 / p95 / min / max`` of a non-empty sample."""
    v = np.asarray(values, dtype=float)
    return {
        "n": int(v.size),
        "mean": float(v.mean()),
        "p50": float(np.percentile(v, 50)),
        "p95": float(np.percentile(v, 95)),
        "min": float(v.min()),
        "max": float(v.max()),
    }


def scan_errors_cm(log) -> List[float]:
    """Annotation error of each scan (its first sample), in cm."""
    errors = {}
    for sample, error in zip(log, log.annotation_error_m()):
        errors.setdefault((sample.uav_name, sample.waypoint_index), error)
    return [100.0 * e for e in errors.values()]


def map_rmse_db(rem, environment) -> float:
    """RMSE of a REM lattice against the world's true mean RSS."""
    macs = list(rem.macs)
    truth = environment.mean_rss_dbm_many(macs, rem.grid.points())
    error = rem.field_tensor(macs).reshape(len(macs), -1) - truth
    return float(np.sqrt(np.mean(error * error)))


def _measure(artifact, into: Dict[str, list], prefix: str) -> None:
    result = artifact.result
    into.setdefault(f"{prefix}.annotation_error_cm", []).extend(
        scan_errors_cm(result.campaign.log)
    )
    into.setdefault(f"{prefix}.holdout_rmse_db", []).append(
        artifact.provenance["test_rmse_dbm"]
    )
    into.setdefault(f"{prefix}.map_rmse_db", []).append(
        map_rmse_db(artifact.rem, result.scenario.environment)
    )
    trajectory = getattr(result.campaign, "rmse_trajectory", None)
    for waypoints, rmse in trajectory() if trajectory else ():
        if rmse is not None:
            into.setdefault(f"{prefix}.rmse_at_{waypoints}wp_db", []).append(rmse)


def report(seeds: Sequence[int]) -> dict:
    """Build every seed's jobs and summarize the quality metrics."""
    from repro.radio import build_demo_scenario
    from repro.radio.scenario_cache import default_cache
    from repro.serve import RemJobSpec, run_job
    from repro.uwb import LocalizationMode, corner_layout, evaluate_hovering_accuracy

    layout = corner_layout(build_demo_scenario().flight_volume).subset(HOVER_ANCHORS)
    values: Dict[str, list] = {}
    winners = []
    for seed in seeds:
        default_cache().clear()
        artifact = run_job(RemJobSpec(seed=seed))
        _measure(artifact, values, "build")
        winners.append(artifact.result.search.best_params)
        del artifact
        for scenario, acquisition in CELLS:
            spec = RemJobSpec(
                scenario=scenario, seed=seed, acquisition=acquisition, tune=False
            )
            _measure(run_job(spec), values, f"{scenario}.{acquisition}")
        for run in range(HOVER_RUNS):
            rng = np.random.default_rng([seed, run])
            hover = evaluate_hovering_accuracy(
                layout, LocalizationMode.TDOA, HOVER_POINT, rng
            )
            values.setdefault("hover.mean_error_cm", []).append(
                100 * hover.mean_error_m
            )
            values.setdefault("hover.p95_error_cm", []).append(100 * hover.p95_error_m)
    default_cache().clear()
    return {
        "seeds": list(seeds),
        "bounds": dict(BOUNDS),
        "metrics": {name: summarize(v) for name, v in sorted(values.items())},
        "tuned_winner": winners,
    }


def check(baseline: dict, current: dict) -> List[str]:
    """Every way ``current`` leaves the baseline's bounds, one line each."""
    bounds = baseline["bounds"]
    failures = []
    for name, base in baseline["metrics"].items():
        now = current["metrics"].get(name)
        if now is None:
            failures.append(f"{name}: missing")
            continue
        for stat, key in (("mean", "mean_rel"), ("p95", "p95_rel")):
            change = now[stat] / base[stat] - 1.0
            if abs(change) > bounds[key]:
                failures.append(
                    f"{name}: {stat} {base[stat]:.4f} -> {now[stat]:.4f} "
                    f"({change:+.1%}, bound {bounds[key]:.0%})"
                )
    for name in sorted(set(current["metrics"]) - set(baseline["metrics"])):
        failures.append(f"{name}: not in the baseline")
    same = sum(
        a == b for a, b in zip(baseline["tuned_winner"], current["tuned_winner"])
    )
    need = bounds["winner_min_share"] * len(baseline["tuned_winner"])
    if same < need:
        failures.append(
            f"tuned winner: same on {same} of {len(baseline['tuned_winner'])} seeds"
        )
    return failures


def table(baseline: dict, current: dict) -> str:
    """Markdown table of each metric's mean and p95, baseline → current."""
    rows = ["| metric | mean | Δ | p95 | Δ |", "|---|---|---|---|---|"]
    for name, base in baseline["metrics"].items():
        now = current["metrics"].get(name)
        if now is None:
            continue
        cells = []
        for stat in ("mean", "p95"):
            cells.append(f"{base[stat]:.3f} → {now[stat]:.3f}")
            cells.append(f"{now[stat] / base[stat] - 1:+.1%}")
        rows.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--out", type=Path, help="write the report here")
    parser.add_argument("--check", type=Path, help="compare with this baseline")
    args = parser.parse_args(argv)
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        current = report(baseline["seeds"])
    else:
        current = report(range(1, args.seeds + 1))
    from common import host_stamp

    current["host"] = host_stamp()
    text = json.dumps(current, indent=1, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    if args.check is None:
        if args.out is None:
            sys.stdout.write(text)
        return 0
    print(table(baseline, current))
    failures = check(baseline, current)
    for line in failures:
        print(f"FAIL {line}")
    print("quality: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
