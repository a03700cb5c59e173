"""Shared pieces of the benchmark: metric catalogue, statistics, host stamp.

Every module of the benchmark imports the metric names from here, so the
names printed by ``run.py`` and the names declared in ``BENCHMARK.json``
come from one list (``tests/test_perfbench.py`` pins the two together).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Dict, Sequence

#: Repository root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of a run (stores, scenario-cache tiers), removed at exit.
WORK_DIR = ROOT / ".perfbench" / "work"
#: Where traced runs leave their span files.
TRACE_DIR = ROOT / ".perfbench" / "traces"

WORKLOADS = ("build_tuned", "sweep_acquire", "serve_mixed")

#: ``sweep_acquire`` flies the ``RemJobSpec`` default world and takes only
#: its train/test split from ``--seed``, so each run does the same amount
#: of work: with seeded worlds the number of APs, and with it the tuned
#: build's time, moved between 13 s and 27 s.
WORLD_SEED = 63

#: p99 limit (ms) a ladder step of ``serve_mixed`` must meet to count
#: towards ``loadgen.max_rate_rps``; ``BENCHMARK.json`` states it too.
P99_LIMIT_MS = 50.0

#: End-to-end metrics (printed with ``--trace 0``), name -> unit.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "holdout_rmse_db": "dB",
    "map_rmse_db": "dB",
}

#: Predictor methods the traced run wraps, one metric pair each.
PREDICTOR_METHODS = ("fit", "predict", "predict_points", "partial_fit")
#: Request types the service reduces, one span each.
REDUCE_KINDS = ("query", "strongest_ap", "coverage", "dark_regions")

#: Per-layer metrics (printed with ``--trace 1``), name -> unit.  Layers
#: a workload does not exercise report 0.
LAYER_METRICS: Dict[str, str] = {
    "radio.scenario.busy_s": "s",
    "radio.cache.campaign_hit_ratio": "ratio",
    "station.campaign.busy_s": "s",
    "station.campaign.self_s": "s",
    "station.campaign.samples": "count",
    "station.campaign.waypoints": "count",
    "station.online.add_scan.busy_s": "s",
    "station.online.uncertainty.busy_s": "s",
    "station.online.incremental_ratio": "ratio",
    "station.fleet.plan.busy_s": "s",
    "uwb.ekf.update_tdoa_stacked.calls": "count",
    "uwb.ekf.update_tdoa_stacked.busy_s": "s",
    "uwb.ekf.predict.calls": "count",
    "uwb.ekf.predict.busy_s": "s",
    "uwb.ranging.measure_stacked.calls": "count",
    "uwb.ranging.measure_stacked.busy_s": "s",
    "wifi.scan.calls": "count",
    "wifi.scan.busy_s": "s",
    "wifi.scan.samples_per_scan": "count",
    "core.preprocess.busy_s": "s",
    "core.preprocess.retained_ratio": "ratio",
    "core.predictors.grid_search.busy_s": "s",
    **{
        f"core.predictors.{method}.{stat}": unit
        for method in PREDICTOR_METHODS
        for stat, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "core.rem.build_rem.busy_s": "s",
    "core.rem.build_uncertainty_rem.busy_s": "s",
    "core.rem.lattice_cells": "count",
    "serve.artifact.save.busy_s": "s",
    "serve.artifact.save.bytes": "bytes",
    "serve.artifact.load.calls": "count",
    "serve.artifact.load.busy_s": "s",
    "serve.jobset.cell_s": "s",
    "serve.jobset.self_s": "s",
    "serve.service.parse.busy_s": "s",
    "serve.service.lookup.busy_s": "s",
    "serve.service.lru_hit_ratio": "ratio",
    "serve.service.evictions": "count",
    **{f"serve.service.reduce.{kind}.busy_s": "s" for kind in REDUCE_KINDS},
    "serve.service.encode.busy_s": "s",
    "serve.service.encode.bytes": "bytes",
    "serve.service.submit.busy_s": "s",
    "serve.http.self_s": "s",
    "loadgen.lag_ms": "ms",
    "loadgen.backlog": "count",
    "loadgen.max_rate_rps": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of a non-empty sequence."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def rmse(errors) -> float:
    """Root mean square of an array of errors."""
    import numpy as np

    errors = np.asarray(errors, dtype=float)
    return float(np.sqrt(np.mean(errors * errors)))


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process since start or the last reset (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Restart the peak at the current resident memory (Linux 4.0+).

    The benchmark checks each sweep artifact as it is built and then
    resets the peak, so the check's own arrays never count.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    return f"{os.cpu_count()} (library default: one per core)"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unavailable (no git)"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unavailable (not a git checkout)"


def host_stamp() -> Dict[str, object]:
    """What a result depends on besides the code: cores, BLAS, versions."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


def child_env() -> Dict[str, str]:
    """Environment for cold child processes.

    ``src`` and the benchmark go on the path; the scenario-cache switches
    are dropped, so no child inherits a warm disk tier or runs uncached.
    """
    env = dict(os.environ)
    env.pop("REPRO_SCENARIO_CACHE", None)
    env.pop("REPRO_SCENARIO_CACHE_DIR", None)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
