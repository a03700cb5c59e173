"""One cold process of a workload: set up, run the timed operation once,
check its outputs, print one JSON line.

``run.py`` starts this script as a fresh interpreter for every timed
repetition of ``build_tuned`` and ``sweep_acquire``, the way a user's
``repro jobs run`` / ``repro jobs sweep`` starts, and for every set-up
probe (``--mode probe``: set up, then exit before the timed operation).
The parent passes the monotonic time at which it started the process,
so ``setup_s`` covers interpreter start-up and imports.

Usage: cold.py --workload W --seed N --mode probe|run --trace 0|1
               --workdir DIR --spawned-at T
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

# The benchmark's own modules come first; the program's imports below
# are part of the cold set-up being timed.
from common import TRACE_DIR, WORLD_SEED, peak_rss_mb, reset_peak_rss, rmse
from layers import CHECK_SPAN
from spans import Tracer

CHECK_POINTS = 64  # lattice points sampled per artifact for the 1e-9 check
TOLERANCE = 1e-9


def check_artifact(artifact, rng) -> list:
    """REM lattice ≡ the fitted predictor's ``predict_points`` at 1e-9."""
    import numpy as np

    rem = artifact.rem
    predictor = artifact.result.predictor
    points = rem.grid.points()
    vocabulary = {mac: i for i, mac in enumerate(rem.mac_vocabulary)}
    macs = list(rem.macs)
    rows = rng.integers(0, len(points), CHECK_POINTS)
    picks = rng.integers(0, len(macs), CHECK_POINTS)
    expected = predictor.predict_points(
        points[rows], np.array([vocabulary[macs[p]] for p in picks])
    )
    served = np.array(
        [rem.field(macs[p]).ravel()[r] for p, r in zip(picks, rows)]
    )
    worst = float(np.max(np.abs(served - expected)))
    if not worst <= TOLERANCE:
        return [f"{artifact.digest[:12]}: REM differs from predict_points by {worst:g}"]
    return []


def map_rmse_db(rem, environment) -> float:
    """RMSE of a REM lattice against the world's true mean RSS."""
    macs = list(rem.macs)
    truth = environment.mean_rss_dbm_many(macs, rem.grid.points())
    return rmse(rem.field_tensor(macs).reshape(len(macs), -1) - truth)


class ArtifactChecks:
    """Checks each built artifact as the program hands it back.

    Only scalars and the digest are kept, so no artifact outlives the
    point where the program drops it.  The check's time is recorded per
    digest, to be taken out of the timed operation; the peak memory is
    read before the check and restarted after it.  The map error needs
    the world's true field over the whole lattice, so it is computed
    after the timed operation (:meth:`map_errors`), from the stored map.
    """

    def __init__(self, rng, tracer: Tracer):
        self.rng = rng
        self.tracer = tracer
        self.seconds: dict = {}  # digest -> time spent checking
        self.failures: list = []
        self.holdout: list = []
        self.cache_stats: list = []
        self.worlds: list = []  # (digest, environment), shared with the scenario cache
        self.peak_mb = 0.0

    def __call__(self, artifact) -> None:
        from repro.radio.scenario_cache import default_cache

        self.peak_mb = max(self.peak_mb, peak_rss_mb())
        start = time.perf_counter()
        with self.tracer.span(CHECK_SPAN), self.tracer.paused():
            self.cache_stats.append(default_cache().stats())
            self.failures += check_artifact(artifact, self.rng)
            self.holdout.append(artifact.provenance["test_rmse_dbm"])
            self.worlds.append((artifact.digest, artifact.result.scenario.environment))
        reset_peak_rss()
        self.seconds[artifact.digest] = time.perf_counter() - start

    def map_errors(self, store) -> list:
        """``map_rmse_db`` of every checked artifact, read back from ``store``."""
        return [map_rmse_db(store.load(d).rem, env) for d, env in self.worlds]


def sweep_jobset(seed: int):
    """The ``sweep_acquire`` grid: 2 worlds x 2 predictors x 2 acquisitions."""
    from repro.serve import JobSetSpec

    return JobSetSpec(
        scenarios=("condo", "office"),
        seeds=(WORLD_SEED,),
        predictors=("knn", "idw"),
        acquisitions=("active", "fleet"),
        base={"tune": False, "split_seed": seed},
    )


def _sweep_acquire(seed: int, store, checks: ArtifactChecks):
    """The inline sweep, each cell's artifact checked as the runner gets it."""
    import repro.serve.jobset as jobset_module

    run_job = vars(jobset_module)["run_job"]

    def checked_run_job(spec, store=None):
        artifact = run_job(spec, store)
        checks(artifact)
        return artifact

    jobset_module.run_job = checked_run_job
    try:
        return jobset_module.JobSetRunner(store, workers=0).run(sweep_jobset(seed))
    finally:
        jobset_module.run_job = run_job


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run"), required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    if args.workload == "serve_mixed":
        import serving

        handle = serving.set_up(args.workdir, args.seed)
        setup_s = time.monotonic() - args.spawned_at
        handle.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    from repro.radio.scenario_cache import default_cache
    from repro.serve import ArtifactStore

    store = ArtifactStore(args.workdir / "store")
    cache = default_cache()
    if store.count() or any(cache.stats().values()):
        raise SystemExit("cold start violated: store or scenario cache not empty")
    tracer = Tracer()
    if args.trace:
        from layers import install_build_layers

        install_build_layers(tracer)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checks = ArtifactChecks(np.random.default_rng(args.seed), tracer)
    start = time.perf_counter()
    with tracer.span("op"):
        if args.workload == "build_tuned":
            from repro.serve import RemJobSpec, run_job

            # The default spec on every seed: the tuned winner flips with
            # the train/test split (p=1 vs p=2), and with it peak memory
            # (958 vs 671 MB), so a seeded split would make every metric
            # bimodal.
            checks(run_job(RemJobSpec(), store))
            records = None
        else:
            records = _sweep_acquire(args.seed, store, checks).records
    wall_s = time.perf_counter() - start - sum(checks.seconds.values())
    peak = max(checks.peak_mb, peak_rss_mb())
    cache_stats = cache.stats()
    tracer.restore()

    # ---- outcomes (each artifact was checked as it was built) ---------
    failures = list(checks.failures)
    if records is None:
        ops_ms = [wall_s * 1e3]
        attempted = 1 + len(checks.holdout)
    else:
        ops_ms = [(r.wall_s - checks.seconds.get(r.digest, 0.0)) * 1e3 for r in records]
        attempted = len(records) + len(checks.holdout)
        failures += [f"cell {r.digest[:12]} {r.status}" for r in records if r.status != "built"]
    if not checks.cache_stats or checks.cache_stats[0]["campaign_builds"] < 1:
        failures.append("cold start violated: first build flew no campaign")
    holdout, maps = checks.holdout, checks.map_errors(store)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_ms": ops_ms,
        "peak_rss_mb": peak,
        "holdout_rmse_db": float(np.mean(holdout)) if holdout else float("nan"),
        "map_rmse_db": float(np.mean(maps)) if maps else float("nan"),
        "attempted": attempted,
        "failures": failures,
    }
    if args.trace:
        from layers import layer_metrics

        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        result["layers"] = layer_metrics(tracer, "op", cache_stats)
        result["trace_file"] = str(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
