"""BENCH-LOADGEN — the multi-process serving path under real load.

Drives :class:`repro.serve.RemCluster` (pre-forked workers over one
shared port, mmap-shared ``npy`` artifacts) with the keep-alive load
generator in :mod:`repro.serve.loadgen`:

* a (workers × batch-size) closed-loop sweep recording throughput AND
  p50/p95/p99 latency per point — the honest per-request numbers;
* a pipelined peak run — the round-trips/s headline, asserted (full
  mode) at >= 10x the pre-cluster stdlib baseline recorded in
  ``BENCH_service.json``;
* per-worker RSS at each worker count: mmap page sharing means adding
  workers must not multiply resident artifact memory;
* a 2-worker >= 1.5x single-worker scaling gate (only where the box
  actually has >= 2 CPUs — kernel accept balancing cannot beat physics
  on one core).

Emits ``BENCH_loadgen.json`` at the repo root.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import ArtifactStore, RemCluster, RemJobSpec, run_job
from repro.serve.loadgen import HttpLoadClient, run_closed_loop, run_pipelined

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
CPUS = os.cpu_count() or 1

#: Full-mode ``http_round_trips_per_s`` of the single-process stdlib
#: server before this harness existed (BENCH_service.json at the
#: cluster's introduction) — the 10x target's denominator.
BASELINE_RT_PER_S = 503.327

WORKER_COUNTS = [1, 2] if QUICK else [1, 2, 4]
BATCH_SIZES = [1, 8] if QUICK else [1, 8, 64]
CONNECTIONS = 2 if QUICK else 4
REQUESTS_PER_CONNECTION = 50 if QUICK else 300
PIPELINE_DEPTH = 16 if QUICK else 32
PIPELINE_REQUESTS = 600 if QUICK else 4000
PIPELINE_REPEATS = 1 if QUICK else 3

_RECORD: dict = {
    "quick": QUICK,
    "cpu_count": CPUS,
    "baseline_http_round_trips_per_s": BASELINE_RT_PER_S,
    "closed_loop": [],
    "rss_by_workers": {},
}


@pytest.fixture(scope="module")
def spec():
    return RemJobSpec(
        acquisition="active",
        active={
            "seed_waypoints": 8,
            "batch_size": 8,
            "budget_waypoints": 8 if QUICK else 24,
        },
        tune=False,
        min_samples_per_mac=2 if QUICK else 4,
        resolution_m=0.5 if QUICK else 0.25,
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("loadgen-store"))


@pytest.fixture(scope="module")
def artifact(spec, store):
    t0 = time.perf_counter()
    built = run_job(spec, store)
    _RECORD["build_wall_s"] = time.perf_counter() - t0
    _RECORD["n_macs"] = len(built.rem.macs)
    _RECORD["rem_shape"] = list(built.rem.grid.shape)
    return built


def query_bodies(artifact, batch_size, n_bodies=16, seed=13):
    """Pre-encoded query bodies with ``batch_size`` points each."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(artifact.rem.grid.volume.min_corner)
    hi = np.asarray(artifact.rem.grid.volume.max_corner)
    bodies = []
    for _ in range(n_bodies):
        points = rng.uniform(lo, hi, size=(batch_size, 3)).round(4)
        bodies.append(
            json.dumps({"type": "query", "points": points.tolist()}).encode()
        )
    return bodies


def query_path(artifact):
    return f"/v1/artifacts/{artifact.digest}/query"


def warm_up(cluster, artifact):
    """Touch every worker's LRU/page cache before measuring."""
    run_closed_loop(
        cluster.address,
        query_path(artifact),
        query_bodies(artifact, 1, n_bodies=4),
        connections=max(2, cluster.workers),
        requests_per_connection=10,
    )


def test_served_answers_match_direct(store, artifact):
    """Gate first: cluster answers ≡ the direct REM at 1e-9."""
    bodies = query_bodies(artifact, 4, n_bodies=3)
    with RemCluster(store.root, workers=2) as cluster:
        with HttpLoadClient(cluster.address) as client:
            for body in bodies:
                status, raw = client.post(query_path(artifact), body)
                assert status == 200
                payload = json.loads(raw)
                points = json.loads(body)["points"]
                direct = artifact.rem.query_many(points)
                np.testing.assert_allclose(
                    np.asarray(payload["values"]), direct, atol=1e-9
                )


def test_closed_loop_sweep(store, artifact):
    """Throughput + latency percentiles over (workers × batch size)."""
    for workers in WORKER_COUNTS:
        with RemCluster(store.root, workers=workers) as cluster:
            warm_up(cluster, artifact)
            for batch in BATCH_SIZES:
                result = run_closed_loop(
                    cluster.address,
                    query_path(artifact),
                    query_bodies(artifact, batch),
                    connections=CONNECTIONS,
                    requests_per_connection=REQUESTS_PER_CONNECTION,
                )
                assert result.errors == 0
                entry = {
                    "workers": workers,
                    "batch_size": batch,
                    **result.to_dict(),
                    "points_per_s": result.throughput_rps * batch,
                }
                _RECORD["closed_loop"].append(entry)
                print(
                    f"\nworkers={workers} batch={batch}: "
                    f"{result.throughput_rps:.0f} rt/s "
                    f"p50={result.latency_ms['p50']:.2f}ms "
                    f"p99={result.latency_ms['p99']:.2f}ms"
                )
            rss = [v for v in cluster.worker_rss().values() if v]
            if rss:
                _RECORD["rss_by_workers"][str(workers)] = {
                    "mean_bytes": float(np.mean(rss)),
                    "max_bytes": float(max(rss)),
                }


def test_batch_queries_amortize_round_trips(store, artifact):
    """Point throughput must grow with batch size (fewer round trips)."""
    rows = _RECORD["closed_loop"]
    assert rows, "closed-loop sweep must run first"
    for workers in WORKER_COUNTS:
        mine = {r["batch_size"]: r for r in rows if r["workers"] == workers}
        small, large = min(mine), max(mine)
        gain = mine[large]["points_per_s"] / mine[small]["points_per_s"]
        print(f"\nworkers={workers}: batch {large} vs {small} = {gain:.1f}x points/s")
        assert gain >= 2.0, (
            f"batch={large} should amortize round trips over batch={small}, "
            f"got only {gain:.2f}x points/s"
        )


def test_worker_rss_stays_flat_with_mmap(store, artifact):
    """Adding workers must not multiply resident artifact memory."""
    rss = _RECORD["rss_by_workers"]
    if len(rss) < 2:
        pytest.skip("no /proc RSS readings on this platform")
    means = {int(k): v["mean_bytes"] for k, v in rss.items()}
    low, high = means[min(means)], means[max(means)]
    ratio = high / low
    print(f"\nmean worker RSS {min(means)}w -> {max(means)}w: {ratio:.3f}x")
    # mmap page sharing: per-worker RSS flat (±10%) as workers scale.
    assert ratio < 1.10, (
        f"per-worker RSS grew {ratio:.2f}x from {min(means)} to "
        f"{max(means)} workers — artifacts are not being page-shared"
    )


def test_pipelined_peak_round_trips(store, artifact):
    """The headline: peak HTTP round trips/s vs the stdlib baseline."""
    best = None
    for workers in WORKER_COUNTS:
        with RemCluster(store.root, workers=workers) as cluster:
            warm_up(cluster, artifact)
            for _ in range(PIPELINE_REPEATS):
                result = run_pipelined(
                    cluster.address,
                    query_path(artifact),
                    query_bodies(artifact, 1),
                    depth=PIPELINE_DEPTH,
                    requests_per_connection=PIPELINE_REQUESTS,
                    connections=min(workers, max(1, CPUS - 1)) or 1,
                )
                assert result.errors == 0
                if best is None or result.throughput_rps > best["rt_per_s"]:
                    best = {
                        "workers": workers,
                        "rt_per_s": result.throughput_rps,
                        "mode": result.mode,
                        "connections": result.connections,
                    }
    speedup = best["rt_per_s"] / BASELINE_RT_PER_S
    _RECORD["pipelined_best"] = best
    _RECORD["speedup_vs_baseline"] = speedup
    print(
        f"\npeak {best['rt_per_s']:.0f} rt/s ({best['mode']}, "
        f"workers={best['workers']}) = {speedup:.1f}x baseline"
    )
    if not QUICK:
        assert speedup >= 10.0, (
            f"peak {best['rt_per_s']:.0f} rt/s is only {speedup:.1f}x the "
            f"{BASELINE_RT_PER_S:.0f} rt/s single-process baseline"
        )


@pytest.mark.skipif(CPUS < 2, reason="multi-worker scaling needs >= 2 CPUs")
def test_two_workers_scale_over_one(store, artifact):
    """2 workers >= 1.5x 1 worker closed-loop throughput (the CI gate)."""
    rates = {}
    for workers in (1, 2):
        with RemCluster(store.root, workers=workers) as cluster:
            warm_up(cluster, artifact)
            result = run_closed_loop(
                cluster.address,
                query_path(artifact),
                query_bodies(artifact, 1),
                connections=max(4, CONNECTIONS),
                requests_per_connection=REQUESTS_PER_CONNECTION,
            )
            assert result.errors == 0
            rates[workers] = result.throughput_rps
    scaling = rates[2] / rates[1]
    _RECORD["two_worker_scaling"] = scaling
    print(f"\n2-worker scaling: {scaling:.2f}x ({rates[1]:.0f} -> {rates[2]:.0f} rt/s)")
    assert scaling >= 1.5, (
        f"2 workers only {scaling:.2f}x 1 worker on a {CPUS}-CPU box"
    )


def test_emit_perf_record():
    """Write BENCH_loadgen.json (runs last: depends on the others)."""
    out = Path(__file__).resolve().parent.parent / "BENCH_loadgen.json"
    out.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\nperf record written to {out}")
    assert out.exists()
