"""BENCH-SERVICE — the job/artifact/serving path end to end.

Times the "build once, persist, serve many" surface added by
``repro.serve``:

* one real ``run_job`` build (spec → campaign → REM + uncertainty),
  then the artifact-store round trip: save wall time, load wall time
  and the cache-hit latency of a second ``run_job`` (which must be
  orders of magnitude below the build);
* served queries/sec through ``RemService`` — a mixed
  query/strongest-AP/coverage workload — single-threaded and from a
  thread pool, with every served answer asserted ≡ the direct
  ``RadioEnvironmentMap`` reduction at 1e-9;
* HTTP round trips/sec against the stdlib front end.

Emits ``BENCH_service.json`` at the repo root.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    ArtifactStore,
    CoverageRequest,
    QueryRequest,
    RemJobSpec,
    RemService,
    StrongestApRequest,
    create_server,
    run_job,
)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
BUDGET_WAYPOINTS = 8 if QUICK else 24
N_REQUESTS = 120 if QUICK else 600
N_HTTP = 40 if QUICK else 200
POINTS_PER_QUERY = 32

_RECORD: dict = {"quick": QUICK}


@pytest.fixture(scope="module")
def spec():
    return RemJobSpec(
        acquisition="active",
        active={
            "seed_waypoints": min(8, BUDGET_WAYPOINTS),
            "batch_size": 8,
            "budget_waypoints": BUDGET_WAYPOINTS,
        },
        tune=False,
        min_samples_per_mac=2 if QUICK else 4,
        resolution_m=0.5 if QUICK else 0.25,
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("bench-artifacts"))


@pytest.fixture(scope="module")
def artifact(spec, store):
    t0 = time.perf_counter()
    built = run_job(spec, store)
    _RECORD["build_wall_s"] = time.perf_counter() - t0
    _RECORD["budget_waypoints"] = BUDGET_WAYPOINTS
    _RECORD["n_macs"] = len(built.rem.macs)
    _RECORD["rem_shape"] = list(built.rem.grid.shape)
    return built


def make_requests(artifact, n, seed=7):
    """A deterministic mixed request stream."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(artifact.rem.grid.volume.min_corner)
    hi = np.asarray(artifact.rem.grid.volume.max_corner)
    requests = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            points = rng.uniform(lo, hi, size=(POINTS_PER_QUERY, 3))
            requests.append(QueryRequest(artifact.digest, points))
        elif kind == 1:
            points = rng.uniform(lo, hi, size=(POINTS_PER_QUERY, 3))
            requests.append(StrongestApRequest(artifact.digest, points))
        else:
            requests.append(
                CoverageRequest(artifact.digest, -80.0 + (i % 20))
            )
    return requests


def test_store_round_trip_wall_time(artifact, store, spec):
    """Artifact save/load and the run_job cache-hit latency."""
    # Save into a throwaway root so the timing is a cold write.
    t0 = time.perf_counter()
    path = ArtifactStore(store.root / "rewrite").save(artifact)
    save_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    loaded = store.load(artifact.digest)
    load_s = time.perf_counter() - t0
    assert loaded.content_hash() == artifact.content_hash()

    t0 = time.perf_counter()
    hit = run_job(spec, store)
    cache_hit_s = time.perf_counter() - t0
    assert hit.cache_hit

    # The payload is a directory of per-tensor .npy files.
    size_kib = sum(f.stat().st_size for f in path.iterdir()) / 1024.0
    print(
        f"\nsave {save_s * 1e3:.1f} ms, load {load_s * 1e3:.1f} ms, "
        f"cache-hit run_job {cache_hit_s * 1e3:.1f} ms "
        f"({size_kib:.0f} KiB vs build {_RECORD['build_wall_s']:.2f} s)"
    )
    _RECORD["artifact_save_s"] = save_s
    _RECORD["artifact_load_s"] = load_s
    _RECORD["cache_hit_run_job_s"] = cache_hit_s
    _RECORD["artifact_size_kib"] = size_kib
    assert cache_hit_s < _RECORD["build_wall_s"], "cache hit slower than build"


def test_single_thread_queries_per_s(artifact, store):
    """Served throughput, one thread, answers pinned to the direct REM."""
    service = RemService(store, capacity=2)
    requests = make_requests(artifact, N_REQUESTS)
    t0 = time.perf_counter()
    responses = [service.handle(r) for r in requests]
    elapsed = time.perf_counter() - t0

    # Equivalence gate on a sample of the query answers.
    worst = 0.0
    for request, response in list(zip(requests, responses))[:30]:
        if isinstance(request, QueryRequest):
            direct = artifact.rem.query_many(request.points)
            worst = max(worst, float(np.abs(response.values - direct).max()))
    assert worst < 1e-9, f"served/direct disagree by {worst:.2e} dB"

    rate = len(requests) / elapsed
    print(f"\n{rate:.0f} served requests/s single-threaded")
    _RECORD["single_thread_requests_per_s"] = rate
    _RECORD["n_requests"] = len(requests)
    _RECORD["max_served_vs_direct_db"] = worst


def test_multi_thread_queries_per_s(artifact, store):
    """Same workload through a thread pool (the LRU under contention)."""
    service = RemService(store, capacity=2)
    requests = make_requests(artifact, N_REQUESTS)
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as pool:
        responses = list(pool.map(service.handle, requests))
    elapsed = time.perf_counter() - t0
    assert len(responses) == len(requests)
    rate = len(requests) / elapsed
    print(f"\n{rate:.0f} served requests/s with 4 workers")
    _RECORD["multi_thread_requests_per_s"] = rate
    _RECORD["multi_thread_workers"] = 4


def test_http_round_trips_per_s(artifact, store):
    """End-to-end JSON/HTTP latency through the stdlib front end."""
    service = RemService(store, capacity=2)
    server = create_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        rng = np.random.default_rng(11)
        lo = np.asarray(artifact.rem.grid.volume.min_corner)
        hi = np.asarray(artifact.rem.grid.volume.max_corner)
        url = f"http://{host}:{port}/v1/artifacts/{artifact.digest}/query"
        t0 = time.perf_counter()
        for _ in range(N_HTTP):
            body = json.dumps(
                {
                    "type": "query",
                    "points": rng.uniform(lo, hi, size=(8, 3)).tolist(),
                }
            ).encode()
            request = urllib.request.Request(url, data=body, method="POST")
            with urllib.request.urlopen(request, timeout=30) as resp:
                payload = json.load(resp)
            assert len(payload["values"]) == 8
        elapsed = time.perf_counter() - t0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    rate = N_HTTP / elapsed
    print(f"\n{rate:.0f} HTTP round trips/s")
    _RECORD["http_round_trips_per_s"] = rate
    _RECORD["n_http_requests"] = N_HTTP


def test_emit_perf_record():
    """Write BENCH_service.json (runs last: depends on the others)."""
    out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\nperf record written to {out}")
    assert out.exists()
