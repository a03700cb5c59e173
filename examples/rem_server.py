#!/usr/bin/env python3
"""Serve a REM over HTTP and run a scripted client session against it.

The "build once, persist, serve many" loop end to end: a JSON
:class:`~repro.serve.RemJobSpec` describes a small active-sampling
build in a procedurally generated building; ``run_job`` builds the
artifact into a temporary :class:`~repro.serve.ArtifactStore` (and
proves the second run is a cache hit); a
:class:`~repro.serve.RemService` plus the stdlib HTTP front end then
serve it on an ephemeral port while a urllib client walks the API —
health check, artifact listing, batched queries, strongest-AP lookups,
coverage and dark-region planning — and cross-checks every served
answer against the direct in-process map.  A final segment re-saves
the artifact into an mmap-able ``npy`` store and serves it from a
2-worker pre-forked :class:`~repro.serve.RemCluster`, driving the
``/v1/batch`` endpoint and draining the workers gracefully.

Expected runtime: ~3 s (pass ``--quick`` for a faster smoke run).

Prints the job provenance, the cache-hit proof, each HTTP response
summary and the served-vs-direct agreement bound.

Usage::

    python examples/rem_server.py [--quick]
"""

import json
import sys
import tempfile
import threading
import urllib.request

import numpy as np

from repro.serve import (
    ArtifactStore,
    RemCluster,
    RemJobSpec,
    RemService,
    create_server,
    run_job,
)


def http_json(url, payload=None):
    """One JSON round trip (GET, or POST when a payload is given)."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method="GET" if data is None else "POST"
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.load(response)


def main() -> None:
    """Build, persist, serve and query one REM artifact."""
    quick = "--quick" in sys.argv[1:]
    budget = 8 if quick else 16
    spec = RemJobSpec(
        scenario="generated:room-grid?floors=1&width_m=12&depth_m=9&seed=4",
        acquisition="active",
        active={
            "seed_waypoints": 8,
            "batch_size": 8,
            "budget_waypoints": budget,
        },
        tune=False,
        min_samples_per_mac=2,
        resolution_m=0.5,
    )
    print(f"job spec digest {spec.digest()[:12]} (budget {budget} waypoints)")

    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        artifact = run_job(spec, store)
        provenance = artifact.provenance
        print(
            f"built   : {provenance['samples']} samples, test RMSE "
            f"{provenance['test_rmse_dbm']:.2f} dBm, "
            f"{provenance['n_macs']} APs in "
            f"{provenance['wall_time_s']:.2f} s"
        )
        again = run_job(spec, store)
        print(f"re-run  : cache hit = {again.cache_hit} (no campaign re-flown)")

        service = RemService(store, capacity=2)
        server = create_server(service, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            health = http_json(f"{base}/healthz")
            print(f"healthz : {health['status']}, {health['artifacts']} artifact(s)")

            listing = http_json(f"{base}/v1/artifacts")["artifacts"]
            print(f"listing : {[r['digest'][:12] for r in listing]}")

            rng = np.random.default_rng(5)
            lo = np.asarray(artifact.rem.grid.volume.min_corner)
            hi = np.asarray(artifact.rem.grid.volume.max_corner)
            points = rng.uniform(lo, hi, size=(6, 3)).tolist()
            query_url = f"{base}/v1/artifacts/{artifact.digest}/query"

            served = http_json(
                query_url, {"type": "query", "points": points}
            )
            direct = artifact.rem.query_many(points)
            gap = float(np.abs(np.asarray(served["values"]) - direct).max())
            print(
                f"query   : {len(points)} points x {len(served['macs'])} "
                f"APs, served ≡ direct (max gap {gap:.1e} dB)"
            )

            strongest = http_json(
                query_url, {"type": "strongest_ap", "points": points}
            )
            print(
                f"handover: strongest AP at p0 is {strongest['macs'][0]} "
                f"at {strongest['rss_dbm'][0]:.1f} dBm"
            )

            coverage = http_json(
                query_url, {"type": "coverage", "threshold_dbm": -70.0}
            )
            best = max(coverage["by_mac"].items(), key=lambda kv: kv[1])
            print(
                f"coverage: best AP {best[0]} covers {best[1]:.1%} "
                f"above -70 dBm"
            )

            dark = http_json(
                query_url,
                {"type": "dark_regions", "threshold_dbm": -60.0, "max_points": 5},
            )
            print(
                f"dark    : {dark['dark_fraction']:.1%} of the volume below "
                f"-60 dBm ({len(dark['points'])} sample points shown)"
            )
            assert gap < 1e-9
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        # -- the same artifact from a pre-forked worker cluster -------
        shared = ArtifactStore(f"{root}/shared")
        shared.save(artifact)
        cluster = RemCluster(shared.root, workers=2)
        cluster.start()
        try:
            host, port = cluster.address
            base = f"http://{host}:{port}"
            health = http_json(f"{base}/healthz")
            print(
                f"cluster : {len(cluster.worker_pids())} workers on "
                f"{base}, healthz {health['status']}"
            )
            batch = http_json(
                f"{base}/v1/batch",
                [
                    {"digest": artifact.digest, "type": "query", "points": points},
                    {
                        "digest": artifact.digest,
                        "type": "coverage",
                        "threshold_dbm": -70.0,
                    },
                ],
            )["responses"]
            batch_gap = float(
                np.abs(np.asarray(batch[0]["values"]) - direct).max()
            )
            print(
                f"batch   : {len(batch)} mixed requests in one round "
                f"trip, query ≡ direct (max gap {batch_gap:.1e} dB)"
            )
            assert batch_gap < 1e-9
        finally:
            exit_codes = cluster.stop(graceful=True)
        print(f"drained : worker exit codes {exit_codes}")
    print("servers stopped; artifact store was temporary — done")


if __name__ == "__main__":
    main()
