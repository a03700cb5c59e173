"""BENCH-ENVIRONMENT — the vectorized link-budget engine.

Times the simulation side of the stack that PR 1 left scalar: the
environment→scanner hot path.  Three measurements:

* dense ground-truth field generation — one batched
  ``mean_rss_dbm_many`` call vs the seed's per-point scalar loop
  (``crossed_walls`` re-walked per query), with 1e-9 equivalence
  asserted between the two;
* channel-sweep scan throughput (the per-waypoint cost every campaign
  pays at every lattice point);
* an end-to-end active campaign (smoke-sized), the workload
  ``BENCH_active_sampling.json`` showed dominated by scalar RSS
  queries.

Emits ``BENCH_environment.json`` at the repo root.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration (coarser probe
grid, relaxed speedup floor).  The speedup assertion *is* the CI
quality gate: the smoke job fails when the batched path drops below
the floor.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.radio import build_demo_scenario, crossed_walls
from repro.station import ActiveSamplingConfig, FleetConfig, run_fleet_campaign
from repro.wifi import ChannelSweepScanner

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
PROBE_SHAPE = (5, 4, 3) if QUICK else (12, 10, 6)
#: CI gate: the batched ground-truth path must beat the scalar loop by
#: at least this factor (small smoke grids amortize less per call).
MIN_SPEEDUP = 3.0 if QUICK else 10.0
N_SCANS = 5 if QUICK else 25

_RECORD: dict = {"quick": QUICK}


@pytest.fixture(scope="module")
def scenario():
    return build_demo_scenario()


@pytest.fixture(scope="module")
def probes(scenario):
    return scenario.flight_volume.grid(*PROBE_SHAPE, margin=0.2)


def _scalar_mean_rss_fields(environment, macs, points):
    """The seed's ground-truth loop: one full link budget per query.

    Replicates the pre-batching implementation — ``crossed_walls``
    re-walks the wall list and the shadowing field is evaluated
    point by point — as the timing baseline the engine is gated
    against.
    """
    base = environment.path_loss.base
    cap = environment.path_loss.max_wall_loss_db
    walls = environment.walls
    fields = {}
    for mac in macs:
        ap = environment.ap_by_mac(mac)
        field = environment.shadowing.field_for(mac)
        rows = np.empty(len(points))
        for j, point in enumerate(points):
            wall_loss = min(
                sum(
                    w.material.attenuation_db
                    for w in crossed_walls(ap.position, point, walls)
                ),
                cap,
            )
            loss = base.path_loss_db(ap.position, point) + wall_loss
            rows[j] = ap.tx_power_dbm - loss - field.sample(point)
        fields[mac] = rows
    return fields


def test_ground_truth_speedup_vs_scalar(scenario, probes):
    """Batched dense ground truth must beat the scalar loop >= 10x."""
    environment = scenario.environment
    macs = [ap.mac for ap in environment.access_points]

    t0 = time.perf_counter()
    scalar = _scalar_mean_rss_fields(environment, macs, probes)
    scalar_s = time.perf_counter() - t0

    environment.clear_wall_cache()  # time the cold geometry, not a replay
    t0 = time.perf_counter()
    batched = environment.mean_rss_dbm_many(macs, probes)
    batched_s = time.perf_counter() - t0

    worst = 0.0
    for i, mac in enumerate(macs):
        worst = max(worst, float(np.abs(batched[i] - scalar[mac]).max()))
    assert worst < 1e-9, f"batched/scalar disagree by {worst:.2e} dB"

    speedup = scalar_s / batched_s
    print(
        f"\nscalar {scalar_s:.3f}s vs batched {batched_s:.4f}s -> "
        f"{speedup:.1f}x ({len(macs)} APs x {len(probes)} probes, "
        f"{len(environment.walls)} walls, max |diff| {worst:.1e} dB)"
    )
    _RECORD["n_aps"] = len(macs)
    _RECORD["n_walls"] = len(environment.walls)
    _RECORD["probe_shape"] = list(PROBE_SHAPE)
    _RECORD["probe_points"] = len(probes)
    _RECORD["scalar_ground_truth_s"] = scalar_s
    _RECORD["batched_ground_truth_s"] = batched_s
    _RECORD["ground_truth_speedup"] = speedup
    _RECORD["max_abs_diff_db"] = worst
    assert speedup >= MIN_SPEEDUP, f"batched path only {speedup:.2f}x faster"


def test_cached_refit_is_faster_than_cold(scenario, probes):
    """A second pass over the same probe grid must hit the wall cache."""
    environment = scenario.environment
    macs = [ap.mac for ap in environment.access_points]
    environment.clear_wall_cache()
    t0 = time.perf_counter()
    cold = environment.mean_rss_dbm_many(macs, probes)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = environment.mean_rss_dbm_many(macs, probes)
    warm_s = time.perf_counter() - t0
    np.testing.assert_array_equal(cold, warm)
    print(f"\ncold {cold_s:.4f}s vs cached {warm_s:.4f}s")
    _RECORD["cold_block_s"] = cold_s
    _RECORD["cached_block_s"] = warm_s
    assert warm_s <= cold_s * 1.5, "wall-loss cache made the replay slower"


def test_scan_throughput(scenario):
    """Full channel sweeps per second at random flight-volume points."""
    environment = scenario.environment
    scanner = ChannelSweepScanner(environment)
    rng = np.random.default_rng(29)
    lo = np.asarray(scenario.flight_volume.min_corner)
    hi = np.asarray(scenario.flight_volume.max_corner)
    positions = rng.uniform(lo, hi, size=(N_SCANS, 3))
    t0 = time.perf_counter()
    detected = [len(scanner.scan(p, rng, 3.0)) for p in positions]
    elapsed = time.perf_counter() - t0
    rate = N_SCANS / elapsed
    print(f"\n{rate:.0f} scans/s (mean {np.mean(detected):.1f} APs/scan)")
    _RECORD["scans_per_s"] = rate
    _RECORD["mean_aps_per_scan"] = float(np.mean(detected))
    assert all(d > 0 for d in detected)


def test_active_campaign_wall_time():
    """End-to-end smoke campaign: the workload the engine accelerates."""
    t0 = time.perf_counter()
    result = run_fleet_campaign(
        fleet=FleetConfig(n_drones=1),
        active=ActiveSamplingConfig(
            seed_waypoints=8, batch_size=8, budget_waypoints=16
        )
    )
    wall_s = time.perf_counter() - t0
    print(f"\n16-waypoint active campaign in {wall_s:.2f}s")
    _RECORD["smoke_active_waypoints"] = result.waypoints_flown
    _RECORD["smoke_active_wall_s"] = wall_s
    assert result.waypoints_flown == 16


def test_emit_perf_record():
    """Write BENCH_environment.json (runs last: depends on the others)."""
    out = Path(__file__).resolve().parent.parent / "BENCH_environment.json"
    out.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\nperf record written to {out}")
    assert out.exists()
