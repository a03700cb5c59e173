"""BENCH-ACTIVE-SAMPLING — waypoints-to-target-RMSE vs the fixed lattice.

The paper flies all 72 lattice waypoints and trains afterwards.  The
active campaign flies a 12-waypoint exploratory batch and then buys
waypoints where the online map is least certain.  This bench measures
what that buys, on equal footing:

* both arms fit the paper's tuned k-NN on everything they collected,
  with the §III-B weak-MAC filter (16-of-72 samples, scaled to the
  waypoints actually flown);
* both are scored against the simulator's *ground truth* mean RSS over
  a probe lattice — the quantity no real deployment can observe;
* a truncated-lattice control (the first K snake-order waypoints of
  the fixed grid) isolates the value of uncertainty-driven selection
  from merely flying fewer waypoints.

Emits ``BENCH_active_sampling.json`` at the repo root.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke configuration (smaller budget
and probe grid, trend assertions only).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    compare_to_fixed_lattice,
    ground_truth_fields,
    ground_truth_map_rmse,
)
from repro.core.dataset import REMDataset
from repro.core.predictors import KnnRegressor
from repro.station import (
    ActiveSamplingConfig,
    FleetConfig,
    plan_batch_mission,
    run_campaign,
    run_fleet_campaign,
    snake_order,
    waypoint_grid,
)

#: The paper's tuned configuration (§III-B best performer).
TUNED = dict(n_neighbors=16, weights="distance", p=2.0, onehot_scale=3.0)
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Full-protocol knobs (the fixed campaign's 72-waypoint reference).
BUDGET = 24 if QUICK else 72
SEED_WAYPOINTS = 8 if QUICK else 12
BATCH = 8 if QUICK else 6
PROBE_SHAPE = (4, 4, 2) if QUICK else (7, 6, 4)

_RECORD: dict = {"quick": QUICK, "tuned_knn": TUNED}


def _scaled_min_samples(waypoints_flown: int) -> int:
    """The §III-B 16-of-72 weak-MAC threshold, scaled to fewer scans."""
    return max(3, round(16 * waypoints_flown / 72))


def _filtered_fit(dataset, waypoints_flown: int):
    """Tuned k-NN on the dataset minus its weak MACs (scaled filter).

    Returns ``(model, vocabulary)`` — the vocabulary the model's MAC
    indices refer to.
    """
    counts = dataset.samples_per_mac()
    threshold = _scaled_min_samples(waypoints_flown)
    keep = [
        i
        for i, mac in enumerate(dataset.mac_vocabulary)
        if counts[mac] >= threshold
    ]
    subset = dataset.subset(np.flatnonzero(np.isin(dataset.mac_indices, keep)))
    return KnnRegressor(**TUNED).fit(subset), subset.mac_vocabulary


@pytest.fixture(scope="module")
def probes(campaign_result):
    return campaign_result.scenario.flight_volume.grid(*PROBE_SHAPE, margin=0.2)


@pytest.fixture(scope="module")
def fixed_reference(campaign_result, preprocessed, probes):
    """The fixed lattice's ground-truth map RMSE (the bar to reach)."""
    model = KnnRegressor(**TUNED).fit(preprocessed.dataset)
    eval_macs = list(preprocessed.dataset.mac_vocabulary)
    environment = campaign_result.scenario.environment
    # The truth depends only on (MAC, probe): compute once, score every
    # arm and every active round against the same cached fields.
    truth = ground_truth_fields(environment, eval_macs, probes)
    rmse = ground_truth_map_rmse(
        model,
        preprocessed.dataset.mac_vocabulary,
        environment,
        eval_macs,
        probes,
        truth=truth,
    )
    return {
        "waypoints": campaign_result.mission.total_waypoints,
        "rmse_dbm": rmse,
        "eval_macs": eval_macs,
        "truth": truth,
    }


@pytest.fixture(scope="module")
def active_run(campaign_result, fixed_reference, probes):
    """One active campaign with per-round ground-truth scoring."""
    scenario = campaign_result.scenario
    environment = scenario.environment
    eval_macs = fixed_reference["eval_macs"]
    trajectory = []

    def score_round(round_, builder):
        dataset = builder.dataset()
        model, vocabulary = _filtered_fit(dataset, round_.total_waypoints)
        rmse = ground_truth_map_rmse(
            model,
            vocabulary,
            environment,
            eval_macs,
            probes,
            fallback_dbm=float(dataset.rssi_dbm.mean()),
            truth=fixed_reference["truth"],
        )
        trajectory.append((round_.total_waypoints, rmse))

    start = time.perf_counter()
    result = run_fleet_campaign(
        scenario=scenario,
        fleet=FleetConfig(n_drones=1),
        active=ActiveSamplingConfig(
            seed_waypoints=SEED_WAYPOINTS,
            batch_size=BATCH,
            budget_waypoints=BUDGET,
        ),
        round_callback=score_round,
    )
    wall_s = time.perf_counter() - start
    return {"result": result, "trajectory": trajectory, "wall_s": wall_s}


def test_active_reaches_fixed_rmse_with_fewer_waypoints(
    active_run, fixed_reference
):
    """The headline: match the 72-waypoint map's RMSE under budget."""
    comparison = compare_to_fixed_lattice(
        fixed_reference["waypoints"],
        fixed_reference["rmse_dbm"],
        active_run["trajectory"],
    )
    record = comparison.summary()
    record["stop_reason"] = active_run["result"].stop_reason
    record["active_wall_s"] = active_run["wall_s"]
    record["probe_shape"] = list(PROBE_SHAPE)
    record["n_eval_macs"] = len(fixed_reference["eval_macs"])
    _RECORD.update(record)
    print(
        f"\nfixed {comparison.fixed_waypoints} waypoints -> "
        f"{comparison.fixed_rmse_dbm:.3f} dB; active matches at "
        f"{comparison.waypoints_to_match} waypoints"
    )

    rmses = [r for _, r in comparison.trajectory]
    assert rmses[-1] < rmses[0], "active map never improved"
    if not QUICK:
        assert comparison.waypoints_to_match is not None, (
            f"active never reached the fixed-lattice RMSE "
            f"({comparison.fixed_rmse_dbm:.3f} dB) within {BUDGET} waypoints"
        )
        assert comparison.waypoints_to_match < comparison.fixed_waypoints, (
            "active needed the whole lattice to match it"
        )


def test_uncertainty_beats_truncated_lattice(
    active_run, fixed_reference, campaign_result, probes
):
    """Control: the same budget spent on a lattice prefix does worse."""
    comparison = compare_to_fixed_lattice(
        fixed_reference["waypoints"],
        fixed_reference["rmse_dbm"],
        active_run["trajectory"],
    )
    budget = comparison.waypoints_to_match or comparison.trajectory[-1][0]
    scenario = campaign_result.scenario
    lattice = snake_order(waypoint_grid(scenario.flight_volume))
    mission = plan_batch_mission(lattice[:budget], uav_name="UAV-trunc")
    truncated = run_campaign(scenario=scenario, mission=mission)
    model, vocabulary = _filtered_fit(
        REMDataset.from_samples(list(truncated.log)), budget
    )
    rmse = ground_truth_map_rmse(
        model,
        vocabulary,
        scenario.environment,
        fixed_reference["eval_macs"],
        probes,
        fallback_dbm=truncated.log.mean_rss_dbm(),
        truth=fixed_reference["truth"],
    )
    active_at_budget = min(
        rmse_ for waypoints, rmse_ in comparison.trajectory if waypoints <= budget
    )
    _RECORD["truncated_control"] = {
        "waypoints": budget,
        "rmse_dbm": rmse,
        "active_rmse_dbm_at_budget": active_at_budget,
    }
    print(
        f"\ntruncated lattice @ {budget} waypoints -> {rmse:.3f} dB vs "
        f"active {active_at_budget:.3f} dB"
    )
    if not QUICK:
        assert active_at_budget <= rmse + 0.25, (
            "uncertainty-driven selection did not beat a lattice prefix"
        )


def test_emit_perf_record(active_run):
    """Write BENCH_active_sampling.json (runs last: depends on the rest)."""
    result = active_run["result"]
    _RECORD["scenario"] = "condo"
    _RECORD["budget_waypoints"] = BUDGET
    _RECORD["seed_waypoints"] = SEED_WAYPOINTS
    _RECORD["batch_size"] = BATCH
    _RECORD["rounds"] = len(result.rounds)
    _RECORD["total_samples"] = len(result.log)
    _RECORD["holdout_rmse_trajectory"] = [
        {"waypoints": w, "rmse_dbm": r} for w, r in result.rmse_trajectory()
    ]
    out = Path(__file__).resolve().parent.parent / "BENCH_active_sampling.json"
    out.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\nperf record written to {out}")
    assert out.exists()
