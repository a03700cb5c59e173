"""Future-work extensions (§IV): REM density, fleet scaling.

Not paper figures — these quantify the directions the paper names:
the fundamental density limit of 3-D REMs and fleet partitioning
strategies.
"""

from __future__ import annotations

from repro.analysis import table
from repro.core import density_sweep
from repro.station import evaluate_partition, partition_waypoints, waypoint_grid


def test_rem_density_curve(benchmark, campaign_result):
    """§IV: RMSE vs number of scan locations (the density limit)."""
    counts = [3, 6, 12, 24, 40, 54]

    result = benchmark.pedantic(
        lambda: density_sweep(campaign_result.log, location_counts=counts, seed=11),
        rounds=1,
        iterations=1,
    )
    locations, rmses = result.as_series()
    print()
    print("=== held-out RMSE vs training scan locations ===")
    for n, r in zip(locations, rmses):
        print(f"  {n:3d} locations -> {r:.3f} dBm")
    knee = result.knee_locations(tolerance_db=0.2)
    print(f"density knee (within 0.2 dB of best): {knee} locations")

    assert rmses[0] > rmses[-1], "sparse sampling must be worse than dense"
    assert knee <= max(counts)


def test_fleet_partition_strategies(benchmark, demo_scenario):
    """Scalability: partition strategies vs the endurance envelope."""
    grid = waypoint_grid(demo_scenario.flight_volume)

    def sweep():
        reports = {}
        for strategy in ("axis-y", "axis-x", "layers-z", "kmeans"):
            for n_uavs in (1, 2, 3):
                plan = partition_waypoints(grid, n_uavs=n_uavs, strategy=strategy)
                reports[(strategy, n_uavs)] = evaluate_partition(plan)
        return reports

    reports = benchmark(sweep)
    print()
    print("=== fleet partitions: duration vs endurance ===")
    rows = []
    for (strategy, n_uavs), report in sorted(reports.items()):
        rows.append(
            [
                strategy,
                n_uavs,
                f"{max(report.per_uav_duration_s):.0f}",
                f"{report.endurance_budget_s:.0f}",
                "yes" if report.feasible else "NO",
            ]
        )
    print(table(["strategy", "uavs", "max flight (s)", "budget (s)", "feasible"], rows))

    # One UAV cannot cover 72 waypoints on one battery — the reason the
    # paper flies a two-UAV fleet sequentially.
    assert not reports[("axis-y", 1)].feasible
    assert reports[("axis-y", 2)].feasible
