#!/usr/bin/env python3
"""Concurrent fleet acquisition: K drones, one uncertainty-driven map.

The paper flies its drones one at a time over a fixed lattice.  This
example runs the ``acquisition="fleet"`` path instead: the active
planner's waypoint batches are partitioned spatially across K drones
(balanced k-means regions, anti-collision separation enforced at
planning time), all K fly **at once** inside one simulation kernel,
and the timestamped scans merge deterministically into one online map.

It flies the same budget solo (K=1, which is what
``acquisition="active"`` flies) and as a K-drone fleet, then shows
what concurrency buys: the same spend of waypoints at a fraction of
the simulated makespan.

Expected runtime: ~5 s (~2 s with ``--quick``).  Writes the merged
fleet sample log to the CSV path given on the command line.

Usage::

    python examples/fleet_campaign.py [--quick] [output.csv]
"""

import sys

from repro import build_demo_scenario
from repro.analysis import render_active_trajectory
from repro.station import ActiveSamplingConfig, FleetConfig, run_fleet_campaign


def main() -> None:
    argv = sys.argv[1:]
    quick = "--quick" in argv
    paths = [a for a in argv if not a.startswith("--")]
    output = paths[0] if paths else "fleet_samples.csv"

    n_drones = 2 if quick else 3
    active = ActiveSamplingConfig(
        seed_waypoints=6,
        batch_size=4,
        budget_waypoints=12 if quick else 24,
        lattice_nx=4,
        lattice_ny=3,
        lattice_nz=2,
    )
    scenario = build_demo_scenario()

    print(f"flying {active.budget_waypoints} waypoints solo (K=1)...")
    solo = run_fleet_campaign(
        scenario=scenario, fleet=FleetConfig(n_drones=1), active=active
    )
    print(
        f"  makespan {solo.duration_s:.0f} s simulated, "
        f"{len(solo.log)} samples, stop: {solo.stop_reason}"
    )

    print(f"\nsame budget as a {n_drones}-drone fleet...")
    fleet = run_fleet_campaign(
        scenario=scenario,
        fleet=FleetConfig(n_drones=n_drones, min_separation_m=0.5),
        active=active,
    )
    for round_ in fleet.rounds:
        tours = " + ".join(str(len(t)) for t in round_.tours)
        bumped = (
            f"  ({round_.dropped_waypoints} bumped by separation)"
            if round_.dropped_waypoints
            else ""
        )
        print(f"  round {round_.round_index}: tours {tours}{bumped}")
    print(render_active_trajectory(fleet.rounds))
    print(
        f"  makespan {fleet.duration_s:.0f} s simulated "
        f"({solo.duration_s / fleet.duration_s:.1f}x less flying time), "
        f"{len(fleet.log)} samples, stop: {fleet.stop_reason}"
    )

    fleet.log.save_csv(output)
    print(f"\nmerged fleet samples archived to {output}")


if __name__ == "__main__":
    main()
