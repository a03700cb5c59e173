#!/usr/bin/env python3
"""A procedural city block: generate, survey and map three buildings.

Demonstrates the scenario generator end to end.  Three `BuildingSpec`s
— a residential room-grid block, a commercial corridor-spine tower and
an industrial open-plan hall — are expanded into full multi-floor RF
worlds, and each one is pushed through the complete toolchain: an
uncertainty-driven active campaign, an online model refit, and a REM
build.  Along the way the spec round-trips through JSON and through
its self-describing registry name (``generated:<template>?...``),
which is all a colleague needs to rebuild the identical world.

Expected runtime: ~10 s (pass ``--quick`` for a ~3 s smoke run).

Prints, per building: the generated geometry (floors/rooms/walls/APs),
the campaign yield, the holdout RMSE and the REM dark fraction; ends
with the three registry names that reproduce the experiment.

Usage::

    python examples/generated_city.py [--quick]
"""

import sys

from repro.core import build_rem
from repro.core.predictors import KnnRegressor
from repro.radio import BuildingSpec, build_scenario, generate_building
from repro.station import ActiveSamplingConfig, FleetConfig, run_fleet_campaign

#: The city block: one spec per construction style.
SPECS = [
    BuildingSpec(
        template="room-grid",
        palette="residential",
        floors=2,
        width_m=16.0,
        depth_m=12.0,
        ap_policy="per-room",
        clutter_per_floor=2,
        seed=21,
    ),
    BuildingSpec(
        template="corridor-spine",
        palette="commercial",
        floors=3,
        width_m=20.0,
        depth_m=14.0,
        ap_policy="ceiling-grid",
        n_ssids=4,
        seed=22,
    ),
    BuildingSpec(
        template="open-plan",
        palette="industrial",
        floors=1,
        width_m=18.0,
        depth_m=12.0,
        ap_policy="perimeter",
        ap_spacing_m=7.0,
        seed=23,
    ),
]


def survey(spec: BuildingSpec, budget: int) -> str:
    """Generate one building, fly it, map it; return its registry name."""
    # The JSON form is the archival artifact; prove it rebuilds the
    # same world before flying.
    scenario = generate_building(BuildingSpec.from_json(spec.to_json()))
    meta = scenario.metadata
    print(f"\n=== {meta['name']}")
    print(
        f"built   : {meta['floors']} floor(s), "
        f"{sum(meta['rooms_per_floor'])} rooms, {meta['n_walls']} walls, "
        f"{meta['n_aps']} APs under {meta['n_ssids']} SSIDs "
        f"({spec.palette} palette, {spec.ap_policy} APs)"
    )

    active = ActiveSamplingConfig(
        seed_waypoints=min(8, budget),
        batch_size=6,
        budget_waypoints=budget,
        predictor_factory=lambda: KnnRegressor(
            n_neighbors=4, weights="distance", p=2.0, onehot_scale=3.0
        ),
    )
    result = run_fleet_campaign(
        scenario=scenario, fleet=FleetConfig(n_drones=1), active=active
    )
    rmse = (
        "n/a"
        if result.final_rmse_dbm is None
        else f"{result.final_rmse_dbm:.2f} dB"
    )
    print(
        f"campaign: {result.waypoints_flown} waypoints "
        f"({result.stop_reason}), {len(result.log)} samples, "
        f"{len(result.log.macs())} MACs, holdout RMSE {rmse}"
    )

    builder = result.builder
    rem = build_rem(
        builder.model, builder.dataset(), scenario.flight_volume, resolution_m=0.5
    )
    print(
        f"REM     : {len(rem.macs)} APs mapped, "
        f"dark fraction below -70 dBm: {rem.dark_fraction(-70.0):.1%}"
    )

    # The name alone rebuilds the identical environment.
    name = spec.to_name()
    rebuilt = build_scenario(name)
    assert len(rebuilt.environment.walls) == meta["n_walls"]
    return name


def main() -> None:
    """Survey the whole block and print the reproducible names."""
    quick = "--quick" in sys.argv[1:]
    budget = 8 if quick else 18
    names = [survey(spec, budget) for spec in SPECS]
    print("\nreproduce any of these worlds from the name alone:")
    for name in names:
        print(f"  python -m repro --scenario '{name}' campaign --active")


if __name__ == "__main__":
    main()
