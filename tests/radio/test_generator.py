"""Tests for the procedural building generator.

Covers the spec (validation, JSON and name round-trips), the generated
geometry (slabs, stairwells, shell, frame convention), AP placement
policies, exact reproducibility, registry integration, and the
acceptance round-trip: generated buildings flow through the complete
toolchain (active campaign -> online model -> REM) for every template.
"""

import numpy as np
import pytest

from repro.core import build_rem
from repro.core.predictors import KnnRegressor
from repro.radio import (
    AP_POLICIES,
    GENERATED_PRESETS,
    TEMPLATES,
    BuildingSpec,
    GeneratedScenario,
    available_scenarios,
    build_scenario,
    generate_building,
)
from repro.station import ActiveSamplingConfig, FleetConfig, run_fleet_campaign

#: The acceptance matrix: every template, two seeds each.
TEMPLATE_SEEDS = [(template, seed) for template in TEMPLATES for seed in (3, 11)]

#: Small, fast spec per template (keeps the toolchain round-trip cheap).
_SMALL = {
    "room-grid": dict(width_m=12.0, depth_m=9.0, floors=2),
    "corridor-spine": dict(width_m=14.0, depth_m=10.0, floors=2),
    "open-plan": dict(width_m=12.0, depth_m=9.0, floors=1, ap_policy="ceiling-grid"),
}


def small_spec(template: str, seed: int, **extra) -> BuildingSpec:
    return BuildingSpec(template=template, seed=seed, **{**_SMALL[template], **extra})


class TestBuildingSpec:
    def test_defaults_are_valid(self):
        spec = BuildingSpec()
        assert spec.template in TEMPLATES

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(template="igloo"),
            dict(palette="marble"),
            dict(ap_policy="drone-mounted"),
            dict(floors=0),
            dict(scan_floor=2, floors=2),
            dict(width_m=3.0),
            dict(room_m=1.0),
            dict(ap_room_probability=1.5),
            dict(ap_power_dbm=(20.0, 14.0)),
            dict(clutter_per_floor=-1),
        ],
    )
    def test_invalid_specs_raise(self, kwargs):
        with pytest.raises(ValueError):
            BuildingSpec(**kwargs)

    def test_json_round_trip(self):
        spec = BuildingSpec(
            template="corridor-spine", floors=4, palette="commercial", seed=9
        )
        assert BuildingSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown BuildingSpec fields"):
            BuildingSpec.from_dict({"floors": 2, "basements": 1})

    def test_name_round_trip_only_encodes_overrides(self):
        spec = BuildingSpec(template="open-plan", floors=3, seed=5)
        name = spec.to_name()
        assert name.startswith("generated:open-plan?")
        assert "floors=3" in name and "seed=5" in name
        assert "width_m" not in name  # defaults stay out of the name
        assert BuildingSpec.from_name(name) == spec

    def test_default_spec_name_has_no_query(self):
        assert BuildingSpec().to_name() == "generated:room-grid"

    def test_name_coerces_query_types(self):
        spec = BuildingSpec.from_name(
            "generated:room-grid?floors=3&width_m=14.5&ap_power_dbm=12,18"
        )
        assert spec.floors == 3
        assert spec.width_m == pytest.approx(14.5)
        assert spec.ap_power_dbm == (12.0, 18.0)

    def test_name_round_trips_full_float_precision(self):
        spec = BuildingSpec(width_m=12.3456789, seed=2)
        rebuilt = BuildingSpec.from_name(spec.to_name())
        assert rebuilt == spec  # repr formatting: no precision loss

    def test_corridor_envelope_validated_at_spec_time(self):
        with pytest.raises(ValueError, match="corridor-spine needs"):
            BuildingSpec(template="corridor-spine", depth_m=6.0, corridor_m=3.0)

    def test_bad_names_raise(self):
        with pytest.raises(KeyError, match="unknown generated template"):
            BuildingSpec.from_name("generated:castle?floors=2")
        with pytest.raises(ValueError, match="duplicate query field"):
            BuildingSpec.from_name("generated:room-grid?floors=2&floors=3")


class TestGeneratedGeometry:
    def test_frame_convention(self):
        scenario = generate_building(small_spec("room-grid", 7))
        assert scenario.flight_volume.min_corner == (0.0, 0.0, 0.0)
        assert scenario.building.contains(scenario.flight_volume.min_corner)
        assert scenario.building.contains(scenario.flight_volume.max_corner)

    def test_flight_volume_inside_scan_room(self):
        scenario = generate_building(small_spec("corridor-spine", 7))
        for corner in scenario.flight_volume.corners():
            assert scenario.room.contains(corner, tol=1e-6)

    def test_corridor_never_hosts_the_scan_volume(self):
        # Even when the corridor is wider than a room cell, campaigns
        # fly in a proper room (the corridor is not a scan candidate).
        spec = BuildingSpec(
            template="corridor-spine",
            room_m=2.4,
            corridor_m=2.5,
            width_m=24.0,
            depth_m=12.0,
            seed=7,
        )
        scenario = generate_building(spec)
        # The corridor spans the full 24 m width and is 2.5 m deep; a
        # side room is one room_m cell wide and (depth - corridor)/2 deep.
        assert scenario.room.size[0] <= spec.room_m + 1e-9
        assert scenario.room.size[1] > spec.corridor_m

    def test_aps_inside_building(self):
        for template, seed in TEMPLATE_SEEDS:
            scenario = generate_building(small_spec(template, seed))
            for ap in scenario.access_points:
                assert scenario.building.contains(ap.position, tol=1e-6)

    def test_slab_count_and_stairwell(self):
        spec = small_spec("room-grid", 5, floors=3)
        scenario = generate_building(spec)
        slabs = [w for w in scenario.environment.walls if w.axis == 2]
        # Ground + roof are solid (1 piece); the 2 interior slabs are
        # split into up to 4 pieces around the stairwell.
        solid = [w for w in slabs if "/" not in w.name]
        pierced = [w for w in slabs if "/" in w.name]
        assert len(solid) == 2
        assert 2 * 2 <= len(pierced) <= 2 * 4
        assert scenario.metadata["stairwell"] is not None

    def test_single_storey_has_no_stairwell(self):
        scenario = generate_building(small_spec("open-plan", 5))
        assert scenario.metadata["stairwell"] is None

    def test_clutter_and_no_fly_are_generated(self):
        spec = small_spec("room-grid", 13, clutter_per_floor=2, no_fly_zones=2)
        scenario = generate_building(spec)
        assert len(scenario.metadata["clutter"]) >= 1
        clutter_walls = [
            w for w in scenario.environment.walls if w.name.startswith("clutter")
        ]
        assert len(clutter_walls) == 4 * len(scenario.metadata["clutter"])
        assert len(scenario.no_fly) == 2
        for zone in scenario.no_fly:
            for corner in zone.corners():
                assert scenario.flight_volume.contains(corner, tol=1e-6)

    def test_more_floors_means_more_walls(self):
        low = generate_building(small_spec("room-grid", 5, floors=1))
        high = generate_building(small_spec("room-grid", 5, floors=4))
        assert len(high.environment.walls) > len(low.environment.walls)
        assert high.metadata["n_aps"] > low.metadata["n_aps"]


class TestApPolicies:
    @pytest.mark.parametrize("policy", AP_POLICIES)
    def test_every_policy_populates(self, policy):
        spec = small_spec("room-grid", 9, ap_policy=policy)
        scenario = generate_building(spec)
        assert len(scenario.access_points) >= 1
        macs = [ap.mac for ap in scenario.access_points]
        assert len(set(macs)) == len(macs)

    def test_ceiling_grid_is_denser_with_smaller_spacing(self):
        sparse = generate_building(
            small_spec("room-grid", 9, ap_policy="ceiling-grid", ap_spacing_m=8.0)
        )
        dense = generate_building(
            small_spec("room-grid", 9, ap_policy="ceiling-grid", ap_spacing_m=3.0)
        )
        assert len(dense.access_points) > len(sparse.access_points)

    def test_ssid_budget_respected(self):
        scenario = generate_building(small_spec("room-grid", 9, n_ssids=2))
        assert len({ap.ssid for ap in scenario.access_points}) <= 2


class TestReproducibility:
    @pytest.mark.parametrize(("template", "seed"), TEMPLATE_SEEDS)
    def test_same_spec_rebuilds_identical_world(self, template, seed):
        spec = small_spec(template, seed)
        a = generate_building(spec)
        b = generate_building(BuildingSpec.from_json(spec.to_json()))
        # Identical geometry...
        assert len(a.environment.walls) == len(b.environment.walls)
        for wall_a, wall_b in zip(a.environment.walls, b.environment.walls):
            assert wall_a.axis == wall_b.axis
            assert wall_a.offset == wall_b.offset
            assert wall_a.bounds == wall_b.bounds
        # ...identical AP placement...
        assert [ap.mac for ap in a.access_points] == [
            ap.mac for ap in b.access_points
        ]
        assert [ap.position for ap in a.access_points] == [
            ap.position for ap in b.access_points
        ]
        # ...and an identical RSS field (trend + frozen shadowing).
        points = a.flight_volume.grid(4, 3, 2)
        macs = [ap.mac for ap in a.access_points]
        rss_a = a.environment.mean_rss_dbm_many(macs, points)
        rss_b = b.environment.mean_rss_dbm_many(macs, points)
        np.testing.assert_allclose(rss_a, rss_b, atol=1e-9, rtol=0.0)

    def test_different_seeds_differ(self):
        a = generate_building(small_spec("room-grid", 3))
        b = generate_building(small_spec("room-grid", 4))
        assert [ap.mac for ap in a.access_points] != [
            ap.mac for ap in b.access_points
        ]


class TestRegistryIntegration:
    def test_generated_name_builds(self):
        scenario = build_scenario("generated:room-grid?floors=2&seed=7")
        assert isinstance(scenario, GeneratedScenario)
        assert scenario.spec.floors == 2
        assert scenario.spec.seed == 7

    def test_pinned_seed_wins_over_argument(self):
        scenario = build_scenario("generated:room-grid?seed=7", seed=99)
        assert scenario.spec.seed == 7

    def test_unpinned_seed_comes_from_argument(self):
        scenario = build_scenario("generated:room-grid", seed=99)
        assert scenario.spec.seed == 99

    def test_presets_registered(self):
        names = available_scenarios()
        for preset in GENERATED_PRESETS:
            assert preset in names

    def test_preset_builds_generated_scenario(self):
        scenario = build_scenario("residential-block", seed=4)
        assert isinstance(scenario, GeneratedScenario)
        assert scenario.spec.seed == 4

    def test_metadata_matches_environment(self):
        scenario = build_scenario("generated:corridor-spine?floors=2&seed=5")
        assert scenario.metadata["n_walls"] == len(scenario.environment.walls)
        assert scenario.metadata["n_aps"] == len(scenario.access_points)
        assert scenario.metadata["name"] == scenario.spec.to_name()


class TestToolchainRoundTrip:
    """The acceptance criterion: generate -> active campaign -> REM."""

    @pytest.mark.parametrize(("template", "seed"), TEMPLATE_SEEDS)
    def test_full_toolchain(self, template, seed):
        scenario = generate_building(small_spec(template, seed))
        active = ActiveSamplingConfig(
            seed_waypoints=6,
            batch_size=6,
            budget_waypoints=12,
            predictor_factory=lambda: KnnRegressor(
                n_neighbors=3, weights="distance"
            ),
        )
        result = run_fleet_campaign(
            scenario=scenario, fleet=FleetConfig(n_drones=1), active=active
        )
        assert result.waypoints_flown == 12
        assert len(result.log) > 0, "campaign collected no samples"
        builder = result.builder
        assert builder.ready
        rem = build_rem(
            builder.model,
            builder.dataset(),
            scenario.flight_volume,
            resolution_m=0.5,
        )
        assert len(rem.macs) >= 1
        # The map answers queries inside the generated volume.
        center = tuple(scenario.flight_volume.center)
        mac, rss = rem.strongest_ap(center)
        assert mac in rem.macs
        assert np.isfinite(rss)
