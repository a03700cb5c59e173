"""Tests for the uncertainty-driven active sampling subsystem.

An active campaign is the one-drone fleet: the loop runs through
:func:`repro.station.run_fleet_campaign` with ``FleetConfig(n_drones=1)``.
"""

import numpy as np
import pytest

from repro.radio.geometry import Cuboid
from repro.station import (
    ActiveSamplingConfig,
    ActiveSamplingPlanner,
    CampaignConfig,
    FleetCampaignResult,
    FleetConfig,
    run_campaign,
    run_fleet_campaign,
)


def lattice_candidates():
    xs, ys, zs = np.meshgrid(
        np.linspace(0.0, 3.0, 4),
        np.linspace(0.0, 2.0, 3),
        np.linspace(0.5, 1.5, 2),
        indexing="ij",
    )
    return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])


class TestPlanner:
    def test_no_fly_zones_filter_candidates(self):
        candidates = lattice_candidates()
        zone = Cuboid((-0.1, -0.1, 0.0), (1.1, 2.1, 2.0))
        planner = ActiveSamplingPlanner(candidates, no_fly=(zone,))
        assert len(planner.candidates) < len(candidates)
        assert not any(zone.contains(p) for p in planner.candidates)

    def test_all_candidates_excluded_raises(self):
        candidates = lattice_candidates()
        everything = Cuboid((-1.0, -1.0, -1.0), (5.0, 5.0, 5.0))
        with pytest.raises(ValueError):
            ActiveSamplingPlanner(candidates, no_fly=(everything,))

    def test_seed_batch_is_spread_and_marks_visited(self):
        planner = ActiveSamplingPlanner(lattice_candidates())
        batch = planner.seed_batch(6)
        assert len(batch) == 6
        assert len(set(batch.tolist())) == 6
        assert len(planner.remaining_indices) == len(planner.candidates) - 6
        # Farthest-point seeding must span the volume, not cluster.
        points = planner.candidates[batch]
        spans = points.max(axis=0) - points.min(axis=0)
        assert (spans > 0).all()

    def test_select_batch_prefers_high_uncertainty(self):
        planner = ActiveSamplingPlanner(
            lattice_candidates(), travel_weight_db_per_m=0.0
        )
        remaining = planner.remaining_indices
        scores = np.zeros(len(remaining))
        best = [3, 11, 17]
        scores[best] = 10.0
        batch = planner.select_batch(scores, np.zeros(3), batch_size=3)
        assert sorted(batch.tolist()) == sorted(remaining[best].tolist())

    def test_travel_cost_breaks_ties(self):
        planner = ActiveSamplingPlanner(
            lattice_candidates(), travel_weight_db_per_m=1.0
        )
        remaining = planner.remaining_indices
        scores = np.ones(len(remaining))  # uniform uncertainty
        start = planner.candidates[0]
        batch = planner.select_batch(scores, start, batch_size=1)
        picked = planner.candidates[batch[0]]
        distances = np.linalg.norm(planner.candidates - start, axis=1)
        assert np.linalg.norm(picked - start) == pytest.approx(distances.min())

    def test_score_shape_mismatch_rejected(self):
        planner = ActiveSamplingPlanner(lattice_candidates())
        with pytest.raises(ValueError):
            planner.select_batch(np.zeros(3), np.zeros(3), batch_size=2)

    def test_exhaustion(self):
        planner = ActiveSamplingPlanner(lattice_candidates())
        planner.seed_batch(len(planner.candidates))
        assert planner.exhausted
        assert len(planner.remaining_points) == 0


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ActiveSamplingConfig(seed_waypoints=0)
        with pytest.raises(ValueError):
            ActiveSamplingConfig(batch_size=0)
        with pytest.raises(ValueError):
            ActiveSamplingConfig(seed_waypoints=10, budget_waypoints=5)
        with pytest.raises(ValueError):
            ActiveSamplingConfig(travel_weight_db_per_m=-1.0)
        with pytest.raises(ValueError):
            ActiveSamplingConfig(patience_rounds=-1)


QUICK_ACTIVE = ActiveSamplingConfig(
    seed_waypoints=6,
    batch_size=4,
    budget_waypoints=14,
    refit_every_scans=6,
)
ONE_DRONE = FleetConfig(n_drones=1)


class TestActiveCampaign:
    @pytest.fixture(scope="class")
    def result(self, demo_scenario):
        return run_fleet_campaign(
            scenario=demo_scenario, fleet=ONE_DRONE, active=QUICK_ACTIVE
        )

    def test_budget_respected(self, result):
        assert result.stop_reason == "budget"
        assert result.waypoints_flown == QUICK_ACTIVE.budget_waypoints
        assert len(result.log) > 0

    def test_rounds_are_monotone(self, result):
        totals = [r.total_waypoints for r in result.rounds]
        assert totals == sorted(totals)
        samples = [r.samples_ingested for r in result.rounds]
        assert samples == sorted(samples)

    def test_waypoints_never_repeat(self, result):
        flown = np.vstack([r.waypoints for r in result.rounds])
        unique = {tuple(np.round(p, 6)) for p in flown}
        assert len(unique) == len(flown)

    def test_builder_holds_all_samples(self, result):
        assert result.builder.samples_ingested == len(result.log)
        assert result.final_rmse_dbm is not None

    def test_trajectory_shape(self, result):
        trajectory = result.rmse_trajectory()
        assert trajectory[0][0] == QUICK_ACTIVE.seed_waypoints
        assert trajectory[-1][0] == QUICK_ACTIVE.budget_waypoints

    def test_target_rmse_stops_immediately(self, demo_scenario):
        generous = ActiveSamplingConfig(
            seed_waypoints=6,
            batch_size=4,
            budget_waypoints=20,
            target_rmse_dbm=50.0,
        )
        result = run_fleet_campaign(
            scenario=demo_scenario, fleet=ONE_DRONE, active=generous
        )
        assert result.stop_reason == "target_rmse"
        assert result.waypoints_flown == 6

    def test_round_callback_sees_every_round(self, demo_scenario):
        seen = []
        run_fleet_campaign(
            scenario=demo_scenario,
            fleet=ONE_DRONE,
            active=QUICK_ACTIVE,
            round_callback=lambda round_, builder: seen.append(
                (round_.round_index, builder.ready)
            ),
        )
        assert [index for index, _ in seen] == list(range(len(seen)))
        assert all(ready for _, ready in seen)


class TestCampaignDispatch:
    def test_acquisition_active_dispatches(self, demo_scenario):
        config = CampaignConfig(acquisition="active", active=QUICK_ACTIVE)
        result = run_campaign(scenario=demo_scenario, config=config)
        assert isinstance(result, FleetCampaignResult)
        assert result.fleet == ONE_DRONE
        assert result.waypoints_flown == QUICK_ACTIVE.budget_waypoints

    def test_unknown_acquisition_rejected(self):
        config = CampaignConfig(acquisition="psychic")
        with pytest.raises(ValueError):
            run_campaign(config=config)

    def test_explicit_mission_contradicts_active(self, demo_scenario):
        from repro.station import plan_demo_mission

        config = CampaignConfig(acquisition="active")
        mission = plan_demo_mission(demo_scenario)
        with pytest.raises(ValueError):
            run_campaign(scenario=demo_scenario, mission=mission, config=config)
