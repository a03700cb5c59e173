"""Fleet acquisition: config, the one-drone golden pin, determinism, workers.

The two contracts pinned here are the ones the serving layer builds on:

* ``n_drones=1`` (what ``acquisition="active"`` flies) reproduces the
  recorded single-UAV campaign exactly — same samples in the same
  order, same duration, same RMSE trajectory;
* the merged sample stream is invariant under kernel interleaving and
  under the ``workers`` (one-OS-process-per-drone) execution mode.
"""

import hashlib

import numpy as np
import pytest

import repro.station.fleet as fleet_module
from repro.station import (
    ActiveSamplingConfig,
    CampaignConfig,
    FleetCampaignResult,
    FleetConfig,
    drone_name,
    merge_fleet_samples,
    run_campaign,
    run_fleet_campaign,
)
from repro.station.storage import SampleLog
from repro.uav.battery import BatteryConfig

#: Small enough to fly in ~a second, big enough for two planning rounds.
QUICK_ACTIVE = ActiveSamplingConfig(
    seed_waypoints=6,
    batch_size=4,
    budget_waypoints=12,
    lattice_nx=4,
    lattice_ny=3,
    lattice_nz=2,
)


def assert_same_samples(log_a, log_b):
    assert len(log_a) == len(log_b)
    for a, b in zip(log_a, log_b):
        assert a == b


def sample_digest(log) -> str:
    """SHA-256 over every field of every sample, floats in hex."""
    digest = hashlib.sha256()
    for s in log:
        floats = (s.timestamp_s, s.x, s.y, s.z, s.true_x, s.true_y, s.true_z)
        row = (
            s.uav_name,
            int(s.waypoint_index),
            *(float(v).hex() for v in floats),
            s.ssid,
            int(s.rssi_dbm),
            s.mac,
            int(s.channel),
        )
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestFleetConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FleetConfig(n_drones=0)
        with pytest.raises(ValueError):
            FleetConfig(n_drones=26)
        with pytest.raises(ValueError):
            FleetConfig(min_separation_m=-0.1)
        with pytest.raises(ValueError):
            FleetConfig(charging_slots=0)
        with pytest.raises(ValueError):
            FleetConfig(charge_time_s=-1.0)
        with pytest.raises(ValueError, match="one pack per drone"):
            FleetConfig(n_drones=3, batteries=(BatteryConfig(),))

    def test_drone_names(self):
        assert drone_name(0) == "UAV-A"
        assert drone_name(3) == "UAV-D"
        with pytest.raises(ValueError):
            drone_name(26)
        with pytest.raises(ValueError):
            drone_name(-1)

    def test_charge_wait_queues_through_slots(self):
        # 4 drones through 1 pad: 4 waves; through 2 pads: 2 waves.
        slow = FleetConfig(n_drones=4, charging_slots=1, charge_time_s=30.0)
        fast = FleetConfig(n_drones=4, charging_slots=2, charge_time_s=30.0)
        assert slow.charge_wait_s() == pytest.approx(120.0)
        assert fast.charge_wait_s() == pytest.approx(60.0)
        assert FleetConfig(n_drones=4).charge_wait_s() == 0.0

    def test_all_default_batteries_canonicalize_to_none(self):
        fleet = FleetConfig(
            n_drones=2, batteries=(BatteryConfig(), BatteryConfig())
        )
        assert fleet.batteries is None
        assert fleet == FleetConfig(n_drones=2)
        assert fleet.battery(1) == BatteryConfig()

    def test_mixed_batteries_survive_and_round_trip(self):
        packs = (BatteryConfig(), BatteryConfig(capacity_mah=300.0))
        fleet = FleetConfig(n_drones=2, batteries=packs)
        assert fleet.batteries == packs
        assert fleet.battery(1).capacity_mah == 300.0
        again = FleetConfig.from_job_fields(fleet.to_job_fields())
        assert again == fleet

    def test_job_fields_reject_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fleet job field"):
            FleetConfig.from_job_fields({"n_dronez": 2})
        with pytest.raises(ValueError, match="unknown battery field"):
            FleetConfig.from_job_fields(
                {"batteries": [{"capacity_mah": 250.0, "volts": 3.7}]}
            )

    def test_job_fields_coerce_numeric_spellings(self):
        fleet = FleetConfig.from_job_fields(
            {"n_drones": 3.0, "min_separation_m": 1, "charging_slots": 2.0}
        )
        assert fleet == FleetConfig(
            n_drones=3, min_separation_m=1.0, charging_slots=2
        )


class TestOneDroneDegeneratesToActive:
    """The single-UAV active campaign, pinned to recorded values.

    The golden numbers were recorded from the dedicated single-drone
    loop this one-drone fleet replaced, and re-recorded once when the
    UWB filter came to run only a read's window of ticks; any drift in
    waypoints, RNG stream forks, sample order or refits shows up here.
    """

    SAMPLES = 457
    SAMPLE_SHA256 = "37e9e139d02d8365336e65c4112ac4c8609037a7cc467636098d3f5db03743a1"
    DURATION_S = 102.90000000000002
    RMSE_TRAJECTORY = [
        (6, 9.668214485955964),
        (10, 9.044379377536874),
        (12, 8.510217834798057),
    ]

    @pytest.fixture(scope="class")
    def fleet_result(self, demo_scenario):
        return run_fleet_campaign(
            scenario=demo_scenario,
            fleet=FleetConfig(n_drones=1),
            active=QUICK_ACTIVE,
        )

    def test_identical_sample_stream(self, fleet_result):
        assert len(fleet_result.log) == self.SAMPLES
        assert sample_digest(fleet_result.log) == self.SAMPLE_SHA256

    def test_identical_trajectory_and_duration(self, fleet_result):
        assert fleet_result.stop_reason == "budget"
        assert fleet_result.waypoints_flown == QUICK_ACTIVE.budget_waypoints
        assert fleet_result.duration_s == pytest.approx(self.DURATION_S, rel=1e-12)
        # pytest.approx does not reach into nested tuples, so the
        # waypoint counts and the RMSEs are compared separately.
        waypoints, rmses = zip(*fleet_result.rmse_trajectory())
        golden_waypoints, golden_rmses = zip(*self.RMSE_TRAJECTORY)
        assert waypoints == golden_waypoints
        assert rmses == pytest.approx(golden_rmses, rel=1e-9)

    def test_no_separation_drops_with_one_drone(self, fleet_result):
        assert all(r.dropped_waypoints == 0 for r in fleet_result.rounds)

    def test_summary_carries_fleet_shape(self, fleet_result):
        summary = fleet_result.summary()
        assert summary["n_drones"] == 1.0
        assert summary["dropped_waypoints"] == 0.0
        assert summary["waypoints_flown"] == QUICK_ACTIVE.budget_waypoints


class TestFleetCampaign:
    @pytest.fixture(scope="class")
    def result(self, demo_scenario):
        return run_fleet_campaign(
            scenario=demo_scenario,
            fleet=FleetConfig(n_drones=2),
            active=QUICK_ACTIVE,
        )

    def test_budget_respected(self, result):
        assert isinstance(result, FleetCampaignResult)
        assert result.stop_reason == "budget"
        assert result.waypoints_flown >= QUICK_ACTIVE.budget_waypoints
        assert len(result.log) > 0

    def test_concurrency_shrinks_makespan(self, demo_scenario, result):
        solo = run_fleet_campaign(
            scenario=demo_scenario,
            fleet=FleetConfig(n_drones=1),
            active=QUICK_ACTIVE,
        )
        assert result.duration_s < solo.duration_s

    def test_rounds_are_monotone(self, result):
        totals = [r.total_waypoints for r in result.rounds]
        assert totals == sorted(totals)

    def test_waypoints_never_repeat(self, result):
        flown = np.vstack([r.waypoints for r in result.rounds])
        unique = {tuple(np.round(p, 6)) for p in flown}
        assert len(unique) == len(flown)

    def test_reports_name_both_drones(self, result):
        names = {report.uav_name.split("/")[0] for report in result.reports}
        assert names == {"UAV-A", "UAV-B"}

    def test_charge_wait_adds_between_rounds(self, demo_scenario):
        charged = run_fleet_campaign(
            scenario=demo_scenario,
            fleet=FleetConfig(n_drones=2, charge_time_s=30.0),
            active=QUICK_ACTIVE,
        )
        free = run_fleet_campaign(
            scenario=demo_scenario,
            fleet=FleetConfig(n_drones=2),
            active=QUICK_ACTIVE,
        )
        waits = (len(charged.rounds) - 1) * charged.fleet.charge_wait_s()
        assert charged.duration_s == pytest.approx(free.duration_s + waits)

    def test_dispatch_through_run_campaign(self, demo_scenario):
        config = CampaignConfig(
            acquisition="fleet",
            active=QUICK_ACTIVE,
            fleet=FleetConfig(n_drones=2),
        )
        result = run_campaign(scenario=demo_scenario, config=config)
        assert isinstance(result, FleetCampaignResult)
        assert result.fleet.n_drones == 2

    def test_explicit_mission_contradicts_fleet(self, demo_scenario):
        from repro.station import plan_demo_mission

        config = CampaignConfig(acquisition="fleet")
        mission = plan_demo_mission(demo_scenario)
        with pytest.raises(ValueError):
            run_campaign(scenario=demo_scenario, mission=mission, config=config)

    def test_negative_workers_rejected(self, demo_scenario):
        with pytest.raises(ValueError, match="workers"):
            run_fleet_campaign(scenario=demo_scenario, workers=-1)


def test_merge_is_deterministic_and_time_ordered():
    from repro.station.storage import Sample

    def sample(t, name, wp):
        return Sample(
            timestamp_s=t,
            uav_name=name,
            waypoint_index=wp,
            x=0.0,
            y=0.0,
            z=0.0,
            true_x=0.0,
            true_y=0.0,
            true_z=0.0,
            ssid="net",
            mac="aa:bb:cc:dd:ee:ff",
            channel=6,
            rssi_dbm=-50.0,
        )

    a = SampleLog([sample(0.0, "UAV-A", 0), sample(2.0, "UAV-A", 1)])
    b = SampleLog([sample(0.0, "UAV-B", 0), sample(1.0, "UAV-B", 1)])
    merged = merge_fleet_samples({1: b, 0: a})
    stamps = [(s.timestamp_s, s.uav_name) for s in merged]
    # Time-major; the drone index breaks the t=0.0 tie, not dict order.
    assert stamps == [
        (0.0, "UAV-A"),
        (0.0, "UAV-B"),
        (1.0, "UAV-B"),
        (2.0, "UAV-A"),
    ]


@pytest.mark.slow
class TestDeterminismUnderInterleaving:
    """Same spec, hostile scheduling → byte-identical results.

    The kernel builds and spawns drones in ``_drone_launch_order``; the
    merge contract promises that order cannot show through.  We run the
    same K=3 campaign with the order monkeypatched to reverse (a worst
    -case reshuffle of event-queue tie-breaking) and with the fan-out
    ``workers`` mode (each drone in its own OS process and kernel), and
    require the merged log and the final model to match exactly.
    """

    FLEET = FleetConfig(n_drones=3)

    @pytest.fixture(scope="class")
    def baseline(self, demo_scenario):
        return run_fleet_campaign(
            scenario=demo_scenario, fleet=self.FLEET, active=QUICK_ACTIVE
        )

    def probe(self, result):
        """Final-model predictions over a coarse probe lattice."""
        volume = result.scenario.flight_volume
        lo, hi = np.asarray(volume.min_corner), np.asarray(volume.max_corner)
        points = lo + (hi - lo) * np.linspace(0.1, 0.9, 4)[:, None]
        macs = sorted(result.builder.vocabulary)
        return np.array(
            [
                [result.builder.predict(p, mac) for mac in macs]
                for p in points
            ]
        )

    def test_reversed_launch_order_is_invisible(
        self, demo_scenario, baseline, monkeypatch
    ):
        monkeypatch.setattr(
            fleet_module,
            "_drone_launch_order",
            lambda drones: list(reversed(drones)),
        )
        shuffled = run_fleet_campaign(
            scenario=demo_scenario, fleet=self.FLEET, active=QUICK_ACTIVE
        )
        assert_same_samples(baseline.log, shuffled.log)
        assert shuffled.duration_s == pytest.approx(baseline.duration_s)
        np.testing.assert_allclose(
            self.probe(shuffled), self.probe(baseline), atol=1e-9
        )

    def test_workers_mode_matches_interleaved_kernel(
        self, demo_scenario, baseline
    ):
        fanned = run_fleet_campaign(
            scenario=demo_scenario,
            fleet=self.FLEET,
            active=QUICK_ACTIVE,
            workers=3,
        )
        assert_same_samples(baseline.log, fanned.log)
        assert fanned.duration_s == pytest.approx(baseline.duration_s)
        np.testing.assert_allclose(
            self.probe(fanned), self.probe(baseline), atol=1e-9
        )

    def test_single_worker_wave_chunks_match_too(
        self, demo_scenario, baseline
    ):
        # workers=1 exercises the sequential wave path of the fan-out.
        chunked = run_fleet_campaign(
            scenario=demo_scenario,
            fleet=self.FLEET,
            active=QUICK_ACTIVE,
            workers=1,
        )
        assert_same_samples(baseline.log, chunked.log)
