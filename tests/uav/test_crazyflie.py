"""Integration-grade unit tests for the Crazyflie vehicle."""

import copy

import numpy as np
import pytest

from repro.link import Crazyradio, CrazyradioLink, RadioConfig
from repro.radio import build_demo_scenario
from repro.sim import Simulator, Timeout, spawn
from repro.uav import Crazyflie, FirmwareConfig, FlightState, UavConfig
from repro.uav import app_protocol as proto
from repro.uwb import corner_layout
from repro.uwb.localization import WINDOW_S
from tests.oracles import ReferenceTdoaFilter


def make_uav(firmware=None, scenario=None, name="test", **uav_config):
    scenario = scenario or build_demo_scenario(seed=11)
    firmware = firmware or FirmwareConfig.paper_modified()
    sim = Simulator()
    radio = Crazyradio(scenario.environment, RadioConfig())
    link = CrazyradioLink(sim, radio, uav_tx_queue_capacity=firmware.crtp_tx_queue_size)
    uav = Crazyflie(
        sim,
        scenario.environment,
        corner_layout(scenario.flight_volume),
        link,
        firmware,
        scenario.streams.fork(f"test.{name}"),
        config=UavConfig(name=name, start_position=(0.3, 0.3, 0.0), **uav_config),
    )
    return sim, radio, link, uav


class TestTakeoffAndFlight:
    def test_takeoff_reaches_height(self):
        sim, radio, link, uav = make_uav()
        radio.turn_on()
        link.station_send(proto.encode(proto.Takeoff(0.5)))

        def keep_alive():
            # The real client streams setpoints; without them the
            # commander levels out after 500 ms by design.
            for _ in range(15):
                link.station_send(proto.encode(proto.Goto(0.3, 0.3, 0.5)))
                yield Timeout(0.2)

        spawn(sim, keep_alive())
        sim.run(until=3.0)
        assert uav.state is FlightState.FLYING
        assert uav.position[2] == pytest.approx(0.5, abs=0.1)

    def test_goto_moves_uav(self):
        sim, radio, link, uav = make_uav()
        radio.turn_on()
        link.station_send(proto.encode(proto.Takeoff(0.5)))
        sim.run(until=2.5)

        def keep_alive():
            for _ in range(30):
                link.station_send(proto.encode(proto.Goto(1.5, 1.5, 1.0)))
                yield Timeout(0.2)

        spawn(sim, keep_alive())
        sim.run(until=9.0)
        assert np.linalg.norm(uav.position - [1.5, 1.5, 1.0]) < 0.12

    def test_estimator_tracks_truth(self):
        sim, radio, link, uav = make_uav()
        radio.turn_on()
        link.station_send(proto.encode(proto.Takeoff(0.5)))
        sim.run(until=1.0)

        def keep_alive():
            for _ in range(40):
                link.station_send(proto.encode(proto.Goto(0.3, 0.3, 0.5)))
                yield Timeout(0.2)

        spawn(sim, keep_alive())
        sim.run(until=8.0)
        assert np.linalg.norm(uav.estimated_position - uav.position) < 0.2


class TestCatchUpEstimate:
    """The estimate read after landing ≡ the plain filter over its window."""

    @staticmethod
    def fly(read_every_tick):
        sim, radio, link, uav = make_uav()
        if read_every_tick:
            record = uav.estimator.record

            def record_and_read(*args):
                record(*args)
                uav.estimator.position

            uav.estimator.record = record_and_read
        radio.turn_on()
        link.station_send(proto.encode(proto.Takeoff(0.5)))

        def pilot():
            for _ in range(20):
                link.station_send(proto.encode(proto.Goto(1.2, 0.8, 0.9)))
                yield Timeout(0.2)
            link.station_send(proto.encode(proto.Land()))

        spawn(sim, pilot())
        sim.run(until=8.0)
        assert uav.state is FlightState.LANDED
        return uav

    def test_late_read_filters_the_last_window(self):
        late, per_tick = self.fly(False), self.fly(True)
        estimator = late.estimator
        n = estimator._n_pending
        assert n > 100
        reference = ReferenceTdoaFilter(
            estimator.layout,
            estimator.ranging_config,
            estimator.ekf.config,
            estimator.ekf.position,
        )
        for dt, position in zip(
            estimator._pending_dt[:n], estimator._pending_positions[:n]
        ):
            reference.record(dt, position)
        rng = copy.deepcopy(late._uwb_rng)
        expected = reference.read(rng, WINDOW_S)
        assert np.array_equal(late.estimated_position, expected)
        assert np.array_equal(estimator.ekf.P, reference.P)
        assert reference.resets == 1 and len(reference.bursts) == 50
        assert rng.bit_generator.state == late._uwb_rng.bit_generator.state
        # The estimate steers nothing: both flights fly the same path,
        # and the per-tick reader, which never drops a tick, ran more.
        assert np.array_equal(late.position, per_tick.position)
        assert per_tick.estimator.ekf.accepted_updates > estimator.ekf.accepted_updates
        assert np.linalg.norm(late.estimated_position - late.position) < 0.2


class TestLocalizationRate:
    @staticmethod
    def steps_in_ten_seconds(mode):
        sim, radio, link, uav = make_uav(localization_mode=mode)
        radio.turn_on()
        steps = []
        record = uav.estimator.record

        def counted_record(dt, *args):
            steps.append(dt)
            return record(dt, *args)

        uav.estimator.record = counted_record

        def keep_alive():
            for _ in range(60):
                link.station_send(proto.encode(proto.Goto(0.3, 0.3, 0.5)))
                yield Timeout(0.2)

        link.station_send(proto.encode(proto.Takeoff(0.5)))
        spawn(sim, keep_alive())
        sim.run(until=1.0)
        assert uav.state is FlightState.FLYING
        del steps[:]
        sim.run(until=11.0)
        return steps

    def test_twr_steps_at_the_configured_cycle_rate(self):
        steps = self.steps_in_ten_seconds("twr")
        assert len(steps) == pytest.approx(80, abs=1)
        # Each step predicts over the time since the previous one.
        assert sum(steps) == pytest.approx(10.0, abs=0.2)

    def test_tdoa_steps_every_control_tick(self):
        steps = self.steps_in_ten_seconds("tdoa")
        assert len(steps) == pytest.approx(250, abs=1)
        assert set(steps) == {0.04}


class TestWatchdogBehaviour:
    def _fly_and_cut_radio(self, firmware, cut_after=2.0, run_until=20.0):
        sim, radio, link, uav = make_uav(firmware=firmware)
        radio.turn_on()
        link.station_send(proto.encode(proto.Takeoff(0.5)))

        def pilot():
            elapsed = 0.0
            while elapsed < cut_after:
                link.station_send(proto.encode(proto.Goto(0.3, 0.3, 0.5)))
                yield Timeout(0.2)
                elapsed += 0.2
            radio.turn_off()

        spawn(sim, pilot())
        sim.run(until=run_until)
        return uav

    def test_stock_firmware_crashes_when_radio_cut(self):
        uav = self._fly_and_cut_radio(FirmwareConfig.stock_2021_06())
        assert uav.state is FlightState.CRASHED
        assert "watchdog" in uav.crash_reason

    def test_modified_firmware_also_times_out_without_feedback(self):
        # The 10 s watchdog alone is not enough for an indefinite outage;
        # only the feedback task keeps the UAV alive during scans.
        uav = self._fly_and_cut_radio(FirmwareConfig.paper_modified(), run_until=30.0)
        assert uav.state is FlightState.CRASHED


class TestScanTask:
    def _scan_cycle(self, firmware):
        sim, radio, link, uav = make_uav(firmware=firmware)
        radio.turn_on()
        link.station_send(proto.encode(proto.Takeoff(0.5)))
        outcome = {}

        def pilot():
            elapsed = 0.0
            while elapsed < 2.0:
                link.station_send(proto.encode(proto.Goto(0.3, 0.3, 0.5)))
                yield Timeout(0.2)
                elapsed += 0.2
            link.station_send(proto.encode(proto.StartScan()))
            yield Timeout(0.15)
            radio.turn_off()
            yield Timeout(4.0)  # scan window with the link down
            radio.turn_on()
            packets = link.station_poll()
            outcome["messages"] = [proto.decode(p) for p in packets]
            elapsed = 0.0
            while elapsed < 1.0:
                link.station_send(proto.encode(proto.Goto(0.3, 0.3, 0.5)))
                yield Timeout(0.2)
                elapsed += 0.2

        spawn(sim, pilot())
        sim.run(until=15.0)
        return uav, outcome

    def test_scan_with_modified_firmware_survives_and_delivers(self):
        uav, outcome = self._scan_cycle(FirmwareConfig.paper_modified())
        assert uav.state is FlightState.FLYING
        assert uav.scans_completed == 1
        messages = outcome["messages"]
        assert any(isinstance(m, proto.ScanEnd) for m in messages)
        records = [m for m in messages if isinstance(m, proto.ScanRecordMsg)]
        end = next(m for m in messages if isinstance(m, proto.ScanEnd))
        assert end.record_count == len(records)
        assert len(records) > 5

    def test_scan_with_stock_firmware_loses_uav(self):
        uav, outcome = self._scan_cycle(FirmwareConfig.stock_2021_06())
        # Stock watchdog (2 s) fires during the radio-off scan window.
        assert uav.state is FlightState.CRASHED

    def test_stock_queue_overflows_on_results(self):
        # Even ignoring the watchdog, 16 packets cannot hold a full scan.
        sim, radio, link, uav = make_uav(firmware=FirmwareConfig.paper_modified())
        small = FirmwareConfig(
            crtp_tx_queue_size=16,
            commander_watchdog_timeout_s=10.0,
            feedback_task_enabled=True,
        )
        sim2, radio2, link2, uav2 = make_uav(firmware=small, name="small-queue")
        radio2.turn_on()
        link2.station_send(proto.encode(proto.Takeoff(0.5)))
        outcome = {}

        def pilot():
            elapsed = 0.0
            while elapsed < 2.0:
                link2.station_send(proto.encode(proto.Goto(0.3, 0.3, 0.5)))
                yield Timeout(0.2)
                elapsed += 0.2
            link2.station_send(proto.encode(proto.StartScan()))
            yield Timeout(0.15)
            radio2.turn_off()
            yield Timeout(4.0)
            radio2.turn_on()
            outcome["messages"] = [proto.decode(p) for p in link2.station_poll()]

        spawn(sim2, pilot())
        sim2.run(until=12.0)
        assert link2.uav_tx_queue.stats.dropped > 0
        messages = outcome["messages"]
        records = [m for m in messages if isinstance(m, proto.ScanRecordMsg)]
        assert len(records) <= 16


class TestLanding:
    def test_land_transitions_to_landed(self):
        sim, radio, link, uav = make_uav()
        radio.turn_on()
        link.station_send(proto.encode(proto.Takeoff(0.5)))
        sim.run(until=2.0)
        link.station_send(proto.encode(proto.Land()))
        sim.run(until=5.0)
        assert uav.state is FlightState.LANDED
        assert uav.flight_ended_at is not None
        assert uav.active_time_s > 0
