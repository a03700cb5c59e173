"""The integrated Crazyflie vehicle: firmware tasks over the sim kernel.

One :class:`Crazyflie` instance wires together every on-board
subsystem of the demo UAV:

* flight dynamics + battery + expansion decks,
* the commander with its setpoint watchdog,
* the UWB position estimator (EKF) used for sample annotation,
* the ESP-01 REM receiver behind its AT driver,
* the CRTP link endpoint with the firmware's bounded TX queue,
* the §II-C scan task, including the position-feedback task that keeps
  the commander fed while the radio is off.

The control loop runs as a generator process on the simulation kernel
at 25 Hz, which also matches the TDoA measurement rate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..link.crazyradio import CrazyradioLink
from ..link.crtp import CrtpPacket, CrtpPort
from ..radio.environment import IndoorEnvironment
from ..sim.kernel import Simulator
from ..sim.process import Process, Timeout, spawn
from ..sim.rng import RandomStreams
from ..uwb.anchors import AnchorLayout
from ..uwb.localization import LocalizationMode, PositionEstimator
from ..uwb.ranging import RangingConfig
from ..wifi.driver import Esp01Driver
from ..wifi.esp8266 import Esp01Module
from ..wifi.scanner import ScanConfig
from . import app_protocol as proto
from .battery import Battery, BatteryConfig
from .commander import Commander, CommanderState
from .decks import ESP_DECK, LOCO_DECK, DeckSlots
from .dynamics import DynamicsConfig, FlightDynamics
from .firmware import FirmwareConfig

__all__ = ["FlightState", "UavConfig", "Crazyflie"]


class FlightState(enum.Enum):
    """Top-level vehicle state."""

    IDLE = 0
    FLYING = 1
    LANDED = 2
    CRASHED = 3


@dataclass(frozen=True)
class UavConfig:
    """Per-UAV configuration (§III-A: address, start position, timing)."""

    name: str = "uav"
    start_position: Tuple[float, float, float] = (0.2, 0.2, 0.0)
    control_period_s: float = 0.04
    scan_duration_s: float = 2.3
    scan_startup_s: float = 0.3
    landing_time_s: float = 1.5
    localization_mode: str = LocalizationMode.TDOA
    rx_gain_offset_db: float = 0.0


class Crazyflie:
    """A simulated Crazyflie 2.1 with LPS and ESP-01 decks."""

    def __init__(
        self,
        sim: Simulator,
        environment: IndoorEnvironment,
        anchor_layout: AnchorLayout,
        link: CrazyradioLink,
        firmware: FirmwareConfig,
        streams: RandomStreams,
        config: Optional[UavConfig] = None,
        scan_config: Optional[ScanConfig] = None,
        battery_config: Optional[BatteryConfig] = None,
        dynamics_config: Optional[DynamicsConfig] = None,
        ranging_config: Optional[RangingConfig] = None,
        receiver_module=None,
        receiver_driver=None,
    ):
        self.sim = sim
        self.environment = environment
        self.config = config or UavConfig()
        self.firmware = firmware
        self.link = link
        name = self.config.name
        self._rng = streams.get(f"uav.{name}.flight")

        # Airframe.
        self.battery = Battery(battery_config)
        self.decks = DeckSlots()
        self.decks.attach(LOCO_DECK)
        self.decks.attach(ESP_DECK)
        self.dynamics = FlightDynamics(self.config.start_position, dynamics_config)
        self.commander = Commander(firmware)

        # Localization (EKF over UWB).
        self.estimator = PositionEstimator(
            anchor_layout,
            mode=self.config.localization_mode,
            ranging_config=ranging_config,
            initial_position=self.config.start_position,
        )
        self._uwb_rng = streams.get(f"uav.{name}.uwb")
        # Time owed to the measurement schedule, and the time since the
        # last recorded estimator tick (the filter's prediction horizon).
        self._uwb_accum_s = 0.0
        self._uwb_elapsed_s = 0.0

        # REM receiver.  Defaults to the ESP-01 Wi-Fi deck; any module
        # implementing set_position()/scan_duration_s plus a driver
        # honoring the §II-A four-instruction contract can be carried
        # instead (e.g. the BLE observer) — the toolchain is receiver-
        # technology-agnostic by design.
        if receiver_module is None:
            base_scan_config = scan_config or ScanConfig()
            if self.config.rx_gain_offset_db != base_scan_config.rx_gain_offset_db:
                from dataclasses import replace

                base_scan_config = replace(
                    base_scan_config, rx_gain_offset_db=self.config.rx_gain_offset_db
                )
            receiver_module = Esp01Module(
                environment,
                streams.get(f"uav.{name}.scan"),
                scan_config=base_scan_config,
                scan_duration_s=self.config.scan_duration_s,
            )
            if receiver_driver is None:
                receiver_driver = Esp01Driver(receiver_module)
        elif receiver_driver is None:
            raise ValueError("receiver_module requires a matching receiver_driver")
        self.receiver_module = receiver_module
        self.receiver_module.set_position(self.config.start_position)
        self.driver = receiver_driver

        # State.
        self.state = FlightState.IDLE
        self.scanning = False
        self.crash_reason: Optional[str] = None
        self.scans_completed = 0
        self.flight_started_at: Optional[float] = None
        self.flight_ended_at: Optional[float] = None

        link.attach_uav(self._handle_packet)
        self._control_process = spawn(sim, self._control_loop(), name=f"{name}.control")

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def position(self) -> np.ndarray:
        """Ground-truth position (the simulator's view)."""
        return self.dynamics.position.copy()

    @property
    def estimated_position(self) -> np.ndarray:
        """The on-board EKF estimate (what annotates samples).

        The control loop only records UWB ticks; this read filters the
        pending ones of the last
        :data:`~repro.uwb.localization.WINDOW_S` seconds (restarting
        the filter from its last position when older ones are dropped),
        so the estimate is current as of the last tick.
        """
        return self.estimator.position

    @property
    def flying(self) -> bool:
        """True while airborne."""
        return self.state is FlightState.FLYING

    @property
    def active_time_s(self) -> float:
        """Airborne seconds so far (or of the finished flight)."""
        if self.flight_started_at is None:
            return 0.0
        end = self.flight_ended_at if self.flight_ended_at is not None else self.sim.now
        return end - self.flight_started_at

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def _control_loop(self):
        dt = self.config.control_period_s
        uwb_period = 1.0 / self.estimator.update_rate_hz
        while self.state not in (FlightState.CRASHED, FlightState.LANDED):
            yield Timeout(dt)
            now = self.sim.now
            if self.state is not FlightState.FLYING:
                continue
            # Watchdog.
            cmd_state = self.commander.state(now)
            if cmd_state is CommanderState.SHUTDOWN:
                self._crash("commander watchdog timeout")
                continue
            if cmd_state is CommanderState.CONTROLLED:
                setpoint = self.commander.setpoint
                if setpoint is not None:
                    self.dynamics.set_setpoint(setpoint)
            else:
                self.dynamics.clear_setpoint()
            # Dynamics + localization.
            self.dynamics.update(dt, self._rng)
            # The remainder carries over, so a period that is not a
            # multiple of the tick (TWR's 0.125 s) keeps its mean rate.
            self._uwb_accum_s += dt
            self._uwb_elapsed_s += dt
            if self._uwb_accum_s >= uwb_period:
                self.estimator.record(
                    self._uwb_elapsed_s, self.dynamics.position, self._uwb_rng
                )
                self._uwb_accum_s -= uwb_period
                self._uwb_elapsed_s = 0.0
            self.receiver_module.set_position(self.dynamics.position)
            # Power.
            current = self.battery.config.hover_current_ma
            if self.dynamics.moving:
                current += self.battery.config.translate_extra_ma
            current += self.decks.total_current_ma(scanning=self.scanning)
            self.battery.draw(current, dt)
            if self.battery.depleted:
                self._crash("battery depleted")

    def _crash(self, reason: str) -> None:
        if self.state is FlightState.CRASHED:
            return
        self.state = FlightState.CRASHED
        self.crash_reason = reason
        self.flight_ended_at = self.sim.now
        self.dynamics.airborne = False

    # ------------------------------------------------------------------
    # packet handling (the firmware app)
    # ------------------------------------------------------------------
    def _handle_packet(self, packet: CrtpPacket) -> None:
        if packet.port != CrtpPort.APP:
            return
        message = proto.decode(packet)
        if isinstance(message, proto.Takeoff):
            self._do_takeoff(message.height_m)
        elif isinstance(message, proto.Goto):
            if self.state is FlightState.FLYING:
                self.commander.feed(message.position, self.sim.now)
        elif isinstance(message, proto.StartScan):
            if self.state is FlightState.FLYING and not self.scanning:
                spawn(self.sim, self._scan_task(), name=f"{self.config.name}.scan")
        elif isinstance(message, proto.Land):
            if self.state is FlightState.FLYING:
                spawn(self.sim, self._land_task(), name=f"{self.config.name}.land")
        elif isinstance(message, proto.StatusRequest):
            self._send_status()

    def _do_takeoff(self, height_m: float) -> None:
        if self.state is not FlightState.IDLE:
            return
        self.state = FlightState.FLYING
        self.dynamics.airborne = True
        self.flight_started_at = self.sim.now
        target = self.dynamics.position.copy()
        target[2] = height_m
        self.commander.feed(target, self.sim.now)
        try:
            self.driver.initialize()
        except Exception:
            self._crash("REM receiver initialization failed")

    def _send_status(self) -> None:
        est = self.estimated_position
        self.link.uav_send(
            proto.encode(
                proto.Status(
                    state=self.state.value,
                    battery_fraction=self.battery.remaining_fraction,
                    x=float(est[0]),
                    y=float(est[1]),
                    z=float(est[2]),
                )
            )
        )

    # ------------------------------------------------------------------
    # scan task (§II-C) with the position-feedback task
    # ------------------------------------------------------------------
    def _scan_task(self):
        self.scanning = True
        feedback: Optional[Process] = None
        if self.firmware.feedback_task_enabled:
            feedback = spawn(
                self.sim, self._feedback_task(), name=f"{self.config.name}.feedback"
            )
        try:
            # Mode switches / scan engine startup before sampling begins;
            # the client uses this window to shut the radio down.
            yield Timeout(self.config.scan_startup_s)
            duration = self.driver.start_measurement()
            yield Timeout(duration)
            records = self.driver.parse_output()
            for record in records:
                self.link.uav_send(
                    proto.encode(
                        proto.ScanRecordMsg(
                            mac=record.mac,
                            rssi_dbm=record.rssi_dbm,
                            channel=record.channel,
                            ssid=record.ssid,
                        )
                    )
                )
            est = self.estimated_position
            self.link.uav_send(
                proto.encode(
                    proto.ScanEnd(
                        record_count=len(records),
                        x=float(est[0]),
                        y=float(est[1]),
                        z=float(est[2]),
                        battery_fraction=self.battery.remaining_fraction,
                    )
                )
            )
            self.scans_completed += 1
        finally:
            self.scanning = False
            if feedback is not None:
                feedback.interrupt()

    def _feedback_task(self):
        """Feed the commander the scan position every 100 ms (§II-C)."""
        hold = self.dynamics.position.copy()
        while self.scanning and self.state is FlightState.FLYING:
            self.commander.feed(hold, self.sim.now)
            yield Timeout(self.firmware.feedback_period_s)

    # ------------------------------------------------------------------
    def _land_task(self):
        target = self.dynamics.position.copy()
        target[2] = 0.05
        self.commander.feed(target, self.sim.now)
        yield Timeout(self.config.landing_time_s)
        if self.state is FlightState.FLYING:
            self.state = FlightState.LANDED
            self.dynamics.airborne = False
            self.flight_ended_at = self.sim.now
