"""End-to-end campaign runner: the full §III-A data collection.

``run_campaign`` builds the demo environment, plans the 72-waypoint
mission, and flies the fleet sequentially (one Crazyradio, one UAV in
the air at a time — the paper's interference-avoidance choice),
returning the sample log plus per-UAV flight reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..link.crazyradio import Crazyradio, CrazyradioLink, RadioConfig
from ..radio.scenarios import DemoScenario, build_scenario
from ..sim.kernel import Simulator
from ..sim.process import spawn
from ..uav.crazyflie import Crazyflie, UavConfig
from ..uav.firmware import FirmwareConfig
from ..uwb.anchors import corner_layout
from ..uwb.localization import LocalizationMode
from ..wifi.scanner import ScanConfig
from .client import BaseStationClient, ClientConfig, UavFlightReport
from .mission import Mission, plan_demo_mission
from .storage import SampleLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .active import ActiveSamplingConfig
    from .fleet import FleetConfig

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]

#: Valid ``CampaignConfig.acquisition`` strategies.
ACQUISITION_STRATEGIES = ("lattice", "active", "fleet")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign needs beyond the RF scenario."""

    seed: int = 63
    #: Registered scenario name used when no scenario object is passed.
    scenario: str = "condo"
    #: Waypoint acquisition strategy: ``"lattice"`` flies the paper's
    #: fixed grid; ``"fleet"`` runs the uncertainty-driven loop
    #: (:func:`repro.station.fleet.run_fleet_campaign`) with K
    #: concurrent drones; ``"active"`` runs it with one drone.
    acquisition: str = "lattice"
    #: Acquisition-loop tunables for ``acquisition="active"`` and
    #: ``"fleet"`` (defaults applied there when left as ``None``).
    active: Optional["ActiveSamplingConfig"] = None
    #: Fleet shape for ``acquisition="fleet"`` (drone count, pairwise
    #: separation, batteries, charging; defaults applied when ``None``).
    fleet: Optional["FleetConfig"] = None
    firmware: FirmwareConfig = field(default_factory=FirmwareConfig.paper_modified)
    localization_mode: str = LocalizationMode.TDOA
    anchor_count: int = 8
    scan_duration_s: float = 3.0
    client: ClientConfig = field(default_factory=ClientConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    scan_config: ScanConfig = field(default_factory=ScanConfig)

    # -- job-spec adapter (see repro.serve.spec) -----------------------
    #: Fields a JSON job spec pins at their defaults: hardware and
    #: protocol tunables with no JSON form.  A config customizing any
    #: of them is not spec-representable.
    _JOB_LOCKED = (
        "firmware",
        "localization_mode",
        "anchor_count",
        "scan_duration_s",
        "client",
        "radio",
        "scan_config",
    )

    def to_job_fields(self) -> Dict[str, object]:
        """The JSON-safe field dict a :class:`~repro.serve.RemJobSpec` carries.

        Raises ``ValueError`` when a hardware/protocol field (firmware,
        radio, scanner, client timing, localization) differs from its
        default — those have no JSON form and cannot round-trip
        through a job spec.
        """
        reference = type(self)()
        for name in self._JOB_LOCKED:
            if getattr(self, name) != getattr(reference, name):
                raise ValueError(
                    f"campaign field {name!r} differs from its default and "
                    "cannot be expressed in a job spec"
                )
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "acquisition": self.acquisition,
            "active": None if self.active is None else self.active.to_job_fields(),
            "fleet": None if self.fleet is None else self.fleet.to_job_fields(),
        }

    @classmethod
    def from_job_fields(cls, params: Dict[str, object]) -> "CampaignConfig":
        """Inverse of :meth:`to_job_fields`."""
        from .active import ActiveSamplingConfig
        from .fleet import FleetConfig

        active = params.get("active")
        fleet = params.get("fleet")
        return cls(
            seed=int(params.get("seed", 63)),
            scenario=str(params.get("scenario", "condo")),
            acquisition=str(params.get("acquisition", "lattice")),
            active=(
                None if active is None else ActiveSamplingConfig.from_job_fields(active)
            ),
            fleet=(
                None if fleet is None else FleetConfig.from_job_fields(fleet)
            ),
        )


@dataclass
class CampaignResult:
    """Output of one full campaign."""

    scenario: DemoScenario
    mission: Mission
    log: SampleLog
    reports: List[UavFlightReport]
    duration_s: float

    @property
    def total_samples(self) -> int:
        """Samples across the fleet."""
        return len(self.log)

    def samples_by_uav(self) -> Dict[str, int]:
        """UAV name → collected sample count."""
        return {name: len(sub) for name, sub in self.log.by_uav().items()}

    def summary(self) -> Dict[str, float]:
        """The §III-A headline numbers."""
        return {
            "total_samples": float(len(self.log)),
            "distinct_macs": float(len(self.log.macs())),
            "distinct_ssids": float(len(self.log.ssids())),
            "mean_rss_dbm": self.log.mean_rss_dbm(),
            "duration_s": self.duration_s,
        }


def run_campaign(
    scenario: Optional[DemoScenario] = None,
    mission: Optional[Mission] = None,
    config: Optional[CampaignConfig] = None,
):
    """Fly the full demo campaign and return the collected data.

    Parameters
    ----------
    scenario:
        RF world to fly in; built from ``config.scenario`` (the registry
        name, demo condo by default) when omitted.
    mission:
        Fleet plan; the 72-waypoint / 2-UAV demo mission when omitted.
    config:
        Campaign tunables (firmware, localization mode, timing).  With
        ``config.acquisition`` ``"active"`` or ``"fleet"`` the call
        delegates to :func:`repro.station.fleet.run_fleet_campaign` —
        ``"active"`` with ``FleetConfig(n_drones=1)``, ``"fleet"`` with
        ``config.fleet`` — and returns a
        :class:`~repro.station.fleet.FleetCampaignResult` instead
        (``mission`` must then be omitted — the planner picks the
        waypoints).
    """
    config = config or CampaignConfig()
    if config.acquisition not in ACQUISITION_STRATEGIES:
        raise ValueError(
            f"unknown acquisition {config.acquisition!r}; "
            f"choose from {ACQUISITION_STRATEGIES}"
        )
    if config.acquisition != "lattice":
        if mission is not None:
            raise ValueError(
                "an explicit mission contradicts "
                f"acquisition={config.acquisition!r} "
                "(the planner chooses the waypoints)"
            )
        from .fleet import FleetConfig, run_fleet_campaign

        return run_fleet_campaign(
            scenario=scenario,
            config=config,
            fleet=(
                FleetConfig(n_drones=1)
                if config.acquisition == "active"
                else config.fleet
            ),
            active=config.active,
        )
    if scenario is None:
        scenario = build_scenario(config.scenario, seed=config.seed)
    if mission is None:
        mission = plan_demo_mission(scenario)

    sim = Simulator()
    environment = scenario.environment
    radio = Crazyradio(environment, config.radio)
    layout = corner_layout(scenario.flight_volume).subset(config.anchor_count)
    log = SampleLog()
    reports: List[UavFlightReport] = []

    start_time = sim.now
    for uav_conf, plan in mission.assignments:
        link = CrazyradioLink(
            sim,
            radio,
            uav_tx_queue_capacity=config.firmware.crtp_tx_queue_size,
            address=uav_conf.radio_address,
        )
        uav = Crazyflie(
            sim,
            environment,
            layout,
            link,
            config.firmware,
            scenario.streams.fork(f"campaign.{uav_conf.name}"),
            config=UavConfig(
                name=uav_conf.name,
                start_position=uav_conf.start_position,
                scan_duration_s=config.scan_duration_s,
                localization_mode=config.localization_mode,
                rx_gain_offset_db=uav_conf.rx_gain_offset_db,
            ),
            scan_config=config.scan_config,
        )
        client = BaseStationClient(
            sim, radio, link, uav, uav_conf, plan, log, config.client
        )
        process = spawn(sim, client.run(), name=f"client.{uav_conf.name}")
        sim.run()
        if not process.finished:
            raise RuntimeError(
                f"campaign stalled while flying {uav_conf.name} "
                f"(simulated t={sim.now:.1f}s)"
            )
        reports.append(client.report)

    return CampaignResult(
        scenario=scenario,
        mission=mission,
        log=log,
        reports=reports,
        duration_s=sim.now - start_time,
    )
