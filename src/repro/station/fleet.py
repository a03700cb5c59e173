"""The acquisition loop: partition, fly concurrently, merge, refit.

The paper collects its map with drones flown one at a time (§III-A's
single shared Crazyradio).  :func:`run_fleet_campaign` is the one
uncertainty-driven acquisition loop — seed → fly → refit → score →
stop → select, with the tunables and planner of :mod:`.active` — and
spends each round's waypoint batch across **K drones flying at once**.
An ``acquisition="active"`` campaign is its one-drone fleet.

1. **Partition** — the planner's greedy batch is split spatially with
   the balanced k-means strategy of :func:`.scheduler.partition_waypoints`
   (each drone gets a compact, snake-ordered region tour: the fixed
   flight legs assume short hops, and a scan commanded before the UAV
   arrives would be annotated at the wrong place), capped by every
   drone's own :meth:`~repro.uav.battery.BatteryConfig
   .endurance_waypoints` (the §III-A battery duty cycle), and repaired
   against the pairwise anti-collision separation (conflicting
   waypoints return to the candidate pool).
2. **Fly** — all K tours run in *one* :class:`~repro.sim.kernel
   .Simulator` as interleaved client processes, each drone on its own
   radio address and its own name-keyed RNG stream fork.  Because
   streams fork by name (order-independent) and drones share no
   mutable state, each drone's samples are identical to a solo flight
   — which is also why the optional ``workers`` mode may fan rounds
   out over OS processes (one kernel per drone) and get byte-identical
   results back faster.
3. **Merge** — per-drone sample logs merge into one stream keyed on
   ``(timestamp, drone, intra-drone order)`` before feeding the shared
   :class:`~.online.OnlineRemBuilder`, so the combined log — and hence
   the artifact built from it — is a pure function of the spec, no
   matter how the kernel or the OS interleaved the flights.

With ``n_drones=1`` each step is trivial: one tour (the batch in
serpentine order), no separation pairs, an identity merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..link.crazyradio import Crazyradio, CrazyradioLink
from ..radio.scenarios import DemoScenario, build_scenario
from ..sim.kernel import Simulator
from ..sim.process import spawn
from ..uav.battery import BatteryConfig
from ..uav.crazyflie import Crazyflie, UavConfig
from ..uwb.anchors import corner_layout
from ..wifi.beacon import ScanRecord
from .active import ActiveSamplingConfig, ActiveSamplingPlanner
from .campaign import CampaignConfig
from .client import BaseStationClient, UavFlightReport
from .mission import plan_batch_mission
from .online import OnlineRemBuilder
from .scheduler import partition_waypoints
from .storage import Sample, SampleLog
from .waypoints import waypoint_grid

__all__ = [
    "FleetConfig",
    "FleetRoundPlan",
    "FleetRound",
    "FleetCampaignResult",
    "drone_name",
    "plan_fleet_round",
    "first_separation_conflict",
    "merge_fleet_samples",
    "run_fleet_campaign",
]

#: Battery dict keys a job spec may carry (see ``FleetConfig.batteries``).
_BATTERY_FIELDS = (
    "capacity_mah",
    "hover_current_ma",
    "translate_extra_ma",
    "erratic_reserve_fraction",
)


def drone_name(index: int) -> str:
    """Fleet naming scheme: drone 0 is ``UAV-A``, drone 1 ``UAV-B``, ...

    Drone 0 keeps the single-UAV campaign's name, radio address and
    start pad, so an ``acquisition="active"`` campaign (the one-drone
    fleet) forks its RNG streams under ``campaign.UAV-A/flight-NN``.
    """
    if not 0 <= index < 26:
        raise ValueError(f"drone index must be in [0, 26), got {index}")
    return f"UAV-{chr(ord('A') + index)}"


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of a concurrent multi-drone acquisition fleet."""

    #: Drones flying each round (1 = ``acquisition="active"``).
    n_drones: int = 2
    #: Pairwise anti-collision distance enforced between simultaneous
    #: batch positions at planning time (0 disables the check).
    min_separation_m: float = 0.5
    #: Charging pads available between rounds; fewer slots than drones
    #: means recharge waves queue (staggered charging).
    charging_slots: int = 1
    #: Wall time one recharge wave takes between rounds; the default 0
    #: models instant battery swaps (so a campaign's duration is its
    #: flight time alone).
    charge_time_s: float = 0.0
    #: Per-drone battery models; ``None`` gives every drone the default
    #: pack.  When set, must carry exactly ``n_drones`` entries.
    batteries: Optional[Tuple[BatteryConfig, ...]] = None

    def __post_init__(self) -> None:
        if not 1 <= self.n_drones < 26:
            raise ValueError(f"n_drones must be in [1, 26), got {self.n_drones}")
        if self.min_separation_m < 0:
            raise ValueError("min_separation_m must be >= 0")
        if self.charging_slots < 1:
            raise ValueError("charging_slots must be >= 1")
        if self.charge_time_s < 0:
            raise ValueError("charge_time_s must be >= 0")
        if self.batteries is not None:
            packs = tuple(self.batteries)
            if len(packs) != self.n_drones:
                raise ValueError(
                    f"batteries must carry one pack per drone "
                    f"({self.n_drones}), got {len(packs)}"
                )
            # Canonicalize: an all-default tuple is the same fleet as
            # ``None`` and must hash to the same job digest.
            if all(pack == BatteryConfig() for pack in packs):
                packs = None
            object.__setattr__(self, "batteries", packs)

    # ------------------------------------------------------------------
    def battery(self, drone: int) -> BatteryConfig:
        """The battery pack of ``drone`` (default pack when unset)."""
        if self.batteries is None:
            return BatteryConfig()
        return self.batteries[drone]

    def charge_wait_s(self) -> float:
        """Inter-round recharge wall: drones queue through the slots."""
        if self.charge_time_s <= 0:
            return 0.0
        waves = math.ceil(self.n_drones / self.charging_slots)
        return self.charge_time_s * waves

    # -- job-spec adapter (see repro.serve.spec) -----------------------
    def to_job_fields(self) -> Dict[str, object]:
        """The JSON-safe field dict a :class:`~repro.serve.RemJobSpec` carries."""
        batteries = None
        if self.batteries is not None:
            batteries = [
                {name: float(getattr(pack, name)) for name in _BATTERY_FIELDS}
                for pack in self.batteries
            ]
        return {
            "n_drones": self.n_drones,
            "min_separation_m": self.min_separation_m,
            "charging_slots": self.charging_slots,
            "charge_time_s": self.charge_time_s,
            "batteries": batteries,
        }

    @classmethod
    def from_job_fields(cls, params: Dict[str, object]) -> "FleetConfig":
        """Inverse of :meth:`to_job_fields` (unknown keys raise)."""
        known = ("n_drones", "min_separation_m", "charging_slots", "charge_time_s")
        unknown = sorted(set(params) - set(known) - {"batteries"})
        if unknown:
            raise ValueError(
                f"unknown fleet job field(s) {unknown}; "
                f"choose from {sorted(known + ('batteries',))}"
            )
        batteries = params.get("batteries")
        packs: Optional[Tuple[BatteryConfig, ...]] = None
        if batteries is not None:
            packs = tuple(cls._battery_from_fields(entry) for entry in batteries)
        kwargs: Dict[str, object] = {"batteries": packs}
        for name in ("n_drones", "charging_slots"):
            if name in params:
                kwargs[name] = int(params[name])
        for name in ("min_separation_m", "charge_time_s"):
            if name in params:
                kwargs[name] = float(params[name])
        return cls(**kwargs)

    @staticmethod
    def _battery_from_fields(entry: Dict[str, object]) -> BatteryConfig:
        unknown = sorted(set(entry) - set(_BATTERY_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown battery field(s) {unknown}; "
                f"choose from {sorted(_BATTERY_FIELDS)}"
            )
        return BatteryConfig(**{k: float(v) for k, v in entry.items()})


# ----------------------------------------------------------------------
# round planning (pure — the property suite drives these directly)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetRoundPlan:
    """One round's tours: who flies where, and what got bumped."""

    #: Per-drone flown-order waypoints ((n_d, 3); possibly empty).
    tours: Tuple[np.ndarray, ...]
    #: Per-drone indices into the input batch, aligned with ``tours``.
    tour_indices: Tuple[np.ndarray, ...]
    #: Input-batch indices bumped by the separation repair (they return
    #: to the planner pool and stay eligible for later rounds).
    dropped_indices: np.ndarray

    @property
    def waypoints_flown(self) -> int:
        """Waypoints actually scheduled across the fleet this round."""
        return int(sum(len(t) for t in self.tours))


def first_separation_conflict(
    tours: Sequence[np.ndarray], min_separation_m: float
) -> Optional[Tuple[int, int, int]]:
    """First ``(step, drone_a, drone_b)`` violating the separation.

    Tours advance step-synchronized (leg cadence is fleet-wide: every
    drone flies the same ``flight_leg_s``/``scan_window_s`` rhythm);
    a drone whose tour ended has landed and no longer conflicts.
    Returns ``None`` when every simultaneous pair keeps its distance.
    """
    if min_separation_m <= 0:
        return None
    depth = max((len(t) for t in tours), default=0)
    for step in range(depth):
        airborne = [d for d, tour in enumerate(tours) if len(tour) > step]
        for i, a in enumerate(airborne):
            for b in airborne[i + 1 :]:
                gap = float(np.linalg.norm(tours[a][step] - tours[b][step]))
                if gap < min_separation_m:
                    return step, a, b
    return None


def plan_fleet_round(
    points: np.ndarray, fleet: FleetConfig, partition_seed: int = 0
) -> FleetRoundPlan:
    """Split one batch of waypoints into per-drone anti-collision tours.

    The batch is cut with the balanced k-means partition (compact
    regions, near-equal tour lengths, each snake-ordered for the short
    -leg flight constraint), then repaired against
    ``fleet.min_separation_m``: while any simultaneous pair of tour
    positions is too close, the conflicting waypoint of the longer tour
    (ties: the higher drone index) is dropped back to the pool.  The
    repair strictly shrinks tours, so it terminates, and a one-drone
    fleet is untouched (no pairs) — reducing to plain ``snake_order``.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n_drones = fleet.n_drones
    empty = np.zeros((0, 3), dtype=float)
    if len(pts) == 0:
        return FleetRoundPlan(
            tours=tuple(empty.copy() for _ in range(n_drones)),
            tour_indices=tuple(
                np.zeros(0, dtype=int) for _ in range(n_drones)
            ),
            dropped_indices=np.zeros(0, dtype=int),
        )
    index_of = {row.tobytes(): i for i, row in enumerate(pts)}
    if len(index_of) != len(pts):
        raise ValueError("fleet round waypoints must be unique")
    k = min(n_drones, len(pts))
    plan = partition_waypoints(pts, k, strategy="kmeans", seed=partition_seed)
    tours = [np.asarray(part, dtype=float) for part in plan.partitions]
    tours.extend(empty.copy() for _ in range(n_drones - k))
    dropped: List[int] = []
    while True:
        conflict = first_separation_conflict(tours, fleet.min_separation_m)
        if conflict is None:
            break
        step, a, b = conflict
        victim = b if len(tours[b]) >= len(tours[a]) else a
        dropped.append(index_of[tours[victim][step].tobytes()])
        tours[victim] = np.delete(tours[victim], step, axis=0)
    return FleetRoundPlan(
        tours=tuple(tours),
        tour_indices=tuple(
            np.asarray([index_of[row.tobytes()] for row in tour], dtype=int)
            for tour in tours
        ),
        dropped_indices=np.asarray(sorted(dropped), dtype=int),
    )


def _partition_seed(seed: int, round_index: int) -> int:
    """Deterministic per-round k-means seed derived from the campaign seed."""
    return (int(seed) * 1_000_003 + int(round_index)) % (2**32)


# ----------------------------------------------------------------------
# flying one round
# ----------------------------------------------------------------------
def _drone_launch_order(drones: List[int]) -> List[int]:
    """Construction/spawn order of a round's drones inside the kernel.

    The merge contract makes this order invisible in the results; the
    determinism-under-interleaving tests monkeypatch it to prove that.
    """
    return list(drones)


def _fly_fleet_round(
    scenario: DemoScenario,
    config: CampaignConfig,
    active: ActiveSamplingConfig,
    tours: Sequence[np.ndarray],
    round_index: int,
) -> Tuple[Dict[int, SampleLog], List[UavFlightReport], float]:
    """Fly every non-empty tour concurrently in one simulation kernel.

    Each drone gets its own Crazyradio (own address — concurrent
    flight forbids the paper's one-shared-radio scheme), its own
    name-keyed RNG stream fork (``campaign.UAV-X/flight-NN``) and its
    own log.  Returns per-drone logs, flight reports (drone order) and
    the round makespan (the kernel clock when the last drone lands).
    """
    sim = Simulator()
    environment = scenario.environment
    layout = corner_layout(scenario.flight_volume).subset(config.anchor_count)
    logs: Dict[int, SampleLog] = {}
    clients: Dict[int, BaseStationClient] = {}
    processes = {}
    flown = [d for d, tour in enumerate(tours) if len(tour)]
    for d in _drone_launch_order(flown):
        flight_name = f"{drone_name(d)}/flight-{round_index:02d}"
        mission = plan_batch_mission(
            tours[d],
            flight_leg_s=active.flight_leg_s,
            scan_window_s=active.scan_window_s,
            uav_name=flight_name,
            start_position=(0.3 + 0.4 * d, 0.3, 0.0),
        )
        uav_conf, plan = mission.assignments[0]
        if d > 0:
            uav_conf = replace(uav_conf, radio_address=f"radio://0/{80 + d}/2M")
        radio = Crazyradio(environment, config.radio)
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
            scenario.streams.fork(f"campaign.{flight_name}"),
            config=UavConfig(
                name=uav_conf.name,
                start_position=uav_conf.start_position,
                scan_duration_s=config.scan_duration_s,
                localization_mode=config.localization_mode,
                rx_gain_offset_db=uav_conf.rx_gain_offset_db,
            ),
            scan_config=config.scan_config,
        )
        logs[d] = SampleLog()
        clients[d] = BaseStationClient(
            sim, radio, link, uav, uav_conf, plan, logs[d], config.client
        )
        processes[d] = spawn(sim, clients[d].run(), name=f"client.{flight_name}")
    sim.run()
    for d, process in processes.items():
        if not process.finished:
            raise RuntimeError(
                f"fleet round {round_index} stalled while flying "
                f"{drone_name(d)} (simulated t={sim.now:.1f}s)"
            )
    reports = [clients[d].report for d in sorted(clients)]
    return logs, reports, sim.now


def _solo_round_worker(conn, scenario, config, active, tours, drone, round_index):
    """Fork-side helper: fly one drone's tour solo, ship the samples back."""
    try:
        solo = [tour if d == drone else tour[:0] for d, tour in enumerate(tours)]
        logs, reports, now = _fly_fleet_round(
            scenario, config, active, solo, round_index
        )
        conn.send(("ok", (list(logs[drone]), reports[0], now)))
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _fly_fleet_round_processes(
    scenario: DemoScenario,
    config: CampaignConfig,
    active: ActiveSamplingConfig,
    tours: Sequence[np.ndarray],
    round_index: int,
    workers: int,
) -> Tuple[Dict[int, SampleLog], List[UavFlightReport], float]:
    """Fly a round with one OS process (and one kernel) per drone.

    Because drones share no RNG stream and no mutable state, a solo
    kernel per drone produces exactly the samples the interleaved
    kernel would — so this path trades nothing but wall clock.  It
    needs the ``fork`` start method (live scenario objects cross as
    inherited memory, not pickles); elsewhere it falls back to flying
    the solo kernels sequentially in-process, same results.
    """
    flown = [d for d, tour in enumerate(tours) if len(tour)]
    try:
        ctx = get_context("fork")
    except ValueError:  # pragma: no cover - non-posix fallback
        ctx = None
    if ctx is None or len(flown) <= 1:
        logs: Dict[int, SampleLog] = {}
        reports: List[UavFlightReport] = []
        makespan = 0.0
        for d in flown:
            solo = [t if i == d else t[:0] for i, t in enumerate(tours)]
            solo_logs, solo_reports, now = _fly_fleet_round(
                scenario, config, active, solo, round_index
            )
            logs[d] = solo_logs[d]
            reports.extend(solo_reports)
            makespan = max(makespan, now)
        return logs, reports, makespan

    logs = {}
    reports_by_drone: Dict[int, UavFlightReport] = {}
    makespan = 0.0
    for wave_start in range(0, len(flown), max(1, workers)):
        wave = flown[wave_start : wave_start + max(1, workers)]
        handles = []
        for d in wave:
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=_solo_round_worker,
                args=(child, scenario, config, active, tours, d, round_index),
                daemon=True,
            )
            process.start()
            child.close()
            handles.append((d, parent, process))
        for d, parent, process in handles:
            try:
                kind, payload = parent.recv()
            except (EOFError, OSError):
                kind, payload = "error", f"worker died (exitcode {process.exitcode})"
            finally:
                parent.close()
                process.join()
            if kind != "ok":
                raise RuntimeError(
                    f"fleet worker for {drone_name(d)} failed: {payload}"
                )
            samples, report, now = payload
            log = SampleLog()
            log.extend(samples)
            logs[d] = log
            reports_by_drone[d] = report
            makespan = max(makespan, now)
    reports = [reports_by_drone[d] for d in sorted(reports_by_drone)]
    return logs, reports, makespan


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def merge_fleet_samples(logs: Dict[int, SampleLog]) -> List[Sample]:
    """Deterministic cross-drone merge of one round's sample logs.

    Sorted on ``(timestamp, drone index, intra-drone order)``: per
    -drone sequences are invariant under kernel/OS interleaving (no
    shared RNG, no shared state), so this key makes the combined
    stream a pure function of the job spec.  With one drone it is the
    identity.
    """
    entries = []
    for d in sorted(logs):
        for i, sample in enumerate(logs[d]):
            entries.append((sample.timestamp_s, d, i, sample))
    entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    return [entry[3] for entry in entries]


def _ingest_scans(builder: OnlineRemBuilder, samples: Sequence[Sample]) -> int:
    """Feed the merged stream to the builder, one scan at a time.

    Scans are grouped by ``(uav_name, waypoint_index)`` in order of
    first appearance in the merged stream — for a single drone that is
    waypoint order — so the builder's holdout RNG draws are a pure
    function of the merged stream.
    """
    order: List[Tuple[str, int]] = []
    groups: Dict[Tuple[str, int], List[Sample]] = {}
    for sample in samples:
        key = (sample.uav_name, sample.waypoint_index)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(sample)
    for key in order:
        group = groups[key]
        records = [
            ScanRecord(
                ssid=s.ssid, rssi_dbm=s.rssi_dbm, mac=s.mac, channel=s.channel
            )
            for s in group
        ]
        builder.add_scan(group[0].position, records)
    return len(order)


# ----------------------------------------------------------------------
# the campaign loop
# ----------------------------------------------------------------------
@dataclass
class FleetRound:
    """One fleet acquisition round: who flew what, and the map after."""

    round_index: int
    tours: Tuple[np.ndarray, ...]
    total_waypoints: int
    #: Waypoints bumped by the separation repair (returned to the pool).
    dropped_waypoints: int
    samples_ingested: int
    holdout_rmse_dbm: Optional[float]
    mean_candidate_uncertainty_db: Optional[float]

    @property
    def waypoints(self) -> np.ndarray:
        """All waypoints flown this round (drone-major order)."""
        flown = [t for t in self.tours if len(t)]
        return np.vstack(flown) if flown else np.zeros((0, 3))


@dataclass
class FleetCampaignResult:
    """Output of one full fleet campaign."""

    scenario: DemoScenario
    config: CampaignConfig
    fleet: FleetConfig
    active: ActiveSamplingConfig
    log: SampleLog
    rounds: List[FleetRound]
    reports: List[UavFlightReport]
    builder: OnlineRemBuilder
    stop_reason: str
    duration_s: float

    @property
    def waypoints_flown(self) -> int:
        """Waypoints scanned across all rounds and drones."""
        return self.rounds[-1].total_waypoints if self.rounds else 0

    @property
    def final_rmse_dbm(self) -> Optional[float]:
        """Holdout RMSE after the last refit."""
        for round_ in reversed(self.rounds):
            if round_.holdout_rmse_dbm is not None:
                return round_.holdout_rmse_dbm
        return None

    def rmse_trajectory(self) -> List[Tuple[int, Optional[float]]]:
        """(waypoints flown, holdout RMSE) per round — the learning curve."""
        return [(r.total_waypoints, r.holdout_rmse_dbm) for r in self.rounds]

    def summary(self) -> Dict[str, float]:
        """Headline numbers of the run."""
        return {
            "n_drones": float(self.fleet.n_drones),
            "waypoints_flown": float(self.waypoints_flown),
            "budget_waypoints": float(self.active.budget_waypoints),
            "total_samples": float(len(self.log)),
            "distinct_macs": float(len(self.log.macs())),
            "rounds": float(len(self.rounds)),
            "dropped_waypoints": float(
                sum(r.dropped_waypoints for r in self.rounds)
            ),
            "final_rmse_dbm": (
                float("nan")
                if self.final_rmse_dbm is None
                else self.final_rmse_dbm
            ),
            "duration_s": self.duration_s,
        }


def run_fleet_campaign(
    scenario: Optional[DemoScenario] = None,
    config: Optional[CampaignConfig] = None,
    fleet: Optional[FleetConfig] = None,
    active: Optional[ActiveSamplingConfig] = None,
    workers: int = 0,
    round_callback: Optional[
        Callable[[FleetRound, OnlineRemBuilder], None]
    ] = None,
) -> FleetCampaignResult:
    """Run the uncertainty-driven campaign with K concurrent drones.

    Parameters
    ----------
    scenario:
        RF world; built from ``config.scenario`` (the registry name)
        when omitted — the loop works in every registered scenario.
    config:
        Campaign tunables (firmware, radio, timing); its
        ``acquisition`` field is ignored here (this *is* the
        acquisition loop).
    fleet:
        Fleet shape (drone count, separation, batteries, charging);
        falls back to ``config.fleet``, then to the defaults.  Pass
        ``FleetConfig(n_drones=1)`` for a single-UAV active campaign.
    active:
        Acquisition-loop tunables; falls back to ``config.active``,
        then to the defaults.
    workers:
        ``0`` (default) interleaves all drones in one simulation
        kernel.  ``> 0`` flies each drone's tour in its own kernel in
        its own forked OS process, at most ``workers`` at a time —
        byte-identical results (the merge contract), less wall clock.
        An execution knob only: it never enters specs or digests.
    round_callback:
        Called after every round with the fresh :class:`FleetRound`
        and the builder (whose model is current); benchmarks use it to
        score each intermediate map against ground truth without
        replaying the campaign.

    Stopping rules, checked after every round in this order: accuracy
    (``target_rmse_dbm``), plateau (``patience_rounds`` rounds without
    ``min_improvement_dbm``), budget (``budget_waypoints``), and
    exhaustion of the candidate lattice.
    """
    config = config or CampaignConfig()
    fleet = fleet or (
        config.fleet if config.fleet is not None else FleetConfig()
    )
    active = active or (
        config.active if config.active is not None else ActiveSamplingConfig()
    )
    if config.acquisition != "lattice":
        # Inner flights must take the plain path or they would recurse.
        config = replace(config, acquisition="lattice", fleet=None)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if scenario is None:
        scenario = build_scenario(config.scenario, seed=config.seed)

    candidates = waypoint_grid(
        scenario.flight_volume,
        nx=active.lattice_nx,
        ny=active.lattice_ny,
        nz=active.lattice_nz,
        margin=active.lattice_margin_m,
    )
    planner = ActiveSamplingPlanner(
        candidates,
        travel_weight_db_per_m=active.travel_weight_db_per_m,
        no_fly=active.no_fly,
    )
    builder = OnlineRemBuilder(
        predictor_factory=active.predictor_factory,
        refit_every_scans=active.refit_every_scans,
        holdout_fraction=active.holdout_fraction,
        seed=active.builder_seed,
    )
    n_drones = fleet.n_drones
    # Per-flight endurance caps: the fleet-wide round quota is bounded
    # by the weakest pack so the balanced partition (tour lengths
    # <= ceil(round/K)) cannot overrun any drone's battery.
    min_quota = min(
        fleet.battery(d).endurance_waypoints(
            flight_leg_s=active.flight_leg_s, scan_window_s=active.scan_window_s
        )
        for d in range(n_drones)
    )

    log = SampleLog()
    rounds: List[FleetRound] = []
    reports: List[UavFlightReport] = []
    duration_s = 0.0
    stop_reason = "budget"
    best_rmse: Optional[float] = None
    stale_rounds = 0
    total = 0

    seed_size = min(
        n_drones * min(active.seed_waypoints, min_quota),
        active.budget_waypoints,
    )
    batch = planner.seed_batch(seed_size)
    plan = plan_fleet_round(
        planner.candidates[batch],
        fleet,
        partition_seed=_partition_seed(config.seed, 0),
    )
    if len(plan.dropped_indices):
        planner.mark_unvisited(batch[plan.dropped_indices])
    round_index = 0
    anchor: Optional[np.ndarray] = None
    while True:
        if workers:
            logs_by_drone, round_reports, makespan = _fly_fleet_round_processes(
                scenario, config, active, plan.tours, round_index, workers
            )
        else:
            logs_by_drone, round_reports, makespan = _fly_fleet_round(
                scenario, config, active, plan.tours, round_index
            )
        merged = merge_fleet_samples(logs_by_drone)
        log.extend(merged)
        _ingest_scans(builder, merged)
        reports.extend(round_reports)
        duration_s += makespan
        snapshot = builder.refit_now()
        rmse = snapshot.holdout_rmse_dbm if snapshot else None
        remaining = planner.remaining_points
        uncertainty: Optional[np.ndarray] = None
        mean_uncertainty: Optional[float] = None
        if builder.ready and len(remaining):
            uncertainty = builder.uncertainty(remaining)
            mean_uncertainty = float(uncertainty.mean())
        total += plan.waypoints_flown
        rounds.append(
            FleetRound(
                round_index=round_index,
                tours=plan.tours,
                total_waypoints=total,
                dropped_waypoints=len(plan.dropped_indices),
                samples_ingested=builder.samples_ingested,
                holdout_rmse_dbm=rmse,
                mean_candidate_uncertainty_db=mean_uncertainty,
            )
        )
        # Travel cost re-anchors on the lead drone's last flown waypoint.
        for tour in plan.tours:
            if len(tour):
                anchor = tour[-1]
                break
        round_index += 1
        if round_callback is not None:
            round_callback(rounds[-1], builder)

        # --- stopping rules ------------------------------------------
        if (
            active.target_rmse_dbm is not None
            and rmse is not None
            and rmse <= active.target_rmse_dbm
        ):
            stop_reason = "target_rmse"
            break
        if active.patience_rounds > 0 and rmse is not None:
            if best_rmse is None or rmse < best_rmse - active.min_improvement_dbm:
                best_rmse, stale_rounds = rmse, 0
            else:
                stale_rounds += 1
                if stale_rounds >= active.patience_rounds:
                    stop_reason = "plateau"
                    break
        if total >= active.budget_waypoints:
            stop_reason = "budget"
            break
        if planner.exhausted:
            stop_reason = "lattice_exhausted"
            break

        # --- next batch ----------------------------------------------
        duration_s += fleet.charge_wait_s()
        if uncertainty is not None:
            scores = uncertainty
        else:
            scores = np.zeros(len(remaining))
        size = min(
            n_drones * min(active.batch_size, min_quota),
            active.budget_waypoints - total,
        )
        batch = planner.select_batch(scores, anchor, size)
        plan = plan_fleet_round(
            planner.candidates[batch],
            fleet,
            partition_seed=_partition_seed(config.seed, round_index),
        )
        if len(plan.dropped_indices):
            planner.mark_unvisited(batch[plan.dropped_indices])

    return FleetCampaignResult(
        scenario=scenario,
        config=config,
        fleet=fleet,
        active=active,
        log=log,
        rounds=rounds,
        reports=reports,
        builder=builder,
        stop_reason=stop_reason,
        duration_s=duration_s,
    )
