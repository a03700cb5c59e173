"""Uncertainty-driven active sampling: the loop's tunables and planner.

The paper flies a fixed 72-waypoint lattice and trains the REM
afterwards (§III-A).  Since generation is *autonomous*, the fleet can
instead spend flight time where the map is least certain: fly a small
exploratory batch, refit online, score the remaining candidate
waypoints by predictive uncertainty minus travel cost, fly the best
batch, and repeat until an RMSE target or the waypoint budget fires.

This module holds the two pieces that loop is made of:

* :class:`ActiveSamplingConfig` — seed/batch sizes, budget, stopping
  rules, the candidate lattice (the fixed campaign's
  :func:`~.waypoints.waypoint_grid`, so comparisons are apples to
  apples), flight timing and the online builder's knobs;
* :class:`ActiveSamplingPlanner` — deterministic farthest-point
  seeding (:func:`~.waypoints.spread_subset`) and greedy
  uncertainty-minus-travel batch selection, with no-fly cuboids
  excluded from the candidate set outright.

The loop itself is :func:`.fleet.run_fleet_campaign`: an
``acquisition="active"`` campaign is its one-drone fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.predictors import Predictor
from ..radio.geometry import Cuboid
from .waypoints import spread_subset

__all__ = ["ActiveSamplingConfig", "ActiveSamplingPlanner"]


@dataclass(frozen=True)
class ActiveSamplingConfig:
    """Tunables of the uncertainty-driven acquisition loop."""

    #: Exploratory first batch (farthest-point spread over the lattice).
    seed_waypoints: int = 12
    #: Waypoints acquired per subsequent round.
    batch_size: int = 6
    #: Hard budget: stop once this many waypoints have been flown.
    budget_waypoints: int = 72
    #: Stop as soon as the holdout RMSE drops to this level (dB);
    #: ``None`` disables the accuracy stopping rule.
    target_rmse_dbm: Optional[float] = None
    #: Plateau rule: stop after this many consecutive rounds improving
    #: the holdout RMSE by less than ``min_improvement_dbm`` (0 = off).
    patience_rounds: int = 0
    min_improvement_dbm: float = 0.05
    #: Travel cost: dB of uncertainty one meter of flying must buy.
    travel_weight_db_per_m: float = 0.5
    #: Candidate lattice over the flight volume (the fixed campaign's
    #: 6 x 4 x 3 by default, so budgets compare directly to 72).
    lattice_nx: int = 6
    lattice_ny: int = 4
    lattice_nz: int = 3
    lattice_margin_m: float = 0.25
    #: Cuboids the planner must never schedule a scan inside.
    no_fly: Tuple[Cuboid, ...] = ()
    #: Flight timing per waypoint; with each drone's battery pack
    #: (:attr:`.fleet.FleetConfig.batteries`) it bounds a flight's batch.
    flight_leg_s: float = 4.0
    scan_window_s: float = 3.0
    #: Online-builder knobs (the refit cadence applies *within* a batch;
    #: a refit is always forced when a batch lands).
    refit_every_scans: int = 6
    holdout_fraction: float = 0.25
    builder_seed: int = 5
    predictor_factory: Optional[Callable[[], Predictor]] = None

    def __post_init__(self) -> None:
        if self.seed_waypoints < 1:
            raise ValueError("seed_waypoints must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.budget_waypoints < self.seed_waypoints:
            raise ValueError("budget_waypoints must cover the seed batch")
        if self.travel_weight_db_per_m < 0:
            raise ValueError("travel_weight_db_per_m must be >= 0")
        if self.patience_rounds < 0:
            raise ValueError("patience_rounds must be >= 0")
        if min(self.lattice_nx, self.lattice_ny, self.lattice_nz) < 1:
            raise ValueError("lattice dimensions must be >= 1")
        if self.lattice_margin_m < 0:
            raise ValueError("lattice_margin_m must be >= 0")
        if self.flight_leg_s <= 0 or self.scan_window_s <= 0:
            raise ValueError("flight_leg_s and scan_window_s must be positive")
        if self.refit_every_scans < 1:
            raise ValueError("refit_every_scans must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")

    # -- job-spec adapter (see repro.serve.spec) -----------------------
    #: Scalar tunables a JSON job spec can carry verbatim.  Everything
    #: else — no-fly cuboids, predictor factories — is a live Python
    #: object and must stay at its default for a config to be
    #: spec-representable.
    _JOB_FIELDS = (
        "seed_waypoints",
        "batch_size",
        "budget_waypoints",
        "target_rmse_dbm",
        "patience_rounds",
        "min_improvement_dbm",
        "travel_weight_db_per_m",
        "lattice_nx",
        "lattice_ny",
        "lattice_nz",
        "lattice_margin_m",
        "flight_leg_s",
        "scan_window_s",
        "refit_every_scans",
        "holdout_fraction",
        "builder_seed",
    )

    def to_job_fields(self) -> Dict[str, object]:
        """The JSON-safe field dict a :class:`~repro.serve.RemJobSpec` carries.

        Raises ``ValueError`` when a non-serializable field (``no_fly``,
        ``predictor_factory``) differs from its default —
        such configs cannot round-trip through a job spec.
        """
        reference = type(self)()
        for name in ("no_fly", "predictor_factory"):
            if getattr(self, name) != getattr(reference, name):
                raise ValueError(
                    f"active-sampling field {name!r} is not JSON-serializable "
                    "and differs from its default; it cannot be expressed "
                    "in a job spec"
                )
        return {name: getattr(self, name) for name in self._JOB_FIELDS}

    #: Integer-typed job fields (JSON clients often send 48.0 for 48;
    #: coercing here keeps configs well-typed and job digests stable).
    _INT_JOB_FIELDS = frozenset(
        {
            "seed_waypoints",
            "batch_size",
            "budget_waypoints",
            "patience_rounds",
            "lattice_nx",
            "lattice_ny",
            "lattice_nz",
            "refit_every_scans",
            "builder_seed",
        }
    )

    @classmethod
    def from_job_fields(cls, params: Dict[str, object]) -> "ActiveSamplingConfig":
        """Inverse of :meth:`to_job_fields` (unknown keys raise)."""
        unknown = sorted(set(params) - set(cls._JOB_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown active-sampling job field(s) {unknown}; "
                f"choose from {sorted(cls._JOB_FIELDS)}"
            )
        coerced: Dict[str, object] = {}
        for key, value in params.items():
            if key in cls._INT_JOB_FIELDS:
                coerced[key] = int(value)
            elif value is not None:
                coerced[key] = float(value)
            else:
                coerced[key] = None
        return cls(**coerced)


class ActiveSamplingPlanner:
    """Greedy batch selection over a candidate lattice.

    Scores every unvisited candidate as ``uncertainty - travel_weight *
    distance`` and builds each batch as a short tour: after every pick
    the travel cost re-anchors on the picked waypoint, so batches come
    out compact rather than scattered across the volume.  The tour is
    a selection-time cost model: :func:`.fleet.plan_fleet_round`
    re-orders each drone's share of a batch as a serpentine before it
    flies.
    """

    def __init__(
        self,
        candidates: np.ndarray,
        travel_weight_db_per_m: float = 0.5,
        no_fly: Tuple[Cuboid, ...] = (),
    ):
        pts = np.asarray(candidates, dtype=float).reshape(-1, 3)
        allowed = np.ones(len(pts), dtype=bool)
        for zone in no_fly:
            allowed &= ~zone.contains_many(pts)
        if not allowed.any():
            raise ValueError("no-fly zones exclude every candidate waypoint")
        self.candidates = pts[allowed]
        self.travel_weight = float(travel_weight_db_per_m)
        self._visited = np.zeros(len(self.candidates), dtype=bool)

    # ------------------------------------------------------------------
    @property
    def remaining_indices(self) -> np.ndarray:
        """Indices of candidates not yet scheduled."""
        return np.flatnonzero(~self._visited)

    @property
    def remaining_points(self) -> np.ndarray:
        """Unvisited candidate coordinates."""
        return self.candidates[~self._visited]

    @property
    def exhausted(self) -> bool:
        """True once every candidate has been scheduled."""
        return bool(self._visited.all())

    def mark_visited(self, indices: np.ndarray) -> None:
        """Record candidates as flown (they leave the pool)."""
        self._visited[np.asarray(indices, dtype=int)] = True

    def mark_unvisited(self, indices: np.ndarray) -> None:
        """Return candidates to the pool (they become selectable again).

        The fleet planner's anti-collision repair bumps waypoints out
        of a round after selection; un-marking them keeps the bumped
        waypoints eligible for later rounds instead of silently lost.
        """
        self._visited[np.asarray(indices, dtype=int)] = False

    # ------------------------------------------------------------------
    def seed_batch(self, count: int) -> np.ndarray:
        """The exploratory first batch: farthest-point candidate indices."""
        remaining = self.remaining_indices
        count = min(count, len(remaining))
        picked = remaining[spread_subset(self.candidates[remaining], count)]
        self.mark_visited(picked)
        return picked

    def select_batch(
        self,
        uncertainty_db: np.ndarray,
        start_position: np.ndarray,
        batch_size: int,
    ) -> np.ndarray:
        """Greedy uncertainty-minus-travel tour over the remaining pool.

        ``uncertainty_db`` scores ``remaining_points`` row for row.
        Returns global candidate indices (already marked visited), at
        most ``batch_size`` of them.
        """
        remaining = self.remaining_indices
        scores = np.asarray(uncertainty_db, dtype=float).reshape(-1)
        if scores.shape != remaining.shape:
            raise ValueError(
                f"got {scores.shape[0]} scores for {len(remaining)} "
                "remaining candidates"
            )
        picked: List[int] = []
        anchor = np.asarray(start_position, dtype=float)
        pool = remaining.copy()
        pool_scores = scores.copy()
        while pool.size and len(picked) < batch_size:
            travel = np.linalg.norm(self.candidates[pool] - anchor, axis=1)
            gain = pool_scores - self.travel_weight * travel
            best = int(np.argmax(gain))
            picked.append(int(pool[best]))
            anchor = self.candidates[pool[best]]
            pool = np.delete(pool, best)
            pool_scores = np.delete(pool_scores, best)
        batch = np.asarray(picked, dtype=int)
        self.mark_visited(batch)
        return batch
