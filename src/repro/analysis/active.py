"""Analysis of active-sampling campaigns: ground truth and comparisons.

Two jobs:

* score any fitted predictor's map against the simulator's *ground
  truth* (:meth:`IndoorEnvironment.mean_rss_dbm` — the long-term mean a
  perfect survey would converge to), which no real deployment can do
  but a reproduction should;
* compare an active campaign against the paper's fixed 72-waypoint
  lattice — the waypoints-to-target-RMSE curve the benchmark records
  and the CLI renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..radio.environment import IndoorEnvironment
from .report import table

__all__ = [
    "ground_truth_fields",
    "ground_truth_map_rmse",
    "ActiveComparison",
    "compare_to_fixed_lattice",
    "render_active_trajectory",
]


def ground_truth_fields(
    environment: IndoorEnvironment,
    macs: Sequence[str],
    points: np.ndarray,
    cache=None,
    cache_key: Optional[str] = None,
) -> Dict[str, np.ndarray]:
    """True mean RSS per MAC over the probe points.

    One batched :meth:`IndoorEnvironment.mean_rss_dbm_many` call: the
    wall set is crossed once for the whole (MAC, probe) block and the
    environment's wall-loss cache remembers the block, so scoring every
    round of a campaign against the same probes pays geometry once.
    Passing a precomputed result to :func:`ground_truth_map_rmse` is
    still worthwhile — it skips even the cache lookup.

    With a :class:`repro.radio.scenario_cache.ScenarioCache` (and a
    ``cache_key`` content-addressing the world + probe lattice, e.g.
    :func:`repro.radio.scenario_cache.scenario_digest`), the stacked
    ``(n_macs, n_points)`` field block goes through the cache's
    ``.npy`` tier — parallel scoring processes memory-map it instead
    of re-crossing the walls.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    macs = list(macs)
    if cache is not None and cache_key is not None:
        fields = cache.fields(
            cache_key,
            lambda: environment.mean_rss_dbm_many(macs, points),
        )
    else:
        fields = environment.mean_rss_dbm_many(macs, points)
    return {mac: fields[i] for i, mac in enumerate(macs)}


def ground_truth_map_rmse(
    predictor,
    vocabulary: Sequence[str],
    environment: IndoorEnvironment,
    macs: Sequence[str],
    points: np.ndarray,
    fallback_dbm: Optional[float] = None,
    truth: Optional[Dict[str, np.ndarray]] = None,
) -> float:
    """RMSE of a predictor's map against the environment's true mean RSS.

    Evaluates every MAC of ``macs`` at every probe point.  MACs the
    predictor never trained on (absent from ``vocabulary``) are charged
    at ``fallback_dbm`` — what an honest system would report without
    data; with ``fallback_dbm=None`` they are skipped instead, which
    flatters under-explored maps and is only appropriate when both
    sides of a comparison know every MAC.  Pass a precomputed
    :func:`ground_truth_fields` result as ``truth`` when scoring many
    maps against the same probes.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if truth is None:
        truth = ground_truth_fields(environment, macs, points)
    index = {mac: i for i, mac in enumerate(vocabulary)}
    known = [mac for mac in macs if mac in index]
    predictions = {}
    if known:
        rows = predictor.predict_mac_grid(
            points, [index[mac] for mac in known]
        )
        predictions = dict(zip(known, rows))
    errors: List[np.ndarray] = []
    for mac in macs:
        if mac not in predictions and fallback_dbm is None:
            continue
        predicted = predictions.get(mac)
        if predicted is None:
            predicted = np.full(len(points), float(fallback_dbm))
        errors.append(predicted - truth[mac])
    if not errors:
        raise ValueError("no MAC could be evaluated")
    stacked = np.concatenate(errors)
    return float(np.sqrt(np.mean(stacked**2)))


@dataclass
class ActiveComparison:
    """Active campaign vs the fixed lattice, on equal ground truth."""

    #: Fixed-lattice reference: waypoints flown and its map RMSE.
    fixed_waypoints: int
    fixed_rmse_dbm: float
    #: Active learning curve: (waypoints flown, ground-truth RMSE).
    trajectory: List[Tuple[int, float]]

    @property
    def waypoints_to_match(self) -> Optional[int]:
        """Fewest active waypoints whose map is at least as good as the
        fixed lattice's (``None`` if never reached)."""
        for waypoints, rmse in self.trajectory:
            if rmse <= self.fixed_rmse_dbm:
                return waypoints
        return None

    @property
    def waypoint_savings_fraction(self) -> Optional[float]:
        """Fraction of the fixed lattice's flights saved at match."""
        matched = self.waypoints_to_match
        if matched is None:
            return None
        return 1.0 - matched / self.fixed_waypoints

    def summary(self) -> dict:
        """JSON-friendly record (the BENCH file's core payload)."""
        return {
            "fixed_waypoints": self.fixed_waypoints,
            "fixed_rmse_dbm": self.fixed_rmse_dbm,
            "trajectory": [
                {"waypoints": w, "rmse_dbm": r} for w, r in self.trajectory
            ],
            "waypoints_to_match": self.waypoints_to_match,
            "waypoint_savings_fraction": self.waypoint_savings_fraction,
        }


def compare_to_fixed_lattice(
    fixed_waypoints: int,
    fixed_rmse_dbm: float,
    trajectory: Sequence[Tuple[int, float]],
) -> ActiveComparison:
    """Bundle a measured active trajectory against the fixed reference."""
    return ActiveComparison(
        fixed_waypoints=int(fixed_waypoints),
        fixed_rmse_dbm=float(fixed_rmse_dbm),
        trajectory=[(int(w), float(r)) for w, r in trajectory],
    )


def render_active_trajectory(
    rounds,
    reference_rmse_dbm: Optional[float] = None,
) -> str:
    """ASCII learning curve of an active campaign.

    ``rounds`` is a sequence of :class:`~repro.station.fleet
    .FleetRound`; pass the fixed lattice's RMSE as the reference to
    mark the first round that beats it.
    """
    headers = ["round", "waypoints", "samples", "holdout RMSE (dB)", "mean std (dB)"]
    rows = []
    matched = False
    for round_ in rounds:
        rmse = round_.holdout_rmse_dbm
        rmse_cell = "-" if rmse is None else f"{rmse:.3f}"
        if (
            not matched
            and reference_rmse_dbm is not None
            and rmse is not None
            and rmse <= reference_rmse_dbm
        ):
            rmse_cell += " <= fixed"
            matched = True
        std = round_.mean_candidate_uncertainty_db
        rows.append(
            [
                round_.round_index,
                round_.total_waypoints,
                round_.samples_ingested,
                rmse_cell,
                "-" if std is None else f"{std:.3f}",
            ]
        )
    return table(headers, rows)
