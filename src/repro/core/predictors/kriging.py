"""Ordinary kriging per MAC address — the geostatistical extension.

REM literature standardly interpolates radio maps with kriging; the
paper's future work points toward "deriving the fundamental limitations
on the density of 3D REMs", for which kriging's variance estimates are
the natural tool.  This estimator is the reproduction's extension
beyond the paper's three model families.

Per MAC: fit an exponential variogram ``γ(h) = nugget + sill(1 -
exp(-h/range))`` to the empirical binned semivariogram, then solve the
ordinary-kriging system over the ``n_neighbors`` nearest samples for
each query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..dataset import REMDataset
from .base import Predictor

__all__ = ["ExponentialVariogram", "OrdinaryKrigingRegressor", "fit_variogram"]

#: Query block size bounding the stacked-system memory footprint.
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class ExponentialVariogram:
    """γ(h) = nugget + sill · (1 − exp(−h / range))."""

    nugget: float
    sill: float
    range_m: float

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """Semivariance at lag distance(s) ``h``."""
        h = np.asarray(h, dtype=float)
        return self.nugget + self.sill * (1.0 - np.exp(-h / max(self.range_m, 1e-9)))


def fit_variogram(
    positions: np.ndarray,
    values: np.ndarray,
    n_bins: int = 12,
    max_lag_m: Optional[float] = None,
) -> ExponentialVariogram:
    """Least-squares exponential fit to the empirical semivariogram.

    Falls back to a small-nugget default when there are too few pairs
    to estimate anything (single-sample MACs).
    """
    n = len(values)
    if n < 3:
        var = float(np.var(values)) if n > 1 else 1.0
        return ExponentialVariogram(nugget=0.1, sill=max(var, 0.5), range_m=1.0)
    diffs = positions[:, None, :] - positions[None, :, :]
    lags = np.sqrt(np.sum(diffs**2, axis=2))
    gammas = 0.5 * (values[:, None] - values[None, :]) ** 2
    iu = np.triu_indices(n, k=1)
    lag_flat, gamma_flat = lags[iu], gammas[iu]
    if max_lag_m is None:
        max_lag_m = float(lag_flat.max()) or 1.0
    edges = np.linspace(0.0, max_lag_m, n_bins + 1)
    centers, means = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (lag_flat >= lo) & (lag_flat < hi)
        if mask.sum() >= 2:
            centers.append((lo + hi) / 2.0)
            means.append(float(gamma_flat[mask].mean()))
    if len(centers) < 3:
        var = float(np.var(values))
        return ExponentialVariogram(nugget=0.1, sill=max(var, 0.5), range_m=1.0)
    centers_arr = np.asarray(centers)
    means_arr = np.asarray(means)
    sill0 = float(np.var(values)) or 1.0
    best: Tuple[float, ExponentialVariogram] = (
        np.inf,
        ExponentialVariogram(0.1, sill0, 1.0),
    )
    # Coarse grid over range and nugget fraction; sill by least squares.
    for range_m in np.linspace(0.3, max_lag_m, 16):
        basis = 1.0 - np.exp(-centers_arr / range_m)
        for nugget_frac in (0.0, 0.1, 0.25, 0.5):
            nugget = nugget_frac * sill0
            resid_target = means_arr - nugget
            denom = float(basis @ basis)
            if denom <= 0:
                continue
            sill = max(float(basis @ resid_target) / denom, 1e-6)
            sse = float(np.sum((nugget + sill * basis - means_arr) ** 2))
            if sse < best[0]:
                best = (sse, ExponentialVariogram(nugget, sill, float(range_m)))
    return best[1]


class OrdinaryKrigingRegressor(Predictor):
    """Per-MAC ordinary kriging with a fitted exponential variogram."""

    PARAM_NAMES = ("n_neighbors", "n_bins")
    name = "ordinary-kriging"
    supports_partial_fit = True

    def __init__(self, n_neighbors: int = 16, n_bins: int = 12):
        super().__init__()
        if n_neighbors < 2:
            raise ValueError(f"n_neighbors must be >= 2, got {n_neighbors}")
        self.n_neighbors = int(n_neighbors)
        self.n_bins = int(n_bins)
        self._models: Dict[
            int, Tuple[np.ndarray, np.ndarray, ExponentialVariogram]
        ] = {}
        self._global_mean = 0.0

    # ------------------------------------------------------------------
    def fit(self, train: REMDataset) -> "OrdinaryKrigingRegressor":
        """Fit one variogram per MAC over its sample cloud."""
        if len(train) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._global_mean = float(train.rssi_dbm.mean())
        self._models = {}
        for mac_index in np.unique(train.mac_indices):
            mask = train.mac_indices == mac_index
            positions = train.positions[mask]
            values = train.rssi_dbm[mask].astype(float)
            variogram = fit_variogram(positions, values, n_bins=self.n_bins)
            self._models[int(mac_index)] = (positions, values, variogram)
        self._mark_fitted(train)
        return self

    def partial_fit(self, delta: REMDataset) -> "OrdinaryKrigingRegressor":
        """Refresh only the per-MAC models the delta touches.

        Each touched MAC's sample cloud is extended (appending preserves
        row order, so the arrays equal a full fit's masked arrays bit
        for bit) and its variogram re-estimated over the grown cloud;
        the other MACs keep their fitted models untouched — that is
        where the speedup over a from-scratch refit comes from, since a
        cadence delta typically observes a handful of APs while the
        variogram fit is quadratic in each MAC's sample count.
        """
        if not self._check_partial_fit(delta):
            return self
        self._extend_fitted(delta)
        assert self._train_rssi is not None
        self._global_mean = float(self._train_rssi.mean())
        for mac_index in np.unique(delta.mac_indices):
            mask = delta.mac_indices == mac_index
            key = int(mac_index)
            if key in self._models:
                old_positions, old_values, _ = self._models[key]
                positions = np.concatenate([old_positions, delta.positions[mask]])
                values = np.concatenate(
                    [old_values, delta.rssi_dbm[mask].astype(float)]
                )
            else:
                positions = delta.positions[mask]
                values = delta.rssi_dbm[mask].astype(float)
            variogram = fit_variogram(positions, values, n_bins=self.n_bins)
            self._models[key] = (positions, values, variogram)
        return self

    def predict_points(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Batched prediction: one stacked kriging solve per MAC group."""
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        means, _ = self._predict_arrays_with_std(points, mac_indices)
        return means

    def predict_points_std(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Native kriging standard deviation from the batched solve.

        MACs without a fitted model report the global target spread
        (consistent with the base-class unseen-MAC convention).
        """
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        _, stds = self._predict_arrays_with_std(points, mac_indices)
        unknown = ~np.isin(mac_indices, list(self._models))
        if unknown.any():
            stds = stds.copy()
            stds[unknown] = self._train_target_std
        return stds

    # ------------------------------------------------------------------
    def _predict_arrays_with_std(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        means = np.full(len(points), self._global_mean)
        stds = np.zeros(len(points))
        for mac_index in np.unique(mac_indices):
            key = int(mac_index)
            mask = mac_indices == mac_index
            if key not in self._models:
                continue
            positions, values, variogram = self._models[key]
            means[mask], stds[mask] = self._krige_block(
                points[mask], positions, values, variogram
            )
        return means, stds

    def _krige_block(
        self,
        queries: np.ndarray,
        positions: np.ndarray,
        values: np.ndarray,
        variogram: ExponentialVariogram,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Solve the ordinary-kriging system for a block of queries.

        The per-query ``(k+1, k+1)`` systems are stacked and handed to
        one batched ``np.linalg.solve`` call; singular batches fall back
        to row-wise least squares (the legacy behavior).
        """
        n_queries = len(queries)
        n = len(values)
        if n == 1:
            sill_std = float(np.sqrt(max(variogram.sill, 0.0)))
            return np.full(n_queries, float(values[0])), np.full(n_queries, sill_std)
        k = min(self.n_neighbors, n)
        out_means = np.empty(n_queries)
        out_stds = np.empty(n_queries)
        for start in range(0, n_queries, _BLOCK_ROWS):
            sl = slice(start, min(start + _BLOCK_ROWS, n_queries))
            block = queries[sl]
            q = len(block)
            dists = np.linalg.norm(
                block[:, None, :] - positions[None, :, :], axis=2
            )
            nearest = np.argpartition(dists, k - 1, axis=1)[:, :k]
            pts = positions[nearest]  # (q, k, 3)
            vals = values[nearest]  # (q, k)
            # Ordinary kriging systems with a Lagrange multiplier.
            pair_lags = np.linalg.norm(
                pts[:, :, None, :] - pts[:, None, :, :], axis=3
            )
            a = np.zeros((q, k + 1, k + 1))
            a[:, :k, :k] = variogram(pair_lags)
            a[:, k, :k] = 1.0
            a[:, :k, k] = 1.0
            b = np.zeros((q, k + 1))
            b[:, :k] = variogram(np.take_along_axis(dists, nearest, axis=1))
            b[:, k] = 1.0
            try:
                solution = np.linalg.solve(a, b[..., None])[..., 0]
            except np.linalg.LinAlgError:
                solution = np.empty((q, k + 1))
                for i in range(q):
                    try:
                        solution[i] = np.linalg.solve(a[i], b[i])
                    except np.linalg.LinAlgError:
                        solution[i], *_ = np.linalg.lstsq(a[i], b[i], rcond=None)
            weights = solution[:, :k]
            out_means[sl] = np.sum(weights * vals, axis=1)
            variance = np.sum(weights * b[:, :k], axis=1) + solution[:, k]
            out_stds[sl] = np.sqrt(np.maximum(variance, 0.0))
        return out_means, out_stds
