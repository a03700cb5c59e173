"""Inverse-distance-weighting (IDW) interpolation per MAC.

The classic Shepard interpolator is the most common baseline in the REM
literature between the trivial mean and kriging: every training sample
of the same AP contributes with weight ``1/d^p``.  Included for the
ablation suite — it brackets the k-NN family from the "use everything"
side (k-NN with k=∞ and distance weights is IDW with p=1).

The lattice methods (:meth:`IdwRegressor.predict_mac_grid`,
:meth:`IdwRegressor.uncertainty_grid` and
:meth:`IdwRegressor.grid_layers`) share one pass: the distances from the
queries to the distinct training positions are computed once, and each
MAC's columns of that matrix feed both the Shepard estimate and the
nearest-sample distance of the std proxy.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..dataset import REMDataset
from .base import Predictor, nearest_distances

__all__ = ["IdwRegressor"]


class IdwRegressor(Predictor):
    """Shepard interpolation over coordinates, one model per MAC.

    Parameters
    ----------
    power:
        Distance exponent ``p``; larger values localize the estimate.
    epsilon_m:
        Distance floor preventing infinite weights at training points
        (an exact match below this distance returns that sample's mean).
    """

    PARAM_NAMES = ("power", "epsilon_m")
    name = "idw"
    supports_partial_fit = True

    def __init__(self, power: float = 2.0, epsilon_m: float = 1e-6):
        super().__init__()
        if power <= 0:
            raise ValueError(f"power must be positive, got {power}")
        if epsilon_m <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon_m}")
        self.power = float(power)
        self.epsilon_m = float(epsilon_m)
        self._per_mac: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._global_mean = 0.0

    # ------------------------------------------------------------------
    def fit(self, train: REMDataset) -> "IdwRegressor":
        """Partition training rows by MAC."""
        if len(train) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._global_mean = float(train.rssi_dbm.mean())
        self._per_mac = {}
        for mac_index in np.unique(train.mac_indices):
            mask = train.mac_indices == mac_index
            self._per_mac[int(mac_index)] = (
                train.positions[mask],
                train.rssi_dbm[mask].astype(float),
            )
        self._mark_fitted(train)
        return self

    def partial_fit(self, delta: REMDataset) -> "IdwRegressor":
        """Append delta rows to the per-MAC sample clouds.

        Only the MACs present in the delta are touched; the appended
        arrays equal a full fit's masked arrays bit for bit because
        appending preserves row order.  The global-mean fallback is
        recomputed over the full target array.
        """
        if not self._check_partial_fit(delta):
            return self
        self._extend_fitted(delta)
        assert self._train_rssi is not None
        self._global_mean = float(self._train_rssi.mean())
        # One stable sort groups delta rows by MAC (ascending row index
        # within each group, identical to a boolean-mask scan) instead
        # of one O(delta) mask per touched MAC.
        order = np.argsort(delta.mac_indices, kind="stable")
        groups, starts = np.unique(delta.mac_indices[order], return_index=True)
        bounds = np.append(starts, len(order))
        for g, mac_index in enumerate(groups):
            rows = order[starts[g] : bounds[g + 1]]
            key = int(mac_index)
            new_positions = delta.positions[rows]
            new_values = delta.rssi_dbm[rows].astype(float)
            if key in self._per_mac:
                positions, values = self._per_mac[key]
                self._per_mac[key] = (
                    np.concatenate([positions, new_positions]),
                    np.concatenate([values, new_values]),
                )
            else:
                self._per_mac[key] = (new_positions, new_values)
        return self

    def predict_points(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Batched prediction: one vectorized Shepard kernel per MAC."""
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        out = np.full(len(points), self._global_mean)
        for mac_index in np.unique(mac_indices):
            key = int(mac_index)
            if key not in self._per_mac:
                continue
            positions, values = self._per_mac[key]
            mask = mac_indices == mac_index
            out[mask] = self._shepard(_distances(points[mask], positions), values)
        return out

    def predict_points_std(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Distance proxy scaled by each MAC's own target spread.

        Shepard weights give no disagreement signal (every sample always
        contributes), so uncertainty is purely how far the query sits
        from that MAC's sample cloud, saturating at the per-MAC spread.
        """
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        out = np.full(len(points), self._train_target_std)
        for mac_index in np.unique(mac_indices):
            key = int(mac_index)
            if key not in self._per_mac:
                continue
            positions, values = self._per_mac[key]
            mask = mac_indices == mac_index
            nearest = nearest_distances(points[mask], positions)
            out[mask] = self._std_proxy(nearest, values)
        return out

    def predict_mac_grid(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> np.ndarray:
        """The RSS layer of :meth:`_grid_pass`."""
        rss, _ = self._grid_pass(points, mac_indices, std=False)
        return rss

    def uncertainty_grid(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> np.ndarray:
        """The std layer of :meth:`_grid_pass`."""
        _, std = self._grid_pass(points, mac_indices, rss=False)
        return std

    def grid_layers(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Both layers from one shared distance matrix."""
        return self._grid_pass(points, mac_indices)

    # ------------------------------------------------------------------
    def _grid_pass(
        self,
        points: np.ndarray,
        mac_indices: Sequence[int],
        rss: bool = True,
        std: bool = True,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """``(rss, std)`` ``(M, N)`` fields; a layer not asked for is ``None``.

        Every beacon of a scan shares the scan's position, so the
        queried MACs' samples sit at far fewer distinct positions than
        there are samples.  One unchunked distance matrix to those
        positions is computed, and each MAC gathers its columns from
        it: the same distances :meth:`predict_points` computes per
        MAC, so every row equals the point methods bit for bit.  MACs
        absent from training get the global mean and the training
        target spread.
        """
        self._require_fitted()
        points, macs = self._coerce_grid_query(points, mac_indices)
        shape = (len(macs), len(points))
        rss_out: Optional[np.ndarray] = np.empty(shape) if rss else None
        std_out: Optional[np.ndarray] = np.empty(shape) if std else None
        clouds = [self._per_mac.get(int(mac_index)) for mac_index in macs]
        fitted = [cloud[0] for cloud in clouds if cloud is not None]
        if fitted:
            distinct, columns = np.unique(
                np.concatenate(fitted), axis=0, return_inverse=True
            )
            distinct_distances = _distances(points, distinct)
        start = 0
        for row, cloud in enumerate(clouds):
            if cloud is None:
                if rss_out is not None:
                    rss_out[row] = self._global_mean
                if std_out is not None:
                    std_out[row] = self._train_target_std
                continue
            positions, values = cloud
            stop = start + len(positions)
            distances = distinct_distances[:, columns[start:stop]]
            start = stop
            if rss_out is not None:
                rss_out[row] = self._shepard(distances, values)
            if std_out is not None:
                std_out[row] = self._std_proxy(distances.min(axis=1), values)
        return rss_out, std_out

    def _std_proxy(self, nearest: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Saturating nearest-sample distance proxy at the MAC's spread.

        A single-sample MAC has no spread of its own and falls back to
        the training target spread.
        """
        if len(values) > 1:
            sigma = max(float(values.std()), 1e-6)
        else:
            sigma = self._train_target_std
        return sigma * nearest / (nearest + self.UNCERTAINTY_RANGE_M)

    def _shepard(self, distances: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Shepard estimates from a ``(queries, samples)`` distance matrix."""
        estimates = np.empty(len(distances))
        exact = distances.min(axis=1) < self.epsilon_m
        if exact.any():
            matches = distances[exact] < self.epsilon_m
            estimates[exact] = np.where(matches, values[None, :], 0.0).sum(
                axis=1
            ) / matches.sum(axis=1)
        inexact = ~exact
        if inexact.any():
            weights = 1.0 / np.power(distances[inexact], self.power)
            estimates[inexact] = (weights @ values) / weights.sum(axis=1)
        return estimates


def _distances(queries: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``(queries, samples)`` Euclidean distances, unchunked."""
    return np.linalg.norm(queries[:, None, :] - positions[None, :, :], axis=2)
