"""One k-NN estimator per MAC address (the paper's ensemble variant).

"As an intuitive alternative to assigning samples with different MAC
addresses a greater distance, we considered a kNN estimator per MAC
address ... reducing the feature set to only the x, y, z coordinates"
— §III-B.  Each AP gets its own spatial regressor trained on its own
samples; queries dispatch by MAC.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dataset import REMDataset
from .base import Predictor
from .knn import _inverse_distance_average, _minkowski_distances, _stable_topk

__all__ = ["PerMacKnnRegressor"]


class PerMacKnnRegressor(Predictor):
    """Per-MAC k-NN over coordinates only.

    Hyper-parameters mirror the base k-NN (the paper keeps them equal).
    MACs unseen in training fall back to the global training mean.
    """

    PARAM_NAMES = ("n_neighbors", "weights", "p")
    name = "knn-per-mac"
    supports_partial_fit = True

    def __init__(self, n_neighbors: int = 3, weights: str = "distance", p: float = 2.0):
        super().__init__()
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if weights not in ("uniform", "distance"):
            raise ValueError(
                f"weights must be 'uniform' or 'distance', got {weights!r}"
            )
        self.n_neighbors = int(n_neighbors)
        self.weights = weights
        self.p = float(p)
        self._positions: Dict[int, np.ndarray] = {}
        self._targets: Dict[int, np.ndarray] = {}
        self._global_mean = 0.0

    # ------------------------------------------------------------------
    def fit(self, train: REMDataset) -> "PerMacKnnRegressor":
        """Partition training rows by MAC."""
        if len(train) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._global_mean = float(train.rssi_dbm.mean())
        self._positions = {}
        self._targets = {}
        for mac_index in np.unique(train.mac_indices):
            mask = train.mac_indices == mac_index
            self._positions[int(mac_index)] = train.positions[mask]
            self._targets[int(mac_index)] = train.rssi_dbm[mask].astype(float)
        self._mark_fitted(train)
        return self

    def partial_fit(self, delta: REMDataset) -> "PerMacKnnRegressor":
        """Append delta rows to the per-MAC regressors.

        Touches only the MACs present in the delta; appending preserves
        row order, so the grown arrays equal a from-scratch fit's masked
        arrays bit for bit.  The global-mean fallback is recomputed over
        the full target array.
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
            new_targets = delta.rssi_dbm[rows].astype(float)
            if key in self._positions:
                self._positions[key] = np.concatenate(
                    [self._positions[key], new_positions]
                )
                self._targets[key] = np.concatenate(
                    [self._targets[key], new_targets]
                )
            else:
                self._positions[key] = new_positions
                self._targets[key] = new_targets
        return self

    def predict_points(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Batched prediction: group queries by MAC, one search per group."""
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        out = np.full(len(points), self._global_mean)
        for mac_index in np.unique(mac_indices):
            mask = mac_indices == mac_index
            key = int(mac_index)
            if key not in self._positions:
                continue
            out[mask] = self._predict_for_mac(key, points[mask])
        return out

    def predict_points_std(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Disagreement + distance proxy over each MAC's own regressor.

        Unseen MACs report the global target spread (no spatial model
        exists for them at all — maximal uncertainty).
        """
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        out = np.full(len(points), self._train_target_std)
        for mac_index in np.unique(mac_indices):
            key = int(mac_index)
            if key not in self._positions:
                continue
            mask = mac_indices == mac_index
            positions = self._positions[key]
            targets = self._targets[key]
            k = min(self.n_neighbors, len(targets))
            distances = _minkowski_distances(points[mask], positions, self.p)
            neighbor_idx, neighbor_dist = _stable_topk(distances, k)
            disagreement = targets[neighbor_idx].std(axis=1)
            mean_dist = neighbor_dist.mean(axis=1)
            sigma = self._train_target_std
            reach = sigma * mean_dist / (mean_dist + self.UNCERTAINTY_RANGE_M)
            out[mask] = np.sqrt(disagreement**2 + reach**2)
        return out

    # ------------------------------------------------------------------
    def _predict_for_mac(self, mac_index: int, queries: np.ndarray) -> np.ndarray:
        positions = self._positions[mac_index]
        targets = self._targets[mac_index]
        k = min(self.n_neighbors, len(targets))
        distances = _minkowski_distances(queries, positions, self.p)
        neighbor_idx, neighbor_dist = _stable_topk(distances, k)
        neighbor_y = targets[neighbor_idx]
        if self.weights == "uniform":
            return neighbor_y.mean(axis=1)
        return _inverse_distance_average(neighbor_dist, neighbor_y)
