"""The paper's baseline estimator: predict the mean RSS per MAC address.

"In order to assess more elaborate estimators we used a baseline
estimator that always returns the mean per MAC address" — §III-B.  Its
RMSE (4.8107 dBm in the paper) is the bar every spatial model must
clear: beating it proves the estimator extracts *location* information,
not just per-AP averages.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dataset import REMDataset
from .base import Predictor

__all__ = ["MeanPerMacBaseline"]


class MeanPerMacBaseline(Predictor):
    """Predicts each sample's RSS as its AP's training mean."""

    PARAM_NAMES = ()
    name = "baseline-mean-per-mac"
    supports_partial_fit = True

    def __init__(self):
        super().__init__()
        self._means: Dict[int, float] = {}
        self._means_table: np.ndarray = np.zeros(0)
        self._stds_table: np.ndarray = np.zeros(0)
        self._global_mean = 0.0
        self._global_std = 1.0

    def fit(self, train: REMDataset) -> "MeanPerMacBaseline":
        """Compute per-MAC and global training means."""
        if len(train) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._global_mean = float(train.rssi_dbm.mean())
        self._means = {}
        for mac_index in np.unique(train.mac_indices):
            mask = train.mac_indices == mac_index
            self._means[int(mac_index)] = float(train.rssi_dbm[mask].mean())
        # Dense lookup table over the vocabulary for the batched paths
        # (vocabulary entries never observed in training keep the global
        # mean, matching the dict's .get() fallback).
        self._global_std = max(float(train.rssi_dbm.std()), 1e-6)
        self._means_table = np.full(train.n_macs, self._global_mean)
        self._stds_table = np.full(train.n_macs, self._global_std)
        for mac_index in np.unique(train.mac_indices):
            mask = train.mac_indices == mac_index
            self._means_table[mac_index] = self._means[int(mac_index)]
            self._stds_table[mac_index] = max(
                float(train.rssi_dbm[mask].std()), 1e-6
            )
        self._mark_fitted(train)
        return self

    def partial_fit(self, delta: REMDataset) -> "MeanPerMacBaseline":
        """Fold new rows in without re-scanning untouched MACs.

        The global mean/std shift with every delta (full-array
        reductions, O(n)); per-MAC statistics are recomputed only for
        the MACs the delta touched — untouched MACs keep their entries,
        which equal a from-scratch fit bit for bit because appending
        preserves row order.
        """
        if not self._check_partial_fit(delta):
            return self
        self._extend_fitted(delta)
        assert self._train_support is not None and self._train_rssi is not None
        macs = self._train_support[1]
        rssi = self._train_rssi
        self._global_mean = float(rssi.mean())
        self._global_std = max(float(rssi.std()), 1e-6)
        means = np.full(len(self._means_table), self._global_mean)
        stds = np.full(len(self._stds_table), self._global_std)
        for mac_index, value in self._means.items():
            means[mac_index] = value
            stds[mac_index] = self._stds_table[mac_index]
        for mac_index in np.unique(delta.mac_indices):
            mask = macs == mac_index
            self._means[int(mac_index)] = float(rssi[mask].mean())
            means[mac_index] = self._means[int(mac_index)]
            stds[mac_index] = max(float(rssi[mask].std()), 1e-6)
        self._means_table = means
        self._stds_table = stds
        return self

    def predict_points(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Vectorized table lookup (positions are irrelevant here)."""
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        return self._lookup(mac_indices)

    def predict_mac_grid(self, points: np.ndarray, mac_indices) -> np.ndarray:
        """Each MAC's field is a constant plane at its training mean."""
        self._require_fitted()
        points, macs = self._coerce_grid_query(points, mac_indices)
        return np.repeat(self._lookup(macs)[:, None], len(points), axis=1)

    def predict_points_std(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Each MAC's training RSS spread — position-independent.

        The baseline has no spatial structure, so its honest uncertainty
        is the scatter it averages over (global spread for unseen MACs).
        """
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        out = np.full(mac_indices.shape, self._global_std)
        known = (mac_indices >= 0) & (mac_indices < len(self._stds_table))
        out[known] = self._stds_table[mac_indices[known]]
        return out

    def _lookup(self, mac_indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(mac_indices, dtype=int)
        out = np.full(indices.shape, self._global_mean)
        known = (indices >= 0) & (indices < len(self._means_table))
        out[known] = self._means_table[indices[known]]
        return out
