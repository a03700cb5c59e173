"""k-nearest-neighbors RSS regression (the paper's main estimator family).

The features are the 3-D coordinates plus the one-hot encoded MAC
address; including the one-hot bits makes samples from *different* APs
at least ``sqrt(2) * onehot_scale`` apart, so neighbors are effectively
searched within the same AP first.  The paper evaluates:

* the grid-searched base configuration — ``n_neighbors=3``,
  ``weights="distance"``, Minkowski ``p=2`` (Euclidean);
* the variant with the one-hot features multiplied by 3 and
  ``n_neighbors=16`` (its best performer at 4.4186 dBm RMSE).

Implemented directly on numpy (no scikit-learn available offline):
brute-force Minkowski distances, chunked to bound memory.

The batched fast path exploits the one-hot structure analytically: for
any Minkowski exponent ``p``, the distance between a query of MAC ``m``
and a training sample of MAC ``m'`` satisfies

    d^p = d_xyz^p + 2 * onehot_scale^p * [m != m'],

so instead of forming the full ``(3 + n_macs)``-dimensional feature
matrix per MAC, :meth:`KnnRegressor.predict_mac_grid` computes the
3-D powered distance matrix **once** and adds the constant cross-MAC
penalty per MAC — one small matrix instead of 73 wide ones.

The grid search's :meth:`KnnRegressor.cv_predict` extends the sharing
across configurations: one fit per fold, the distance matrix per ``p``,
the global candidates per ``n_neighbors``, the per-MAC neighbor search
per ``onehot_scale``, and only the final average per ``weights``.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dataset import REMDataset
from .base import Predictor

__all__ = ["KnnRegressor"]

_CHUNK_ROWS = 512
#: Larger chunks for the grid path: the per-chunk matrix is reused
#: across every MAC, so python overhead dominates at small sizes.
_GRID_CHUNK_ROWS = 4096


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances via the quadratic expansion.

    ``||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` cancels catastrophically
    at coincident points, leaving a BLAS-batch-dependent residual of
    order ``eps * (||a||^2 + ||b||^2)``; such residuals are snapped to
    exact zero so the exact-match convention downstream fires
    identically in every path regardless of chunk size.
    """
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    scale = aa + bb
    sq = np.maximum(scale - 2.0 * (a @ b.T), 0.0)
    sq[sq <= 1e-12 * scale] = 0.0
    return sq


def _minkowski_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Pairwise Minkowski-p distances between rows of ``a`` and ``b``."""
    if p == 2.0:
        return np.sqrt(_squared_distances(a, b))
    diff = np.abs(a[:, None, :] - b[None, :, :])
    return np.power(np.sum(np.power(diff, p), axis=2), 1.0 / p)


def _powered_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Pairwise Minkowski-p distances **raised to p** (monotone proxy)."""
    if p == 2.0:
        return _squared_distances(a, b)
    diff = np.abs(a[:, None, :] - b[None, :, :])
    return np.sum(np.power(diff, p), axis=2)


#: Relative tolerance for k-th-neighbor boundary ties.  Values this
#: close are either genuine duplicates (every beacon of one scan shares
#: that scan's position estimate, so cross-MAC distances collide) or
#: representation noise: the dense reference feature path places each
#: MAC's one-hot term at a different column of its norm summation,
#: splitting exact ties into ±1-ulp subgroups.
_TIE_RTOL = 1e-9


def _stable_topk(powered: np.ndarray, k: int):
    """Row-wise indices/values of the ``k`` smallest entries.

    Ties at the k-th-neighbor boundary (within ``_TIE_RTOL`` relative)
    are broken by **lowest column index** — a deterministic convention,
    unlike raw ``argpartition`` whose introselect pivots make tie
    resolution depend on floating-point noise elsewhere in the row.
    """
    n, m = powered.shape
    if k >= m:
        idx = np.broadcast_to(np.arange(m), powered.shape)
        return idx, powered
    part = np.argpartition(powered, k - 1, axis=1)[:, :k]
    thresh = np.take_along_axis(powered, part, axis=1).max(axis=1, keepdims=True)
    eps = _TIE_RTOL * thresh + 1e-15
    less = powered < thresh - eps
    need = k - less.sum(axis=1, keepdims=True)
    tied = np.abs(powered - thresh) <= eps
    mask = less | (tied & (np.cumsum(tied, axis=1) <= need))
    idx = np.nonzero(mask)[1].reshape(n, k)
    return idx, np.take_along_axis(powered, idx, axis=1)


def _inverse_distance_average(
    neighbor_dist: np.ndarray, neighbor_y: np.ndarray
) -> np.ndarray:
    """Row-wise inverse-distance weighted average with the exact-match
    convention: rows containing zero distances average only the exact
    matches (scikit-learn's behavior)."""
    zero_mask = neighbor_dist <= 1e-12
    has_zero = zero_mask.any(axis=1)
    with np.errstate(divide="ignore"):
        w = 1.0 / neighbor_dist
    if has_zero.any():
        w[has_zero] = zero_mask[has_zero].astype(float)
    return np.sum(w * neighbor_y, axis=1) / np.sum(w, axis=1)


def _group_by(
    members: List[Tuple[int, "KnnRegressor"]], param: str
) -> List[List[Tuple[int, "KnnRegressor"]]]:
    """Split ``(row, model)`` pairs into groups sharing ``model.<param>``."""
    groups: Dict[Any, List[Tuple[int, "KnnRegressor"]]] = {}
    for member in members:
        groups.setdefault(getattr(member[1], param), []).append(member)
    return list(groups.values())


class KnnRegressor(Predictor):
    """Brute-force k-NN regression over [x, y, z, one-hot(MAC)] features.

    Parameters
    ----------
    n_neighbors:
        Number of neighbors (the paper grid-searches 3 and 16).
    weights:
        ``"uniform"`` or ``"distance"`` (inverse-distance weighting; an
        exact feature match takes all the weight, like scikit-learn).
    p:
        Minkowski exponent (``metric=minkowski, p=2`` → Euclidean).
    onehot_scale:
        Multiplier on the one-hot MAC features (the paper's factor 3).
    """

    PARAM_NAMES = ("n_neighbors", "weights", "p", "onehot_scale")
    name = "knn"
    supports_partial_fit = True

    def __init__(
        self,
        n_neighbors: int = 3,
        weights: str = "distance",
        p: float = 2.0,
        onehot_scale: float = 1.0,
    ):
        super().__init__()
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if weights not in ("uniform", "distance"):
            raise ValueError(
                f"weights must be 'uniform' or 'distance', got {weights!r}"
            )
        if p < 1:
            raise ValueError(f"Minkowski p must be >= 1, got {p}")
        if onehot_scale < 0:
            raise ValueError(f"onehot_scale must be >= 0, got {onehot_scale}")
        self.n_neighbors = int(n_neighbors)
        self.weights = weights
        self.p = float(p)
        self.onehot_scale = float(onehot_scale)
        self._train_features: Optional[np.ndarray] = None
        self._n_train_macs = 0
        self._train_targets: Optional[np.ndarray] = None
        self._train_positions: Optional[np.ndarray] = None
        self._train_macs: Optional[np.ndarray] = None
        self._mac_columns: dict = {}

    # ------------------------------------------------------------------
    def fit(self, train: REMDataset) -> "KnnRegressor":
        """Memorize the training features and targets.

        The dense one-hot feature matrix only serves the reference
        :meth:`predict` path, so it is materialized lazily (from the
        arrays copied here, preserving the snapshot-at-fit contract) —
        fits that are consumed through the batched point/grid APIs
        (REM builds, online refits, uncertainty scoring) never pay
        for it.
        """
        if len(train) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._train_features = None
        self._n_train_macs = train.n_macs
        self._train_targets = train.rssi_dbm.astype(float).copy()
        self._train_positions = np.ascontiguousarray(
            train.positions.astype(float)
        )
        self._train_macs = train.mac_indices.astype(int).copy()
        self._mac_columns = {
            int(mac): np.flatnonzero(self._train_macs == mac)
            for mac in np.unique(self._train_macs)
        }
        self._mark_fitted(train)
        return self

    def partial_fit(self, delta: REMDataset) -> "KnnRegressor":
        """Append delta rows to the structure-of-arrays training buffers.

        Appending preserves row order, so the grown target/position/MAC
        arrays equal a from-scratch fit's bit for bit.  Existing
        ``_mac_columns`` index arrays stay valid (indices are append-
        only); MACs present in the delta extend theirs with the new row
        offsets.  The lazily-built dense feature matrix is invalidated
        and rebuilt on the next reference :meth:`predict` call.
        """
        if not self._check_partial_fit(delta):
            return self
        assert self._train_targets is not None
        n_old = len(self._train_targets)
        self._train_features = None
        self._train_targets = np.concatenate(
            [self._train_targets, delta.rssi_dbm.astype(float)]
        )
        self._train_positions = np.ascontiguousarray(
            np.concatenate(
                [self._train_positions, delta.positions.astype(float)]
            )
        )
        delta_macs = delta.mac_indices.astype(int)
        self._train_macs = np.concatenate([self._train_macs, delta_macs])
        # One stable sort groups the delta rows by MAC; within a group
        # the stable order is ascending row index, so each group equals
        # the per-MAC ``flatnonzero`` scan (71 MACs would make per-MAC
        # scans the dominant refit cost) bit for bit.
        order = np.argsort(delta_macs, kind="stable")
        groups, starts = np.unique(delta_macs[order], return_index=True)
        bounds = np.append(starts, len(order))
        for g, mac_index in enumerate(groups):
            key = int(mac_index)
            new_columns = n_old + order[starts[g] : bounds[g + 1]]
            old_columns = self._mac_columns.get(key)
            if old_columns is None:
                self._mac_columns[key] = new_columns
            else:
                self._mac_columns[key] = np.concatenate(
                    [old_columns, new_columns]
                )
        self._extend_fitted(delta)
        return self

    def predict(self, data: REMDataset) -> np.ndarray:
        """Weighted neighbor average for every query row, brute force.

        The dense reference over the full [x, y, z, one-hot(MAC)]
        features: tests check the batched paths against it, and the
        held-out score uses it.  It agrees with :meth:`predict_points`
        to 1e-9, not bit for bit.
        """
        self._require_fitted()
        queries = data.features(self.onehot_scale)
        out = np.empty(len(data))
        for start in range(0, len(data), _CHUNK_ROWS):
            chunk = queries[start : start + _CHUNK_ROWS]
            out[start : start + _CHUNK_ROWS] = self._predict_chunk(chunk)
        return out

    # ------------------------------------------------------------------
    # batched fast paths
    # ------------------------------------------------------------------
    def predict_points(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Batched prediction via the partitioned-penalty decomposition."""
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        return self._neighbor_pass(
            [self], points, mac_indices, KnnRegressor._weighted_average
        )[0]

    def cv_predict(
        self,
        train: REMDataset,
        validation: REMDataset,
        param_sets: Sequence[Dict[str, Any]],
    ) -> np.ndarray:
        """Predict ``validation`` under every configuration in one pass.

        Row ``i`` equals ``clone(**param_sets[i]).fit(train)
        .predict_points(validation.positions, validation.mac_indices)``
        bit for bit.  :meth:`fit` reads no hyper-parameter, so one fit
        serves every configuration, and :meth:`_neighbor_pass` shares
        the distance work between configurations that agree on the
        parameters it reads.
        """
        configs = [self.clone(**params) for params in param_sets]
        fitted = self.clone().fit(train)
        models = []
        for config in configs:
            model = copy.copy(fitted)
            vars(model).update(config.get_params())
            models.append(model)
        points, mac_indices = self._coerce_point_query(
            validation.positions, validation.mac_indices
        )
        return fitted._neighbor_pass(
            models, points, mac_indices, KnnRegressor._weighted_average
        )

    def predict_points_std(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Neighbor-disagreement uncertainty proxy.

        Combines, in quadrature, the spread of the selected neighbors'
        targets (model disagreement) with the saturating mean-neighbor-
        distance term of the base class (extrapolation risk) — k-NN
        fields are flat far from data, so distance must contribute or
        unexplored space would look certain.
        """
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        return self._neighbor_pass(
            [self], points, mac_indices, KnnRegressor._std_from_neighbors
        )[0]

    def predict_mac_grid(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> np.ndarray:
        """One shared 3-D distance matrix serves every MAC's field.

        The cross-MAC penalty is a constant per MAC, so the expensive
        parts — the powered 3-D distance matrix and its global top-2k
        neighbor candidates — are computed once and reused by every MAC;
        each MAC then only refines candidates against its own (small)
        training partition.
        """
        return self._grid_pass(
            points, mac_indices, (KnnRegressor._weighted_average,)
        )[0]

    def uncertainty_grid(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> np.ndarray:
        """One shared 3-D distance matrix serves every MAC's std field.

        Same per-MAC numbers as stacked :meth:`predict_points_std`
        calls (both reduce the same penalty-decomposition neighbors),
        but the powered distance matrix and its global candidates — the
        expensive half of a full-vocabulary uncertainty query, which the
        active planner issues every round — are computed once per chunk
        instead of once per MAC.
        """
        return self._grid_pass(
            points, mac_indices, (KnnRegressor._std_from_neighbors,)
        )[0]

    def grid_layers(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """RSS and std fields from one neighbor search per MAC and chunk.

        Both layers reduce the same exact neighbors, so each equals its
        one-layer grid method bit for bit while the distance matrix,
        the global candidates and the per-MAC search run once.
        """
        rss, std = self._grid_pass(
            points,
            mac_indices,
            (KnnRegressor._weighted_average, KnnRegressor._std_from_neighbors),
        )
        return rss, std

    # ------------------------------------------------------------------
    def _neighbor_pass(
        self,
        models: Sequence["KnnRegressor"],
        points: np.ndarray,
        mac_indices: np.ndarray,
        reduce: Callable[["KnnRegressor", np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """``(len(models), N)`` reductions of each model's exact neighbors.

        ``models`` hold this model's training arrays and differ only in
        hyper-parameters.  Each level of work runs once per group of
        models agreeing on the parameters it reads: the powered 3-D
        distances per ``p``, the global candidates per ``(p,
        n_neighbors)``, the per-MAC neighbor search per ``(p,
        n_neighbors, onehot_scale)``; only ``reduce(model, neighbor_pow,
        neighbor_y)`` runs per model.  ``models=[self]`` is the
        single-model query loop.
        """
        assert self._train_targets is not None
        out = np.empty((len(models), len(points)))
        members = list(enumerate(models))
        for start in range(0, len(points), _GRID_CHUNK_ROWS):
            sl = slice(start, min(start + _GRID_CHUNK_ROWS, len(points)))
            chunk_macs = mac_indices[sl]
            masks = [(int(mac), chunk_macs == mac) for mac in np.unique(chunk_macs)]
            chunk_out = out[:, sl]
            for same_p in _group_by(members, "p"):
                base = _powered_distances(
                    points[sl], self._train_positions, same_p[0][1].p
                )
                for same_k in _group_by(same_p, "n_neighbors"):
                    global_idx, global_pow = same_k[0][1]._global_candidates(base)
                    by_scale = _group_by(same_k, "onehot_scale")
                    for mac_index, rows in masks:
                        query = (base[rows], global_idx[rows], global_pow[rows])
                        for same_scale in by_scale:
                            lead = same_scale[0][1]
                            neighbor_idx, neighbor_pow = lead._neighbors_for_mac(
                                *query, mac_index
                            )
                            neighbor_y = self._train_targets[neighbor_idx]
                            for row, model in same_scale:
                                chunk_out[row, rows] = reduce(
                                    model, neighbor_pow, neighbor_y
                                )
        return out

    def _grid_pass(
        self,
        points: np.ndarray,
        mac_indices: Sequence[int],
        reducers: Sequence[
            Callable[["KnnRegressor", np.ndarray, np.ndarray], np.ndarray]
        ],
    ) -> Tuple[np.ndarray, ...]:
        """One ``(M, N)`` field per reducer, from one neighbor search per MAC."""
        self._require_fitted()
        assert self._train_targets is not None
        points, macs = self._coerce_grid_query(points, mac_indices)
        outs = tuple(np.empty((len(macs), len(points))) for _ in reducers)
        for start in range(0, len(points), _GRID_CHUNK_ROWS):
            sl = slice(start, min(start + _GRID_CHUNK_ROWS, len(points)))
            base = _powered_distances(points[sl], self._train_positions, self.p)
            global_idx, global_pow = self._global_candidates(base)
            for row, mac_index in enumerate(macs):
                neighbor_idx, neighbor_pow = self._neighbors_for_mac(
                    base, global_idx, global_pow, int(mac_index)
                )
                neighbor_y = self._train_targets[neighbor_idx]
                for out, reduce in zip(outs, reducers):
                    out[row, sl] = reduce(self, neighbor_pow, neighbor_y)
                # Freed before the next MAC's search: kept alive across
                # that search's large temporaries, it changed glibc's
                # heap layout enough to leave 20-50 MB of freed heap
                # resident in serving workers forked after a build.
                del neighbor_y
        return outs

    def _global_candidates(self, base: np.ndarray):
        """Top-2k xyz neighbors regardless of MAC, shared across MACs."""
        width = min(2 * self.n_neighbors, base.shape[1])
        return _stable_topk(base, width)

    def _neighbors_for_mac(
        self,
        base: np.ndarray,
        global_idx: np.ndarray,
        global_pow: np.ndarray,
        mac_index: int,
    ):
        """Exact penalized top-k ``(idx, pow)`` of every row for one MAC.

        Rows the candidate search cannot cover fall back to the dense
        search over every training column.
        """
        assert self._train_targets is not None
        penalty = 2.0 * self.onehot_scale**self.p
        if penalty == 0.0 or global_pow.shape[1] >= len(self._train_targets):
            return self._dense_neighbors(base, mac_index, penalty)
        neighbor_idx, neighbor_pow, covered = self._candidate_neighbors_for_mac(
            base, global_idx, global_pow, mac_index
        )
        if not covered.all():
            rows = ~covered
            fallback = self._dense_neighbors(base[rows], mac_index, penalty)
            neighbor_idx[rows], neighbor_pow[rows] = fallback
        return neighbor_idx, neighbor_pow

    def _candidate_neighbors_for_mac(
        self,
        base: np.ndarray,
        global_idx: np.ndarray,
        global_pow: np.ndarray,
        mac_index: int,
    ):
        """Exact penalized top-k ``(idx, pow, covered)`` for one MAC.

        True penalized neighbors are either same-MAC (covered by the
        per-MAC top-k over that MAC's training partition) or other-MAC
        (covered by the global top-2k whenever it holds enough other-MAC
        entries — rows where it does not, flagged ``covered=False``,
        must fall back to the dense search).
        """
        assert self._train_macs is not None and self._train_targets is not None
        n_train = len(self._train_targets)
        k = min(self.n_neighbors, n_train)
        penalty = 2.0 * self.onehot_scale**self.p

        columns = self._mac_columns.get(mac_index)
        n_queries = len(base)
        if columns is None or len(columns) == 0:
            same_idx = np.empty((n_queries, 0), dtype=int)
            same_pow = np.empty((n_queries, 0))
        elif len(columns) <= k:
            same_idx = np.broadcast_to(columns, (n_queries, len(columns)))
            same_pow = base[:, columns]
        else:
            pick, same_pow = _stable_topk(base[:, columns], k)
            same_idx = columns[pick]

        other_mask = self._train_macs[global_idx] != mac_index
        n_other = n_train - (0 if columns is None else len(columns))
        covered = other_mask.sum(axis=1) >= min(k, n_other)
        other_pow = np.where(other_mask, global_pow + penalty, np.inf)

        cand_pow = np.concatenate([same_pow, other_pow], axis=1)
        cand_idx = np.concatenate([same_idx, global_idx], axis=1)
        pick, neighbor_pow = _stable_topk(cand_pow, k)
        neighbor_idx = np.take_along_axis(cand_idx, pick, axis=1)
        return neighbor_idx, neighbor_pow, covered

    def _dense_neighbors(self, base: np.ndarray, mac_index: int, penalty: float):
        """Dense fallback: penalize every column, then top-k."""
        assert self._train_macs is not None and self._train_targets is not None
        if penalty != 0.0:
            powered = base + penalty * (self._train_macs != mac_index)
        else:
            powered = base
        return _stable_topk(powered, min(self.n_neighbors, len(self._train_targets)))

    def _weighted_average(
        self, neighbor_pow: np.ndarray, neighbor_y: np.ndarray
    ) -> np.ndarray:
        """Uniform or inverse-distance weighting over selected neighbors."""
        if self.weights == "uniform":
            return neighbor_y.mean(axis=1)
        if self.p == 2.0:
            neighbor_dist = np.sqrt(neighbor_pow)
        else:
            neighbor_dist = np.power(neighbor_pow, 1.0 / self.p)
        return _inverse_distance_average(neighbor_dist, neighbor_y)

    def _std_from_neighbors(
        self, neighbor_pow: np.ndarray, neighbor_y: np.ndarray
    ) -> np.ndarray:
        """Disagreement + distance proxy over selected neighbors."""
        disagreement = neighbor_y.std(axis=1)
        if self.p == 2.0:
            neighbor_dist = np.sqrt(neighbor_pow)
        else:
            neighbor_dist = np.power(neighbor_pow, 1.0 / self.p)
        mean_dist = neighbor_dist.mean(axis=1)
        sigma = self._train_target_std
        reach = sigma * mean_dist / (mean_dist + self.UNCERTAINTY_RANGE_M)
        return np.sqrt(disagreement**2 + reach**2)

    # ------------------------------------------------------------------
    def _reference_features(self) -> np.ndarray:
        """[x, y, z, one-hot(MAC)] rebuilt from the fit-time snapshots
        (same layout as ``REMDataset.features``)."""
        assert self._train_positions is not None and self._train_macs is not None
        onehot = np.zeros((len(self._train_macs), self._n_train_macs))
        onehot[np.arange(len(self._train_macs)), self._train_macs] = (
            self.onehot_scale
        )
        return np.hstack([self._train_positions, onehot])

    def _predict_chunk(self, queries: np.ndarray) -> np.ndarray:
        assert self._train_targets is not None
        if self._train_features is None:
            self._train_features = self._reference_features()
        k = min(self.n_neighbors, len(self._train_targets))
        distances = _minkowski_distances(queries, self._train_features, self.p)
        neighbor_idx, neighbor_dist = _stable_topk(distances, k)
        neighbor_y = self._train_targets[neighbor_idx]
        if self.weights == "uniform":
            return neighbor_y.mean(axis=1)
        return _inverse_distance_average(neighbor_dist, neighbor_y)
