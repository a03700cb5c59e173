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
one tie-band pass per ``p`` that serves the global candidates of every
``n_neighbors``, the neighbor search per ``onehot_scale``, and only the
final average per ``weights``.

There is one exact neighbor search, :meth:`KnnRegressor._neighbors`.
It takes rows of any mix of MACs, or one MAC for every row: each row's
same-MAC candidates come from its MAC's columns (through a padded
column table when the MACs mix), its other-MAC candidates from the
global top-2k, and rows those cannot cover share one dense fallback.
Each row's candidates, values and order are those of a search over its
MAC alone, so the query paths batch a whole chunk in one call while the
lattice calls it once per MAC, and both agree bit for bit.
:meth:`KnnRegressor.neighbors` returns its neighbors sorted by training
index, and :meth:`KnnRegressor.merge_neighbors` keeps them current
across :meth:`KnnRegressor.partial_fit` calls by searching only the
appended rows; the online builder scores its holdout set that way.

A covered row merges its two candidate sets through one more
:func:`_stable_topk` only when it must.  Let ``T`` be the k-th smallest
same-MAC value and ``eps`` the tie band :func:`_stable_topk` puts around
it.  When ``min(other) + penalty - T > eps``, every other-MAC candidate
lies above ``T`` and outside its band, so the merge would find ``T`` as
its threshold, select no other-MAC entry, and return the k same-MAC
entries in their order: the row keeps them as they are, bit for bit.
The test is conservative (a row that fails it still merges), so it is
exact.  On the default build's lattice no (row, MAC) cell fails it.
:meth:`KnnRegressor._candidate_summary` gathers the per-row facts the
test and the coverage check read once per chunk, so a lattice pass
checks each MAC in O(N).

Every array the search returns is C-ordered.  Equal values are not
enough: the weighted average sums each row, numpy's summation order
follows the memory layout, and a Fortran-ordered neighbor array moves
the last bits of a map.
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
    # ``np.maximum(scale - 2.0 * (a @ b.T), 0.0)`` and the snap, in
    # place: a lattice chunk's matrix is tens of MB, and each
    # temporary of that size adds to the build's peak memory.
    sq = a @ b.T
    sq *= 2.0
    np.subtract(scale, sq, out=sq)
    np.maximum(sq, 0.0, out=sq)
    scale *= 1e-12
    sq[sq <= scale] = 0.0
    return sq


def _minkowski_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Pairwise Minkowski-p distances between rows of ``a`` and ``b``."""
    if p == 2.0:
        return np.sqrt(_squared_distances(a, b))
    return _root(_powered_distances(a, b, p), p)


def _powered_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Pairwise Minkowski-p distances **raised to p** (monotone proxy).

    The per-axis terms are summed left to right, the order of
    ``np.sum(terms, axis=2)`` over the stacked ``(n, m, 3)`` block,
    without allocating that block.  ``np.power(x, 1.0)`` returns ``x``
    bit for bit, so p = 1 skips it.
    """
    if p == 2.0:
        return _squared_distances(a, b)
    total = None
    for axis in range(a.shape[1]):
        term = np.abs(a[:, axis, None] - b[None, :, axis])
        if p != 1.0:
            np.power(term, p, out=term)
        if total is None:
            total = term
        else:
            total += term
    return total


def _root(powered: np.ndarray, p: float) -> np.ndarray:
    """Undo the ``p``-th power of :func:`_powered_distances`."""
    if p == 2.0:
        return np.sqrt(powered)
    if p == 1.0:
        return powered
    return np.power(powered, 1.0 / p)


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
    Both outputs are C-ordered.
    """
    n, m = powered.shape
    if k >= m:
        idx = np.broadcast_to(np.arange(m), powered.shape).copy()
        return idx, np.ascontiguousarray(powered)
    thresh = np.partition(powered, k - 1, axis=1)[:, k - 1 : k]
    eps = _TIE_RTOL * thresh + 1e-15
    less = powered < thresh - eps
    tied = np.abs(powered - thresh) <= eps
    mask = less | tied
    # A row whose band holds exactly k entries takes them all; only a
    # crowded row drops its highest-index ties, ``need`` of them kept.
    crowded = np.flatnonzero(np.count_nonzero(mask, axis=1) > k)
    if len(crowded):
        less, tied = less[crowded], tied[crowded]
        need = k - less.sum(axis=1, keepdims=True)
        mask[crowded] = less | (tied & (np.cumsum(tied, axis=1) <= need))
    # Flat positions in row-major order, less each row's offset: the
    # column indices ``np.nonzero(mask)[1]`` gives, as a C-ordered array.
    idx = np.flatnonzero(mask).reshape(n, k)
    idx -= np.arange(0, n * m, m)[:, None]
    return idx, np.take_along_axis(powered, idx, axis=1)


def _global_candidates(base: np.ndarray, widths: Sequence[int]):
    """``_stable_topk(base, min(w, n_cols))`` for every ``w`` in ``widths``.

    Every entry a top-w search can select lies at or below the w-th
    smallest value plus its tie band, so none lies beyond the widest
    width's band.  One full-row pass gathers that band per row (column
    order kept, ``+inf`` pads after it); each width then searches only
    the band.  The w-th smallest value, the ``less`` and ``tied`` sets
    and their column order are those of the full row, so the result
    equals a direct search bit for bit, near-ties included.  The band
    is taken with twice the tie tolerance to absorb rounding.
    """
    n, m = base.shape
    widths = [min(w, m) for w in widths]
    widest = max(widths)
    if widest >= m:
        band_idx = np.broadcast_to(np.arange(m), base.shape)
        band_pow = base
    else:
        thresh = np.partition(base, widest - 1, axis=1)[:, widest - 1 : widest]
        inside = base <= thresh + 2.0 * (_TIE_RTOL * thresh + 1e-15)
        # ``np.nonzero(inside)`` from the flat positions: the same
        # row-major pairs, several times faster on a wide matrix.
        rows, cols = np.divmod(np.flatnonzero(inside), m)
        counts = np.bincount(rows, minlength=n)
        slots = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        band_idx = np.zeros((n, int(counts.max())), dtype=int)
        band_pow = np.full(band_idx.shape, np.inf)
        band_idx[rows, slots] = cols
        band_pow[rows, slots] = base[rows, cols]
    found = []
    for width in widths:
        pick, width_pow = _stable_topk(band_pow, width)
        found.append((np.take_along_axis(band_idx, pick, axis=1), width_pow))
    return found


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
        (REM builds, online refits and their holdout scores,
        uncertainty scoring) never pay for it.
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
        pipeline's held-out test score uses it.  The online builder's
        holdout score does not: it keeps each row's :meth:`neighbors`
        and folds new training rows in with :meth:`merge_neighbors`.
        It agrees with :meth:`predict_points` to 1e-9, not bit for bit.
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
        hyper-parameters.  Each level of work runs once per chunk and
        group of models agreeing on the parameters it reads: the powered
        3-D distances per ``p``, the global candidates per ``(p,
        n_neighbors)``, the row-batched neighbor search over the chunk's
        mixed MACs per ``(p, n_neighbors, onehot_scale)``; only
        ``reduce(model, neighbor_pow, neighbor_y)`` runs per model.
        ``models=[self]`` is the single-model query loop.
        """
        assert self._train_targets is not None
        out = np.empty((len(models), len(points)))
        members = list(enumerate(models))
        for start in range(0, len(points), _GRID_CHUNK_ROWS):
            sl = slice(start, min(start + _GRID_CHUNK_ROWS, len(points)))
            chunk_macs = mac_indices[sl]
            chunk_out = out[:, sl]
            for same_p in _group_by(members, "p"):
                base = _powered_distances(
                    points[sl], self._train_positions, same_p[0][1].p
                )
                by_k = _group_by(same_p, "n_neighbors")
                widths = [2 * same_k[0][1].n_neighbors for same_k in by_k]
                for same_k, candidates in zip(by_k, _global_candidates(base, widths)):
                    summary = self._candidate_summary(*candidates)
                    for same_scale in _group_by(same_k, "onehot_scale"):
                        neighbor_idx, neighbor_pow = same_scale[0][1]._neighbors(
                            base, *candidates, chunk_macs, summary
                        )
                        neighbor_y = self._train_targets[neighbor_idx]
                        for row, model in same_scale:
                            chunk_out[row] = reduce(model, neighbor_pow, neighbor_y)
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
            (candidates,) = _global_candidates(base, [2 * self.n_neighbors])
            summary = self._candidate_summary(*candidates)
            for row, mac_index in enumerate(macs):
                neighbor_idx, neighbor_pow = self._neighbors(
                    base, *candidates, int(mac_index), summary
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

    def _neighbors(
        self,
        base: np.ndarray,
        global_idx: np.ndarray,
        global_pow: np.ndarray,
        row_macs,
        summary=None,
    ):
        """Exact penalized top-k ``(idx, pow)`` of every row for its MAC.

        ``row_macs`` holds each row's MAC, or is one MAC for every row
        (a lattice pass).  True penalized neighbors are either same-MAC
        (covered by the top-k over the row's MAC partition) or other-MAC
        (covered by the global top-2k whenever it holds enough other-MAC
        entries).  Rows where it does not, and every row when the
        candidates cannot help, fall back to the dense search over every
        training column.  A covered row keeps its same-MAC top-k when
        no other-MAC candidate can enter it (see the module docstring);
        the other covered rows merge both sets.  Each row's candidates,
        values and order are those of a search over that row's MAC
        alone, so rows of any MAC mix batch bit for bit.  ``summary`` is
        :meth:`_candidate_summary` of the candidates; a lattice pass
        passes it in, computed once per chunk for every MAC.
        """
        assert self._train_macs is not None and self._train_targets is not None
        n_train = len(self._train_targets)
        penalty = 2.0 * self.onehot_scale**self.p
        n_rows, width = global_pow.shape
        if penalty == 0.0 or width >= n_train:
            return self._dense_neighbors(base, row_macs, penalty)
        k = min(self.n_neighbors, n_train)
        # A row is uncovered only if its MAC holds more than width - k
        # of the 2k candidates: more than half, the row's majority MAC.
        assert width == 2 * k
        if summary is None:
            summary = self._candidate_summary(global_idx, global_pow)
        nearest_mac, nearest, runner_up, majority, majority_count = summary
        same_idx, same_pow, n_same = self._same_mac_candidates(base, row_macs, k)

        covered = (majority != row_macs) | (
            majority_count <= width - np.minimum(k, n_train - n_same)
        )
        keep = np.zeros(n_rows, dtype=bool)
        if same_pow.shape[1] == k:
            thresh = same_pow.max(axis=1)
            eps = _TIE_RTOL * thresh + 1e-15
            other = np.where(nearest_mac == row_macs, runner_up, nearest) + penalty
            # ``inf - inf`` rows (a row padded below k) compare False.
            with np.errstate(invalid="ignore"):
                keep = covered & (n_same >= k) & (other - thresh > eps)
            if keep.all():
                return np.ascontiguousarray(same_idx), np.ascontiguousarray(same_pow)
        neighbor_idx = np.empty((n_rows, k), dtype=int)
        neighbor_pow = np.empty((n_rows, k))
        if keep.any():
            neighbor_idx[keep], neighbor_pow[keep] = same_idx[keep], same_pow[keep]
        merge = np.flatnonzero(covered & ~keep)
        if len(merge):
            macs = row_macs if np.ndim(row_macs) == 0 else row_macs[merge, None]
            other_mask = self._train_macs[global_idx[merge]] != macs
            other_pow = np.where(other_mask, global_pow[merge] + penalty, np.inf)
            cand_pow = np.concatenate([same_pow[merge], other_pow], axis=1)
            cand_idx = np.concatenate([same_idx[merge], global_idx[merge]], axis=1)
            pick, neighbor_pow[merge] = _stable_topk(cand_pow, k)
            neighbor_idx[merge] = np.take_along_axis(cand_idx, pick, axis=1)
        if not covered.all():
            rows = ~covered
            fallback = self._dense_neighbors(
                base[rows], np.broadcast_to(row_macs, n_rows)[rows], penalty
            )
            neighbor_idx[rows], neighbor_pow[rows] = fallback
        return neighbor_idx, neighbor_pow

    def neighbors(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each query row's exact penalized top-k ``(idx, pow)``.

        The neighbors :meth:`predict_points` averages, found by
        :meth:`_neighbors` and sorted by training index, so that
        :meth:`merge_neighbors` can fold later training rows in under
        the same lowest-index tie rule.
        """
        self._require_fitted()
        assert self._train_targets is not None
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        k = min(self.n_neighbors, len(self._train_targets))
        neighbor_idx = np.empty((len(points), k), dtype=int)
        neighbor_pow = np.empty((len(points), k))
        for start in range(0, len(points), _GRID_CHUNK_ROWS):
            sl = slice(start, start + _GRID_CHUNK_ROWS)
            base = _powered_distances(points[sl], self._train_positions, self.p)
            (candidates,) = _global_candidates(base, [2 * self.n_neighbors])
            idx, pow_ = self._neighbors(base, *candidates, mac_indices[sl])
            order = np.argsort(idx, axis=1)
            neighbor_idx[sl] = np.take_along_axis(idx, order, axis=1)
            neighbor_pow[sl] = np.take_along_axis(pow_, order, axis=1)
        return neighbor_idx, neighbor_pow

    def merge_neighbors(
        self,
        points: np.ndarray,
        mac_indices: np.ndarray,
        neighbor_idx: np.ndarray,
        neighbor_pow: np.ndarray,
        first_new: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold training rows ``first_new:`` into kept :meth:`neighbors`.

        ``neighbor_idx``/``neighbor_pow`` are the rows' neighbors over
        the first ``first_new`` training rows, as :meth:`neighbors` or
        an earlier merge returned them.  Only the distances to the new
        rows are computed; one :func:`_stable_topk` over the kept and
        the new entries picks the grown top-k.  Rows appended by
        :meth:`partial_fit` have larger training indices than every
        kept entry, so a tie still goes to the lower index, and the
        result equals :meth:`neighbors` on the grown model.  ``k``
        grows with the training set while it is below ``n_neighbors``.
        """
        self._require_fitted()
        assert self._train_targets is not None and self._train_macs is not None
        n_train = len(self._train_targets)
        if first_new == n_train:
            return neighbor_idx, neighbor_pow
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        new_pow = _powered_distances(points, self._train_positions[first_new:], self.p)
        penalty = 2.0 * self.onehot_scale**self.p
        if penalty != 0.0:
            new_pow += penalty * (self._train_macs[first_new:] != mac_indices[:, None])
        new_idx = np.broadcast_to(np.arange(first_new, n_train), new_pow.shape)
        cand_idx = np.concatenate([neighbor_idx, new_idx], axis=1)
        cand_pow = np.concatenate([neighbor_pow, new_pow], axis=1)
        pick, merged_pow = _stable_topk(cand_pow, min(self.n_neighbors, n_train))
        return np.take_along_axis(cand_idx, pick, axis=1), merged_pow

    def average_neighbors(
        self, neighbor_idx: np.ndarray, neighbor_pow: np.ndarray
    ) -> np.ndarray:
        """Weighted average of :meth:`neighbors` — a prediction per row."""
        assert self._train_targets is not None
        return self._weighted_average(neighbor_pow, self._train_targets[neighbor_idx])

    def _candidate_summary(self, global_idx: np.ndarray, global_pow: np.ndarray):
        """Per-row facts about the global candidates that every MAC's
        search reads, or ``None`` when the candidates span every
        training column (the dense search).

        Returns ``(nearest_mac, nearest, runner_up, majority,
        majority_count)``:

        * the MAC and value of each row's smallest candidate, and the
          smallest value among the candidates of every other MAC
          (``+inf`` when there is none).  The smallest candidate of a
          MAC other than ``m`` is ``nearest``, or ``runner_up`` when
          ``nearest_mac == m``; a tie at the minimum across MACs makes
          the two equal.
        * the MAC in each row's median slot of the sorted candidate
          MACs, and its count.  A MAC holding more than half of a row's
          candidates fills that slot, so every other MAC holds at most
          half.
        """
        assert self._train_macs is not None
        if global_pow.shape[1] >= len(self._train_macs):
            return None
        cand_macs = self._train_macs[global_idx]
        rows = np.arange(len(cand_macs))
        first = global_pow.argmin(axis=1)
        nearest_mac = cand_macs[rows, first]
        nearest = global_pow[rows, first]
        runner_up = np.where(
            cand_macs != nearest_mac[:, None], global_pow, np.inf
        ).min(axis=1)
        majority = np.sort(cand_macs, axis=1)[:, cand_macs.shape[1] // 2]
        majority_count = np.count_nonzero(cand_macs == majority[:, None], axis=1)
        return nearest_mac, nearest, runner_up, majority, majority_count

    def _same_mac_candidates(self, base: np.ndarray, row_macs, k: int):
        """Each row's top-k ``(idx, pow, count)`` within its own MAC.

        One MAC for every row (a lattice pass, or a query chunk of one
        MAC) is a plain column gather.  Rows of mixed MACs gather
        through a padded ``(n_macs, width)`` column table; pads read
        ``+inf`` after the real columns, so they are never selected and
        leave each row's column order as it was.  Rows whose MAC has at
        most ``k`` columns take all of them; the rest go through one
        :func:`_stable_topk`.
        """
        if np.ndim(row_macs) == 0:
            columns = self._mac_columns.get(row_macs, np.zeros(0, dtype=int))
            vals = base[:, columns]
            if len(columns) <= k:
                return np.broadcast_to(columns, vals.shape), vals, len(columns)
            pick, same_pow = _stable_topk(vals, k)
            return columns[pick], same_pow, len(columns)
        macs, inverse = np.unique(row_macs, return_inverse=True)
        if len(macs) == 1:
            return self._same_mac_candidates(base, int(macs[0]), k)
        columns = [self._mac_columns.get(int(mac), ()) for mac in macs]
        counts = np.array([len(c) for c in columns], dtype=int)
        table = np.zeros((len(macs), int(counts.max())), dtype=int)
        for row, mac_columns in enumerate(columns):
            table[row, : len(mac_columns)] = mac_columns
        n_same = counts[inverse]
        cols = table[inverse]
        vals = np.take_along_axis(base, cols, axis=1)
        vals[np.arange(table.shape[1]) >= n_same[:, None]] = np.inf
        big = n_same > k
        if not big.any():
            return cols[:, :k], vals[:, :k], n_same
        if big.all():
            pick, same_pow = _stable_topk(vals, k)
            return np.take_along_axis(cols, pick, axis=1), same_pow, n_same
        same_idx, same_pow = cols[:, :k], vals[:, :k]
        pick, same_pow[big] = _stable_topk(vals[big], k)
        same_idx[big] = np.take_along_axis(cols[big], pick, axis=1)
        return same_idx, same_pow, n_same

    def _dense_neighbors(self, base: np.ndarray, row_macs: np.ndarray, penalty: float):
        """Dense fallback: penalize every column, then top-k."""
        assert self._train_macs is not None and self._train_targets is not None
        powered = base
        if penalty != 0.0:
            row_macs = np.broadcast_to(row_macs, len(base))
            powered = penalty * (self._train_macs != row_macs[:, None])
            powered += base
        return _stable_topk(powered, min(self.n_neighbors, len(self._train_targets)))

    def _weighted_average(
        self, neighbor_pow: np.ndarray, neighbor_y: np.ndarray
    ) -> np.ndarray:
        """Uniform or inverse-distance weighting over selected neighbors."""
        if self.weights == "uniform":
            return neighbor_y.mean(axis=1)
        return _inverse_distance_average(_root(neighbor_pow, self.p), neighbor_y)

    def _std_from_neighbors(
        self, neighbor_pow: np.ndarray, neighbor_y: np.ndarray
    ) -> np.ndarray:
        """Disagreement + distance proxy over selected neighbors."""
        disagreement = neighbor_y.std(axis=1)
        mean_dist = _root(neighbor_pow, self.p).mean(axis=1)
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
