"""Reference implementations that differential tests hold product paths to.

Each oracle is an earlier, simpler form of a product path, kept verbatim
so that a rewrite for speed can be checked byte for byte against it.

* :func:`reference_squared_distances` — the k-NN quadratic expansion
  with a fresh array for every intermediate.
* :func:`reference_stable_topk` — the k-NN top-k that runs the
  cumulative tie pass on every row.
* :class:`ReferenceKnn` — the k-NN neighbor search that merges every
  row's same-MAC and global candidates through one top-k, and that
  gathers a lattice pass's same-MAC columns through the padded table of
  the mixed-MAC query path.
* :func:`reference_update_tdoa` — the scalar TDoA filter update, one
  anchor pair at a time.
* :func:`reference_measure_all` — one TDoA burst as
  :class:`TdoaMeasurement` records, under the block draw contract.
* :class:`ReferenceTdoaFilter` — the TDoA tick (predict, measure,
  update) with every step allocating, and the windowed catch-up of a
  read written as a plain loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.predictors.knn import (
    _GRID_CHUNK_ROWS,
    _TIE_RTOL,
    KnnRegressor,
    _group_by,
)
from repro.uwb.anchors import Anchor


def reference_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, coincidence residuals
    snapped to zero."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    scale = aa + bb
    sq = np.maximum(scale - 2.0 * (a @ b.T), 0.0)
    sq[sq <= 1e-12 * scale] = 0.0
    return sq


def _powered_distances(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Pairwise Minkowski-p distances raised to p."""
    if p == 2.0:
        return reference_squared_distances(a, b)
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


def reference_stable_topk(powered: np.ndarray, k: int):
    """Row-wise indices/values of the ``k`` smallest entries, lowest
    column index first among the ties at the k-th value."""
    n, m = powered.shape
    if k >= m:
        idx = np.broadcast_to(np.arange(m), powered.shape)
        return idx, powered
    thresh = np.partition(powered, k - 1, axis=1)[:, k - 1 : k]
    eps = _TIE_RTOL * thresh + 1e-15
    less = powered < thresh - eps
    need = k - less.sum(axis=1, keepdims=True)
    tied = np.abs(powered - thresh) <= eps
    mask = less | (tied & (np.cumsum(tied, axis=1) <= need))
    idx = np.nonzero(mask)[1].reshape(n, k)
    return idx, np.take_along_axis(powered, idx, axis=1)


def reference_global_candidates(base: np.ndarray, widths: Sequence[int]):
    """Every width's top-w search over one tie band per row."""
    n, m = base.shape
    widths = [min(w, m) for w in widths]
    widest = max(widths)
    if widest >= m:
        band_idx = np.broadcast_to(np.arange(m), base.shape)
        band_pow = base
    else:
        thresh = np.partition(base, widest - 1, axis=1)[:, widest - 1 : widest]
        inside = base <= thresh + 2.0 * (_TIE_RTOL * thresh + 1e-15)
        rows, cols = np.nonzero(inside)
        counts = inside.sum(axis=1)
        slots = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        band_idx = np.zeros((n, int(counts.max())), dtype=int)
        band_pow = np.full(band_idx.shape, np.inf)
        band_idx[rows, slots] = cols
        band_pow[rows, slots] = base[rows, cols]
    found = []
    for width in widths:
        pick, width_pow = reference_stable_topk(band_pow, width)
        found.append((np.take_along_axis(band_idx, pick, axis=1), width_pow))
    return found


class ReferenceKnn(KnnRegressor):
    """:class:`KnnRegressor` with the always-merging neighbor search.

    Overrides every method that searches neighbors; fitting, the
    reductions and the public entry points are the product's, so each
    public method of this class is the oracle of the same method on
    :class:`KnnRegressor`.
    """

    def _neighbor_pass(
        self,
        models: Sequence[KnnRegressor],
        points: np.ndarray,
        mac_indices: np.ndarray,
        reduce: Callable[[KnnRegressor, np.ndarray, np.ndarray], np.ndarray],
    ) -> np.ndarray:
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
                found = reference_global_candidates(base, widths)
                for same_k, candidates in zip(by_k, found):
                    for same_scale in _group_by(same_k, "onehot_scale"):
                        neighbor_idx, neighbor_pow = same_scale[0][1]._neighbors(
                            base, *candidates, chunk_macs
                        )
                        neighbor_y = self._train_targets[neighbor_idx]
                        for row, model in same_scale:
                            chunk_out[row] = reduce(model, neighbor_pow, neighbor_y)
        return out

    def _grid_pass(self, points, mac_indices, reducers) -> Tuple[np.ndarray, ...]:
        self._require_fitted()
        points, macs = self._coerce_grid_query(points, mac_indices)
        outs = tuple(np.empty((len(macs), len(points))) for _ in reducers)
        for start in range(0, len(points), _GRID_CHUNK_ROWS):
            sl = slice(start, min(start + _GRID_CHUNK_ROWS, len(points)))
            base = _powered_distances(points[sl], self._train_positions, self.p)
            (candidates,) = reference_global_candidates(base, [2 * self.n_neighbors])
            for row, mac_index in enumerate(macs):
                neighbor_idx, neighbor_pow = self._neighbors(
                    base, *candidates, np.full(len(base), mac_index)
                )
                neighbor_y = self._train_targets[neighbor_idx]
                for out, reduce in zip(outs, reducers):
                    out[row, sl] = reduce(self, neighbor_pow, neighbor_y)
        return outs

    def _neighbors(self, base, global_idx, global_pow, row_macs, summary=None):
        n_train = len(self._train_targets)
        penalty = 2.0 * self.onehot_scale**self.p
        if penalty == 0.0 or global_pow.shape[1] >= n_train:
            return self._dense_neighbors(base, row_macs, penalty)
        k = min(self.n_neighbors, n_train)
        same_idx, same_pow, n_same = self._same_mac_candidates(base, row_macs, k)

        other_mask = self._train_macs[global_idx] != row_macs[:, None]
        covered = other_mask.sum(axis=1) >= np.minimum(k, n_train - n_same)
        other_pow = np.where(other_mask, global_pow + penalty, np.inf)

        cand_pow = np.concatenate([same_pow, other_pow], axis=1)
        cand_idx = np.concatenate([same_idx, global_idx], axis=1)
        pick, neighbor_pow = reference_stable_topk(cand_pow, k)
        neighbor_idx = np.take_along_axis(cand_idx, pick, axis=1)
        if not covered.all():
            rows = ~covered
            fallback = self._dense_neighbors(base[rows], row_macs[rows], penalty)
            neighbor_idx[rows], neighbor_pow[rows] = fallback
        return neighbor_idx, neighbor_pow

    def neighbors(self, points, mac_indices):
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        k = min(self.n_neighbors, len(self._train_targets))
        neighbor_idx = np.empty((len(points), k), dtype=int)
        neighbor_pow = np.empty((len(points), k))
        for start in range(0, len(points), _GRID_CHUNK_ROWS):
            sl = slice(start, start + _GRID_CHUNK_ROWS)
            base = _powered_distances(points[sl], self._train_positions, self.p)
            (candidates,) = reference_global_candidates(base, [2 * self.n_neighbors])
            idx, pow_ = self._neighbors(base, *candidates, mac_indices[sl])
            order = np.argsort(idx, axis=1)
            neighbor_idx[sl] = np.take_along_axis(idx, order, axis=1)
            neighbor_pow[sl] = np.take_along_axis(pow_, order, axis=1)
        return neighbor_idx, neighbor_pow

    def merge_neighbors(self, points, mac_indices, neighbor_idx, neighbor_pow, first_new):
        self._require_fitted()
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
        pick, merged_pow = reference_stable_topk(
            cand_pow, min(self.n_neighbors, n_train)
        )
        return np.take_along_axis(cand_idx, pick, axis=1), merged_pow

    def _same_mac_candidates(self, base, row_macs, k):
        macs, inverse = np.unique(row_macs, return_inverse=True)
        columns = [self._mac_columns.get(int(mac), ()) for mac in macs]
        counts = np.array([len(c) for c in columns], dtype=int)
        table = np.zeros((len(macs), int(counts.max())), dtype=int)
        for row, mac_columns in enumerate(columns):
            table[row, : len(mac_columns)] = mac_columns
        n_same = counts[inverse]
        if len(macs) == 1:
            cols = np.broadcast_to(table[0], (len(base), table.shape[1]))
            vals = base[:, table[0]]
        else:
            cols = table[inverse]
            vals = np.take_along_axis(base, cols, axis=1)
            vals[np.arange(table.shape[1]) >= n_same[:, None]] = np.inf
        big = n_same > k
        if not big.any():
            return cols[:, :k], vals[:, :k], n_same
        if big.all():
            pick, same_pow = reference_stable_topk(vals, k)
            return np.take_along_axis(cols, pick, axis=1), same_pow, n_same
        same_idx, same_pow = cols[:, :k], vals[:, :k]
        pick, same_pow[big] = reference_stable_topk(vals[big], k)
        same_idx[big] = np.take_along_axis(cols[big], pick, axis=1)
        return same_idx, same_pow, n_same

    def _dense_neighbors(self, base, row_macs, penalty):
        powered = base
        if penalty != 0.0:
            powered = penalty * (self._train_macs != row_macs[:, None])
            powered += base
        return reference_stable_topk(
            powered, min(self.n_neighbors, len(self._train_targets))
        )


# ----------------------------------------------------------------------
# UWB
# ----------------------------------------------------------------------
def reference_update_tdoa(
    ekf, anchor_a, anchor_b, measured_difference_m: float, sigma_m: float
) -> bool:
    """Scalar TDoA update of ``ekf``: ``z = |p - b| - |p - a| + noise``."""
    x = ekf.x
    dax, day, daz = x[0] - anchor_a[0], x[1] - anchor_a[1], x[2] - anchor_a[2]
    dbx, dby, dbz = x[0] - anchor_b[0], x[1] - anchor_b[1], x[2] - anchor_b[2]
    norm_a = math.sqrt(dax * dax + day * day + daz * daz)
    norm_b = math.sqrt(dbx * dbx + dby * dby + dbz * dbz)
    if norm_a < 1e-6 or norm_b < 1e-6:
        return False
    predicted = norm_b - norm_a
    h = np.array(
        [
            dbx / norm_b - dax / norm_a,
            dby / norm_b - day / norm_a,
            dbz / norm_b - daz / norm_a,
        ]
    )
    return ekf._scalar_update(measured_difference_m - predicted, h, sigma_m**2)


@dataclass(frozen=True)
class TdoaMeasurement:
    """One distance-difference between an anchor pair."""

    anchor_a: Anchor
    anchor_b: Anchor
    difference_m: float


def reference_block_noise(config, n: int, count: int, rng):
    """A block's draws: NLoS biases ``(n, 2 count)``, scaled noise ``(n, count)``."""
    biases = np.zeros((n, 2 * count))
    if config.nlos_probability > 0:
        hits = rng.random((n, 2 * count)) < config.nlos_probability
        uniform = rng.uniform(0.0, config.nlos_bias_max_m, size=(n, 2 * count))
        biases = np.where(hits, uniform, 0.0)
    noise = rng.standard_normal((n, count)) * config.tdoa_sigma_m
    return biases, noise


def reference_burst(positions, config, p, biases, noise):
    """One burst's stacked pairs, differences and visible anchor indices."""
    count = len(positions)
    delta = positions - p
    distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    seen = np.flatnonzero(distances <= config.max_range_m)
    m = len(seen)
    if m < 2:
        return np.zeros((0, 3)), np.zeros(0), seen
    visible, da = positions[seen], distances[seen]
    db = np.roll(da, -1)
    diffs = db - da + noise[:m] + biases[:m] - biases[count : count + m]
    return np.concatenate([visible, np.roll(visible, -1, axis=0)]), diffs, seen


def reference_measure_all(tdoa, position, rng) -> List[TdoaMeasurement]:
    """One TDoA burst as records: each visible anchor paired with the next."""
    positions = np.array(tdoa.layout.positions)
    biases, noise = reference_block_noise(tdoa.config, 1, len(positions), rng)
    _, diffs, seen = reference_burst(
        positions, tdoa.config, np.asarray(position, dtype=float), biases[0], noise[0]
    )
    anchors = [tdoa.layout.anchors[i] for i in seen]
    return [
        TdoaMeasurement(anchor_a=a, anchor_b=b, difference_m=float(diff))
        for a, b, diff in zip(anchors, anchors[1:] + anchors[:1], diffs)
    ]


class ReferenceTdoaFilter:
    """The TDoA filter of a :class:`~repro.uwb.PositionEstimator`, plainly.

    Every step allocates, the burst solve is ``np.linalg.solve``, and
    :meth:`read` picks a read's window with a Python loop; the product
    path must match it bit for bit.
    """

    def __init__(self, layout, ranging, ekf_config, initial_position):
        self.positions = np.array(layout.positions)
        self.ranging = ranging
        self.ekf_config = ekf_config
        self.x = np.zeros(6)
        self.x[:3] = initial_position
        self.P = self.prior()
        self.accepted = self.rejected = self.resets = 0
        self.bursts = []
        self.pending = []

    def prior(self):
        p0 = self.ekf_config.initial_position_std**2
        v0 = self.ekf_config.initial_velocity_std**2
        return np.diag([p0, p0, p0, v0, v0, v0])

    def record(self, dt, position):
        self.pending.append((dt, np.array(position, dtype=float)))

    def read(self, rng, window_s):
        """Run the pending ticks of the last ``window_s`` seconds."""
        kept, span = 0, 0.0
        for dt, _ in reversed(self.pending):
            span += dt
            if kept and span > window_s + 1e-9:
                break
            kept += 1
        ticks = self.pending[len(self.pending) - kept :]
        if kept < len(self.pending):
            self.x[3:] = 0.0
            self.P = self.prior()
            self.resets += 1
        self.pending = []
        if not ticks:
            return self.x[:3]
        biases, noise = reference_block_noise(
            self.ranging, len(ticks), len(self.positions), rng
        )
        for (dt, position), row_biases, row_noise in zip(ticks, biases, noise):
            self.predict(dt)
            stacked, diffs, _ = reference_burst(
                self.positions, self.ranging, position, row_biases, row_noise
            )
            self.bursts.append(len(diffs))
            self.update(stacked, diffs, self.ranging.tdoa_sigma_m)
        return self.x[:3]

    def predict(self, dt):
        F = np.eye(6)
        F[0, 3] = F[1, 4] = F[2, 5] = dt
        q = self.ekf_config.accel_noise_std**2
        Q = np.zeros((6, 6))
        for i in range(3):
            Q[i, i] = q * dt**4 / 4.0
            Q[i, i + 3] = Q[i + 3, i] = q * dt**3 / 2.0
            Q[i + 3, i + 3] = q * (dt * dt)
        self.x = F @ self.x
        self.P = F @ self.P @ F.T + Q
        self.P = (self.P + self.P.T) / 2.0

    def update(self, stacked, z, sigma_m):
        m = len(z)
        if not m:
            return
        delta = self.x[:3] - stacked
        norms = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        if norms.min() < 1e-6:
            usable = (norms[:m] >= 1e-6) & (norms[m:] >= 1e-6)
            keep = np.concatenate([usable, usable])
            delta, norms = delta[keep], norms[keep]
            z = z[usable]
            m = len(z)
            if not m:
                return
        unit = delta / norms[:, None]
        h = unit[m:] - unit[:m]
        innovation = z - (norms[m:] - norms[:m])
        pht = self.P[:, :3] @ h.T
        S = h @ pht[:3]
        S.flat[:: m + 1] += sigma_m * sigma_m
        gate = self.ekf_config.gate_sigma**2
        passed = innovation * innovation <= gate * S.flat[:: m + 1]
        accepted = int(passed.sum())
        if accepted < m:
            self.rejected += m - accepted
            if not accepted:
                return
            pht = pht[:, passed]
            innovation = innovation[passed]
            S = S[np.ix_(passed, passed)]
        rhs = np.empty((accepted, 7))
        rhs[:, 0] = innovation
        rhs[:, 1:] = pht.T
        solved = np.linalg.solve(S, rhs)
        self.x += pht @ solved[:, 0]
        self.P -= pht @ solved[:, 1:]
        self.P = (self.P + self.P.T) / 2.0
        self.accepted += accepted
