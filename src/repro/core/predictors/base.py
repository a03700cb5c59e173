"""The predictor contract all RSS estimators implement.

Predictors consume :class:`repro.core.REMDataset` views directly (not
raw matrices) because several of the paper's estimators need the MAC
identity of each sample, not just its feature encoding — the
mean-per-MAC baseline and the per-MAC k-NN ensemble most obviously.

Beyond the row-wise :meth:`Predictor.predict`, the contract exposes two
batched entry points that the REM engine drives:

* :meth:`Predictor.predict_points` — predict at raw ``(N, 3)`` points
  with one MAC index per row, without building a dataset view;
* :meth:`Predictor.predict_mac_grid` — the REM cross product: one point
  set evaluated for *every* requested MAC, returned as ``(M, N)``.

The base class provides shims that route both through the legacy
:meth:`predict` path, so third-party predictors keep working unchanged;
the in-tree estimators override them with vectorized fast paths.

The contract also carries a batched **uncertainty** channel, which the
active-sampling planner drives:

* :meth:`Predictor.predict_points_std` — a per-query standard-deviation
  estimate (dB) mirroring :meth:`predict_points`;
* :meth:`Predictor.uncertainty_grid` — the ``(M, N)`` cross product
  mirroring :meth:`predict_mac_grid`.

Kriging answers with its native variance; the k-NN family answers with
neighbor-disagreement proxies; everything else inherits the base-class
fallback — a distance-to-nearest-same-MAC-sample proxy over the train
support recorded at fit time — so *any* fitted predictor can steer an
active campaign.

:meth:`Predictor.grid_layers` renders both ``(M, N)`` layers together
(the REM build and its uncertainty map).  The base default makes the
two grid calls; the k-NN and IDW estimators override it with one pass
that reduces each MAC's neighbor or distance work into both fields.

Finally, the contract carries an **incremental-fit** channel that the
online builder drives: estimators that set
:attr:`Predictor.supports_partial_fit` accept
:meth:`Predictor.partial_fit` deltas — new rows over the *same* MAC
vocabulary — and are required to end up numerically identical (1e-9)
to a from-scratch :meth:`Predictor.fit` on the concatenated data.  The
in-tree implementations achieve this by appending the delta rows to
their per-MAC/structure-of-arrays buffers (row order is preserved, so
the appended arrays equal the full-fit masked arrays bit for bit) and
recomputing derived statistics only for the MACs the delta touched.

The grid search (§III-B) scores a whole parameter family per fold
through :meth:`Predictor.cv_predict`; the default fits each
configuration on its own, and the k-NN overrides it to share one fit
and its distance work across the family.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..dataset import REMDataset

__all__ = ["Predictor", "NotFittedError"]

#: Query rows per block in the distance-proxy paths: bounds the
#: transient ``(rows, train, 3)`` delta tensor on lattice-sized queries.
_STD_CHUNK_ROWS = 2048


def nearest_distances(
    queries: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """Distance from each query to its nearest support point, chunked."""
    out = np.empty(len(queries))
    for start in range(0, len(queries), _STD_CHUNK_ROWS):
        sl = slice(start, min(start + _STD_CHUNK_ROWS, len(queries)))
        deltas = queries[sl, None, :] - support[None, :, :]
        out[sl] = np.sqrt(np.sum(deltas * deltas, axis=2)).min(axis=1)
    return out


class NotFittedError(RuntimeError):
    """Raised when predict() is called before fit()."""


class Predictor(abc.ABC):
    """Abstract RSS regressor over :class:`REMDataset` views.

    Subclasses declare their constructor parameters in ``PARAM_NAMES``;
    that single source of truth powers ``get_params`` / ``clone`` and
    the grid-search machinery.
    """

    #: Constructor parameter names (subclasses override).
    PARAM_NAMES: Tuple[str, ...] = ()

    #: Human-readable estimator name for reports.
    name: str = "predictor"

    #: Whether :meth:`partial_fit` is implemented.  Incremental-capable
    #: estimators set this ``True``; consumers (the online builder most
    #: notably) feature-test it before routing delta refits.
    supports_partial_fit: bool = False

    #: Length scale (m) of the base-class distance-uncertainty proxy:
    #: the proxy saturates toward the training target spread once a
    #: query is a few of these away from any same-MAC sample.
    UNCERTAINTY_RANGE_M: float = 1.0

    def __init__(self):
        self._fitted = False
        self._train_vocabulary: Optional[Tuple[str, ...]] = None
        self._train_support: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._train_rssi: Optional[np.ndarray] = None
        self._train_target_std: float = 1.0

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def fit(self, train: REMDataset) -> "Predictor":
        """Fit on the training view; returns self for chaining."""

    @abc.abstractmethod
    def predict(self, data: REMDataset) -> np.ndarray:
        """Predict RSS (dBm) for every row of ``data``."""

    def partial_fit(self, delta: REMDataset) -> "Predictor":
        """Incorporate new rows without refitting from scratch.

        ``delta`` must carry the *same* MAC vocabulary the estimator was
        fitted on; vocabulary growth requires a full :meth:`fit` (the
        online builder falls back automatically).  Implementations are
        pinned to from-scratch equivalence: after ``fit(a)`` followed by
        ``partial_fit(b)``, every prediction/uncertainty path must match
        ``fit(a + b)`` to 1e-9.  The base class has no incremental
        state, so it refuses; estimators that can honor the contract set
        :attr:`supports_partial_fit` and override this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support partial_fit "
            "(supports_partial_fit is False); refit from scratch instead"
        )

    def cv_predict(
        self,
        train: REMDataset,
        validation: REMDataset,
        param_sets: Sequence[Dict[str, Any]],
    ) -> np.ndarray:
        """Predictions on ``validation`` of every configuration, fit on ``train``.

        Returns a ``(len(param_sets), len(validation))`` array, one row
        per parameter set: the grid search's per-fold entry point.  The
        default fits and predicts each configuration independently;
        estimators whose configurations can share work override it.
        """
        return np.stack(
            [self.clone(**p).fit(train).predict(validation) for p in param_sets]
        )

    # ------------------------------------------------------------------
    # batched query API (the REM engine's entry points)
    # ------------------------------------------------------------------
    def predict_points(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Predict RSS at raw ``(N, 3)`` points, one MAC index per row.

        The default shim wraps the inputs in a :class:`REMDataset` over
        the fitted vocabulary and defers to :meth:`predict`, preserving
        the legacy per-dataset path bit for bit.  Subclasses override it
        with native vectorized implementations.
        """
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        return self.predict(self._as_dataset(points, mac_indices))

    def predict_mac_grid(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> np.ndarray:
        """Evaluate one point set for every MAC in ``mac_indices``.

        Returns an ``(M, N)`` array: row ``m`` is the field of
        ``mac_indices[m]`` over all ``N`` points.  The default stacks
        per-MAC :meth:`predict_points` calls; estimators that can share
        work across MACs (the one-hot k-NN most notably) override it.
        """
        self._require_fitted()
        points, macs = self._coerce_grid_query(points, mac_indices)
        n = len(points)
        out = np.empty((len(macs), n))
        for row, mac_index in enumerate(macs):
            out[row] = self.predict_points(
                points, np.full(n, int(mac_index), dtype=int)
            )
        return out

    # ------------------------------------------------------------------
    # batched uncertainty API (the active-sampling planner's entry points)
    # ------------------------------------------------------------------
    def predict_points_std(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """Standard-deviation estimate (dB) per ``(point, MAC)`` query.

        The base-class fallback is a *distance proxy* over the train
        support recorded by :meth:`_mark_fitted`: uncertainty rises with
        the distance to the nearest same-MAC training sample and
        saturates at the training target spread,

            std(q) = sigma_train * d / (d + UNCERTAINTY_RANGE_M),

        with MACs never observed in training pinned at ``sigma_train``.
        Estimators with a principled notion of uncertainty (kriging
        variance, k-NN neighbor disagreement) override this.
        """
        self._require_fitted()
        points, mac_indices = self._coerce_point_query(points, mac_indices)
        if self._train_support is None:
            return np.full(len(points), self._train_target_std)
        return self._distance_std_proxy(points, mac_indices)

    def uncertainty_grid(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> np.ndarray:
        """Uncertainty of one point set for every MAC in ``mac_indices``.

        Returns an ``(M, N)`` array mirroring :meth:`predict_mac_grid`;
        the default stacks per-MAC :meth:`predict_points_std` calls.
        """
        self._require_fitted()
        points, macs = self._coerce_grid_query(points, mac_indices)
        n = len(points)
        out = np.empty((len(macs), n))
        for row, mac_index in enumerate(macs):
            out[row] = self.predict_points_std(
                points, np.full(n, int(mac_index), dtype=int)
            )
        return out

    def grid_layers(
        self, points: np.ndarray, mac_indices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """RSS and std of one point set for every MAC: ``(rss, std)``.

        Both arrays are ``(M, N)`` and equal :meth:`predict_mac_grid`
        and :meth:`uncertainty_grid` bit for bit.  The default makes
        those two calls; estimators whose layers share their per-MAC
        work override it with one pass.
        """
        return (
            self.predict_mac_grid(points, mac_indices),
            self.uncertainty_grid(points, mac_indices),
        )

    def _distance_std_proxy(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> np.ndarray:
        """The saturating nearest-same-MAC-distance proxy."""
        assert self._train_support is not None
        train_points, train_macs = self._train_support
        sigma = self._train_target_std
        out = np.full(len(points), sigma)
        for mac_index in np.unique(mac_indices):
            columns = np.flatnonzero(train_macs == mac_index)
            if len(columns) == 0:
                continue
            rows = mac_indices == mac_index
            nearest = nearest_distances(points[rows], train_points[columns])
            out[rows] = sigma * nearest / (nearest + self.UNCERTAINTY_RANGE_M)
        return out

    def bind_vocabulary(self, mac_vocabulary: Sequence[str]) -> None:
        """Record the MAC vocabulary the batched shims should assume.

        A no-op when :meth:`fit` already recorded one (every in-tree
        estimator does); consumers like ``build_rem`` call this so that
        legacy subclasses whose ``fit`` predates the batched API still
        get correctly-shaped dataset views from the shims.
        """
        if self._train_vocabulary is None:
            self._train_vocabulary = tuple(mac_vocabulary)

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_grid_query(
        points: np.ndarray, mac_indices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Normalize a (point set, MAC list) grid-query pair."""
        points = np.ascontiguousarray(
            np.asarray(points, dtype=float).reshape(-1, 3)
        )
        return points, np.asarray(mac_indices, dtype=int).reshape(-1)

    def _coerce_point_query(
        self, points: np.ndarray, mac_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate/normalize a (points, mac_indices) query pair."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        mac_indices = np.asarray(mac_indices, dtype=int)
        if mac_indices.ndim == 0:
            mac_indices = np.full(len(points), int(mac_indices), dtype=int)
        if mac_indices.shape != (len(points),):
            raise ValueError(
                f"mac_indices shape {mac_indices.shape} does not match "
                f"{len(points)} query points"
            )
        return points, mac_indices

    def _as_dataset(self, points: np.ndarray, mac_indices: np.ndarray) -> REMDataset:
        """A throwaway dataset view over raw query points."""
        vocabulary = self._train_vocabulary
        if vocabulary is None or (
            len(mac_indices) and int(mac_indices.max()) >= len(vocabulary)
        ):
            # Unknown training vocabulary (or indices beyond it): make a
            # synthetic one wide enough — per-MAC estimators only key on
            # the integer index anyway.
            width = int(mac_indices.max()) + 1 if len(mac_indices) else 1
            vocabulary = tuple(f"mac-{i:02d}" for i in range(width))
        n = len(points)
        return REMDataset(
            positions=points,
            mac_indices=mac_indices,
            channels=np.ones(n, dtype=int),
            rssi_dbm=np.zeros(n),
            mac_vocabulary=vocabulary,
        )

    # ------------------------------------------------------------------
    def get_params(self) -> Dict[str, Any]:
        """Constructor parameters as a dict."""
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def set_params(self, **params: Any) -> "Predictor":
        """Update parameters in place (refit required afterwards)."""
        for key, value in params.items():
            if key not in self.PARAM_NAMES:
                raise ValueError(f"{type(self).__name__} has no parameter {key!r}")
            setattr(self, key, value)
        self._fitted = False
        return self

    def clone(self, **overrides: Any) -> "Predictor":
        """A fresh unfitted copy, optionally with parameter overrides."""
        params = self.get_params()
        params.update(overrides)
        return type(self)(**params)

    # ------------------------------------------------------------------
    def _mark_fitted(self, train: Optional[REMDataset] = None) -> None:
        self._fitted = True
        if train is not None:
            self._train_vocabulary = train.mac_vocabulary
            # Train support for the fallback uncertainty proxy; copies so
            # later mutation of the dataset cannot skew the proxy.
            self._train_support = (
                train.positions.astype(float).copy(),
                train.mac_indices.astype(int).copy(),
            )
            # Raw targets kept so _extend_fitted can recompute the spread
            # over the exact concatenated array (bit-equal to a full fit).
            self._train_rssi = train.rssi_dbm.astype(float).copy()
            spread = float(train.rssi_dbm.std()) if len(train) else 1.0
            self._train_target_std = max(spread, 1e-6)

    def _check_partial_fit(self, delta: REMDataset) -> bool:
        """Validate a :meth:`partial_fit` delta; ``True`` if it has rows.

        Raises when the estimator is unfitted or the delta's vocabulary
        differs from the fitted one (callers must route those through a
        full :meth:`fit`); an empty delta is a no-op (returns ``False``).
        """
        self._require_fitted()
        if (
            self._train_vocabulary is not None
            and tuple(delta.mac_vocabulary) != tuple(self._train_vocabulary)
        ):
            raise ValueError(
                "partial_fit delta vocabulary differs from the fitted "
                "vocabulary; refit from scratch on the combined dataset"
            )
        return len(delta) > 0

    def _extend_fitted(self, delta: REMDataset) -> None:
        """Append delta rows to the base-class bookkeeping arrays.

        Keeps the fallback uncertainty proxy and the recorded target
        spread identical to what a from-scratch fit on the concatenated
        dataset would produce.
        """
        if self._train_support is None or self._train_rssi is None:
            return
        points, macs = self._train_support
        self._train_support = (
            np.concatenate([points, delta.positions.astype(float)]),
            np.concatenate([macs, delta.mac_indices.astype(int)]),
        )
        self._train_rssi = np.concatenate(
            [self._train_rssi, delta.rssi_dbm.astype(float)]
        )
        self._train_target_std = max(float(self._train_rssi.std()), 1e-6)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"
