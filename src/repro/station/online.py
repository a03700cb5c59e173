"""Online REM building: the map improves while the fleet still flies.

The paper's pipeline is batch (fly everything, then train).  Since REM
generation is *autonomous*, a natural extension is updating the map
after every scan — letting the operator watch coverage and accuracy
converge live, or even abort a campaign early once the map is good
enough.  :class:`OnlineRemBuilder` consumes location-annotated scans
incrementally and refits its estimator on a configurable cadence.

Cadence refits route through :meth:`repro.core.predictors.base.Predictor.partial_fit`
when the estimator supports it and the MAC vocabulary is unchanged:
only the rows ingested since the previous refit are converted and
folded in, instead of rebuilding the whole growing dataset and fitting
a fresh model every round.  The incremental path is pinned numerically
identical (1e-9) to a from-scratch refit; vocabulary growth falls back
to a full refit automatically.

Each refit is scored on the held-out scans, and that score is
incremental too.  Holdout rows are converted to arrays once, when
they first meet a refit.  For k-NN estimators every holdout row keeps
its exact top-k neighbours, and an incremental refit merges in only
the training rows it added
(:meth:`repro.core.predictors.knn.KnnRegressor.merge_neighbors`); new
holdout rows run one full neighbour search.  Other estimators
re-predict the kept arrays with ``predict_points``.  A full refit, a
new model over a possibly grown vocabulary, rebuilds that state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dataset import REMDataset
from ..core.predictors import KnnRegressor, Predictor, rmse
from ..wifi.beacon import ScanRecord

__all__ = ["OnlineRemBuilder", "OnlineSnapshot"]


@dataclass
class OnlineSnapshot:
    """State of the online map after one update."""

    scans_ingested: int
    samples_ingested: int
    distinct_macs: int
    holdout_rmse_dbm: Optional[float]
    #: ``"full"`` (fresh model on all rows) or ``"incremental"``
    #: (delta folded in via ``partial_fit``).
    refit_mode: str = "full"
    #: Wall seconds the model update itself took (holdout scoring
    #: excluded) — the per-round cost the refit benchmarks plot.
    refit_wall_s: float = 0.0


@dataclass
class _HoldoutState:
    """Holdout rows converted for scoring, valid for one fitted model.

    ``rows`` counts the holdout rows converted so far (rows whose MAC
    the model does not know are dropped, as :meth:`OnlineRemBuilder._dataset`
    drops them).  For k-NN models ``neighbor_idx``/``neighbor_pow``
    keep each row's top-k over the first ``n_train`` training rows.
    """

    rows: int = 0
    positions: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    mac_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    rssi_dbm: np.ndarray = field(default_factory=lambda: np.empty(0))
    neighbor_idx: Optional[np.ndarray] = None
    neighbor_pow: Optional[np.ndarray] = None
    n_train: int = 0


class OnlineRemBuilder:
    """Incremental campaign consumer with periodic refits.

    Parameters
    ----------
    predictor_factory:
        Builds the estimator used at each refit (default: the paper's
        best k-NN configuration).
    refit_every_scans:
        How many scans between refits.
    holdout_fraction:
        Fraction of incoming *scans* diverted to a held-out set used to
        score each refit (0 disables scoring).
    incremental:
        Route cadence refits through ``partial_fit`` whenever the
        estimator supports it and the MAC vocabulary is unchanged
        (numerically identical to a full refit; disable to force the
        legacy from-scratch path, e.g. for benchmarking baselines).
    """

    def __init__(
        self,
        predictor_factory: Optional[Callable[[], Predictor]] = None,
        refit_every_scans: int = 6,
        holdout_fraction: float = 0.2,
        seed: int = 5,
        incremental: bool = True,
    ):
        if refit_every_scans < 1:
            raise ValueError("refit_every_scans must be >= 1")
        if not 0.0 <= holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")
        self._factory = predictor_factory or (
            lambda: KnnRegressor(
                n_neighbors=16, weights="distance", p=2.0, onehot_scale=3.0
            )
        )
        self.refit_every_scans = int(refit_every_scans)
        self.holdout_fraction = float(holdout_fraction)
        self.incremental = bool(incremental)
        self._rng = np.random.default_rng(seed)
        self._train_rows: List[Tuple[Tuple[float, float, float], str, int, int]] = []
        self._holdout_rows: List[Tuple[Tuple[float, float, float], str, int, int]] = []
        self.scans_ingested = 0
        self.model: Optional[Predictor] = None
        self._vocabulary: Tuple[str, ...] = ()
        self._vocabulary_set: FrozenSet[str] = frozenset()
        #: Train rows already folded into the current model; rows past
        #: this index are the pending delta for the next refit.
        self._fitted_rows = 0
        self.refits_full = 0
        self.refits_incremental = 0
        self.history: List[OnlineSnapshot] = []
        self._dataset_cache: Optional[Tuple[int, REMDataset]] = None
        self._holdout = _HoldoutState()

    # ------------------------------------------------------------------
    @property
    def samples_ingested(self) -> int:
        """Total samples seen (train + holdout)."""
        return len(self._train_rows) + len(self._holdout_rows)

    @property
    def ready(self) -> bool:
        """True once a model has been fit."""
        return self.model is not None

    @property
    def vocabulary(self) -> Tuple[str, ...]:
        """MACs the current model was trained over (refit order)."""
        return self._vocabulary

    # ------------------------------------------------------------------
    def add_scan(
        self, position: Sequence[float], records: Sequence[ScanRecord]
    ) -> Optional[OnlineSnapshot]:
        """Ingest one scan; returns a snapshot when a refit happened.

        Empty scans (no AP detected — a real occurrence in RF-dark
        corners) still count toward the refit cadence but consume no
        holdout draw, so sample-free scans cannot skew the split.
        """
        pos = tuple(float(v) for v in position)
        rows = [(pos, r.mac, int(r.rssi_dbm), int(r.channel)) for r in records]
        if rows:
            is_holdout = (
                self.holdout_fraction > 0.0
                and self._rng.random() < self.holdout_fraction
            )
            (self._holdout_rows if is_holdout else self._train_rows).extend(rows)
        self.scans_ingested += 1
        if self.scans_ingested % self.refit_every_scans == 0 and self._train_rows:
            return self._refit()
        return None

    def refit_now(self) -> Optional[OnlineSnapshot]:
        """Force a refit outside the cadence (end of a flight batch).

        Returns ``None`` when there is nothing to train on yet.  The
        active-sampling loop calls this after each batch lands so the
        planner always scores candidates against a current model.

        When every early scan happened to draw the holdout split (small
        ``refit_every_scans`` with an unlucky RNG), training would be
        empty while samples exist — and the planner's next
        :meth:`uncertainty` call would raise mid-campaign.  Those rows
        are folded into the training set for the first fit instead;
        holdout scoring resumes with later draws.
        """
        if not self._train_rows and self._holdout_rows:
            self._train_rows, self._holdout_rows = self._holdout_rows, []
            self._dataset_cache = None
        if not self._train_rows:
            return None
        return self._refit()

    # ------------------------------------------------------------------
    def dataset(self) -> REMDataset:
        """Every ingested sample (train + holdout) as one dataset.

        The shipped map should be fit on *all* collected data — the
        holdout only exists to score refits while flying.  Uses its own
        vocabulary over all rows, so holdout-only MACs are included.
        The assembled dataset is memoized on the sample count, so
        per-round consumers (benchmark scoring, exports) pay the
        row-to-array conversion once per ingest state.
        """
        cached = self._dataset_cache
        if cached is not None and cached[0] == self.samples_ingested:
            return cached[1]
        rows = self._train_rows + self._holdout_rows
        vocabulary = tuple(sorted({r[1] for r in rows}))
        index = {mac: i for i, mac in enumerate(vocabulary)}
        positions = np.array([r[0] for r in rows], dtype=float).reshape(-1, 3)
        dataset = REMDataset(
            positions=positions,
            mac_indices=np.array([index[r[1]] for r in rows], dtype=int),
            channels=np.array([max(r[3], 1) for r in rows], dtype=int),
            rssi_dbm=np.array([r[2] for r in rows], dtype=float),
            mac_vocabulary=vocabulary,
        )
        self._dataset_cache = (self.samples_ingested, dataset)
        return dataset

    def _dataset(self, rows) -> REMDataset:
        index = {mac: i for i, mac in enumerate(self._vocabulary)}
        usable = [r for r in rows if r[1] in index]
        positions = np.array([r[0] for r in usable], dtype=float).reshape(-1, 3)
        return REMDataset(
            positions=positions,
            mac_indices=np.array([index[r[1]] for r in usable], dtype=int),
            channels=np.array([max(r[3], 1) for r in usable], dtype=int),
            rssi_dbm=np.array([r[2] for r in usable], dtype=float),
            mac_vocabulary=self._vocabulary,
        )

    def _can_partial_fit(self) -> bool:
        """Whether the pending delta qualifies for the incremental path."""
        if not (
            self.incremental
            and self.model is not None
            and getattr(self.model, "supports_partial_fit", False)
        ):
            return False
        pending = self._train_rows[self._fitted_rows :]
        return all(r[1] in self._vocabulary_set for r in pending)

    def _refit(self) -> OnlineSnapshot:
        """Fold the pending rows into the model, then score the holdout.

        A delta refit keeps the holdout scoring state, so the score only
        merges in the new training rows; a full refit builds a new
        model over the current vocabulary and resets that state.
        """
        t0 = time.perf_counter()
        if self._can_partial_fit():
            pending = self._train_rows[self._fitted_rows :]
            if pending:
                assert self.model is not None
                self.model.partial_fit(self._dataset(pending))
            self.refits_incremental += 1
            mode = "incremental"
        else:
            self._vocabulary = tuple(sorted({r[1] for r in self._train_rows}))
            self._vocabulary_set = frozenset(self._vocabulary)
            train = self._dataset(self._train_rows)
            self.model = self._factory()
            self.model.fit(train)
            self._holdout = _HoldoutState()
            self.refits_full += 1
            mode = "full"
        self._fitted_rows = len(self._train_rows)
        refit_wall_s = time.perf_counter() - t0
        score = self._score()
        snapshot = OnlineSnapshot(
            scans_ingested=self.scans_ingested,
            samples_ingested=self.samples_ingested,
            distinct_macs=len(self._vocabulary),
            holdout_rmse_dbm=score,
            refit_mode=mode,
            refit_wall_s=refit_wall_s,
        )
        self.history.append(snapshot)
        return snapshot

    def _score(self) -> Optional[float]:
        """Holdout RMSE of the current model, ``None`` with no usable row.

        Converts only the holdout rows added since the last score.  For
        k-NN the kept neighbours absorb the training rows added since
        then, and only the new holdout rows search from scratch; the
        score equals the dense ``model.predict`` over the whole holdout
        set to 1e-9.  ``_refit`` resets the state on every full refit.
        That covers :meth:`refit_now` folding the holdout rows into
        training: it only happens before the first fit, which is full.
        """
        assert self.model is not None
        state = self._holdout
        new = self._dataset(self._holdout_rows[state.rows :])
        state.rows = len(self._holdout_rows)
        n_kept = len(state.rssi_dbm)
        state.positions = np.concatenate([state.positions, new.positions])
        state.mac_indices = np.concatenate([state.mac_indices, new.mac_indices])
        state.rssi_dbm = np.concatenate([state.rssi_dbm, new.rssi_dbm])
        if not len(state.rssi_dbm):
            return None
        model = self.model
        if not isinstance(model, KnnRegressor):
            predicted = model.predict_points(state.positions, state.mac_indices)
            return rmse(state.rssi_dbm, predicted)
        idx, pow_ = model.neighbors(new.positions, new.mac_indices)
        if n_kept:
            kept_idx, kept_pow = model.merge_neighbors(
                state.positions[:n_kept],
                state.mac_indices[:n_kept],
                state.neighbor_idx,
                state.neighbor_pow,
                state.n_train,
            )
            idx = np.concatenate([kept_idx, idx])
            pow_ = np.concatenate([kept_pow, pow_])
        state.neighbor_idx, state.neighbor_pow = idx, pow_
        state.n_train = self._fitted_rows
        return rmse(state.rssi_dbm, model.average_neighbors(idx, pow_))

    # ------------------------------------------------------------------
    def uncertainty(self, positions: Sequence[Sequence[float]]) -> np.ndarray:
        """Mean predictive std (dB) across observed MACs per position.

        This is the map-quality field the active planner maximizes over
        candidate waypoints: one :meth:`Predictor.uncertainty_grid` call
        over the full vocabulary, reduced across MACs.
        """
        if self.model is None:
            raise RuntimeError("no model fitted yet (too few scans)")
        points = np.asarray(positions, dtype=float).reshape(-1, 3)
        grid = self.model.uncertainty_grid(
            points, np.arange(len(self._vocabulary))
        )
        return grid.mean(axis=0)

    # ------------------------------------------------------------------
    def predict(self, position: Sequence[float], mac: str) -> float:
        """Current-map RSS prediction for ``mac`` at ``position``."""
        if self.model is None:
            raise RuntimeError("no model fitted yet (too few scans)")
        if mac not in self._vocabulary:
            raise KeyError(f"MAC {mac!r} not yet observed")
        index = self._vocabulary.index(mac)
        point = np.asarray(position, dtype=float).reshape(1, 3)
        return float(self.model.predict_points(point, np.array([index]))[0])
