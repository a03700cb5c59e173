"""Hyper-parameter grid search with k-fold cross-validation.

The paper tunes every estimator "using a grid search considering an
exhaustive set of hyperparameters" with a validation set carved out of
the training data (§III-B).  This module provides the generic
machinery: parameter grids, seeded k-fold CV scored by RMSE, and
refit-on-full-train of the winner.  Each fold is split once and scored
for the whole grid by one :meth:`Predictor.cv_predict` call, so
estimators can share work across configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..dataset import REMDataset
from .base import Predictor
from .metrics import rmse

__all__ = ["ParamGrid", "CvResult", "GridSearchResult", "cross_validate", "grid_search"]


class ParamGrid:
    """Cartesian product over named parameter value lists."""

    def __init__(self, **param_values: Sequence[Any]):
        if not param_values:
            raise ValueError("empty parameter grid")
        self._names = tuple(param_values.keys())
        self._values = tuple(tuple(v) for v in param_values.values())
        for name, values in zip(self._names, self._values):
            if not values:
                raise ValueError(f"no values for parameter {name!r}")

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for combo in itertools.product(*self._values):
            yield dict(zip(self._names, combo))

    def __len__(self) -> int:
        size = 1
        for values in self._values:
            size *= len(values)
        return size


@dataclass
class CvResult:
    """Cross-validation outcome of one parameter combination."""

    params: Dict[str, Any]
    fold_rmses: List[float]

    @property
    def mean_rmse(self) -> float:
        """Mean RMSE across folds."""
        return float(np.mean(self.fold_rmses))

    @property
    def std_rmse(self) -> float:
        """Standard deviation of fold RMSEs."""
        return float(np.std(self.fold_rmses))


@dataclass
class GridSearchResult:
    """The full search outcome, ranked best-first."""

    best: Predictor
    best_params: Dict[str, Any]
    results: List[CvResult] = field(default_factory=list)

    def ranking(self) -> List[CvResult]:
        """All combinations, best (lowest mean RMSE) first."""
        return sorted(self.results, key=lambda r: r.mean_rmse)


def _kfold_indices(
    n: int, k: int, seed: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    for i in range(k):
        validation = folds[i]
        training = np.concatenate([folds[j] for j in range(k) if j != i])
        yield training, validation


def _cv_scores(
    predictor: Predictor,
    train: REMDataset,
    param_sets: List[Dict[str, Any]],
    k_folds: int,
    seed: int,
) -> List[CvResult]:
    """k-fold CV of every parameter set: one ``cv_predict`` call per fold."""
    if k_folds < 2:
        raise ValueError(f"need at least 2 folds, got {k_folds}")
    fold_rmses: List[List[float]] = [[] for _ in param_sets]
    for train_idx, val_idx in _kfold_indices(len(train), k_folds, seed):
        predictions = predictor.cv_predict(
            train.subset(train_idx), train.subset(val_idx), param_sets
        )
        targets = train.rssi_dbm[val_idx]
        for scores, row in zip(fold_rmses, predictions):
            scores.append(rmse(targets, row))
    return [
        CvResult(params=dict(params), fold_rmses=scores)
        for params, scores in zip(param_sets, fold_rmses)
    ]


def cross_validate(
    predictor: Predictor,
    train: REMDataset,
    params: Dict[str, Any],
    k_folds: int = 4,
    seed: int = 13,
) -> CvResult:
    """k-fold CV of one parameter combination, scored by RMSE."""
    return _cv_scores(predictor, train, [params], k_folds, seed)[0]


def grid_search(
    predictor: Predictor,
    train: REMDataset,
    grid: ParamGrid,
    k_folds: int = 4,
    seed: int = 13,
) -> GridSearchResult:
    """Exhaustive CV over ``grid``; the winner is refit on all of train."""
    results = _cv_scores(predictor, train, list(grid), k_folds, seed)
    best_result = min(results, key=lambda r: r.mean_rmse)
    best = predictor.clone(**best_result.params)
    best.fit(train)
    return GridSearchResult(best=best, best_params=best_result.params, results=results)
