"""Unit tests for grid search and cross-validation."""

import numpy as np
import pytest

from repro.core.predictors import (
    IdwRegressor,
    KnnRegressor,
    ParamGrid,
    Predictor,
    cross_validate,
    grid_search,
    rmse,
)
from repro.core.predictors.gridsearch import _kfold_indices
from repro.core.predictors.knn import (
    _GRID_CHUNK_ROWS,
    _global_candidates,
    _powered_distances,
    _stable_topk,
)
from tests.core.test_predictors import dataset_from_arrays

#: p=1 and p=2, both weightings and both one-hot scales of the §III-B grid.
MIXED_GRID = ParamGrid(
    n_neighbors=[3, 8],
    weights=["uniform", "distance"],
    p=[1.0, 2.0],
    onehot_scale=[1.0, 3.0],
)


class LegacyCvKnn(KnnRegressor):
    """k-NN scored through the base-class CV loop and the legacy predict."""

    cv_predict = Predictor.cv_predict


@pytest.fixture()
def spatial_data(rng):
    positions = rng.uniform(0, 5, size=(200, 3))
    rssi = -60.0 - 5.0 * positions[:, 0] + rng.normal(0, 0.5, 200)
    return dataset_from_arrays(positions, np.zeros(200, dtype=int), rssi)


class TestParamGrid:
    def test_cartesian_product(self):
        grid = ParamGrid(a=[1, 2], b=["x", "y", "z"])
        combos = list(grid)
        assert len(combos) == len(grid) == 6
        assert {(c["a"], c["b"]) for c in combos} == {
            (a, b) for a in (1, 2) for b in ("x", "y", "z")
        }

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid()
        with pytest.raises(ValueError):
            ParamGrid(a=[])


class TestCrossValidate:
    def test_fold_count(self, spatial_data):
        result = cross_validate(
            KnnRegressor(), spatial_data, {"n_neighbors": 3}, k_folds=4
        )
        assert len(result.fold_rmses) == 4
        assert result.mean_rmse > 0
        assert result.std_rmse >= 0

    def test_needs_two_folds(self, spatial_data):
        with pytest.raises(ValueError):
            cross_validate(KnnRegressor(), spatial_data, {}, k_folds=1)

    def test_deterministic(self, spatial_data):
        a = cross_validate(KnnRegressor(), spatial_data, {"n_neighbors": 3}, seed=5)
        b = cross_validate(KnnRegressor(), spatial_data, {"n_neighbors": 3}, seed=5)
        assert a.fold_rmses == b.fold_rmses


class TestGridSearch:
    def test_finds_sensible_winner(self, spatial_data):
        grid = ParamGrid(n_neighbors=[1, 3, 8], weights=["uniform", "distance"])
        result = grid_search(KnnRegressor(), spatial_data, grid)
        assert len(result.results) == 6
        assert result.best_params in [r.params for r in result.results]
        # Winner must beat (or tie) every other combination on CV RMSE.
        ranking = result.ranking()
        assert ranking[0].params == result.best_params

    def test_best_model_refit_on_full_train(self, spatial_data):
        grid = ParamGrid(n_neighbors=[3])
        result = grid_search(KnnRegressor(), spatial_data, grid)
        predictions = result.best.predict(spatial_data)
        assert rmse(spatial_data.rssi_dbm, predictions) < 2.0


def multi_mac_data(rng, n=240, n_macs=6, duplicate_scans=False):
    """Several APs over one volume; optionally one position per scan."""
    positions = rng.uniform(0, 5, size=(n, 3))
    macs = rng.integers(0, n_macs, size=n)
    if duplicate_scans:
        # Every beacon of a scan shares the scan's position estimate, so
        # cross-MAC distances tie exactly (the _stable_topk tie path).
        positions = np.repeat(positions[: n // 4], 4, axis=0)
        macs = np.tile(np.arange(4), n // 4) % n_macs
    rssi = -50.0 - 4.0 * positions[:, 0] - 2.0 * macs + rng.normal(0, 1.0, n)
    return dataset_from_arrays(positions, macs, rssi)


def per_config_points(train, validation, param_sets):
    """The reference: fit and query every configuration on its own."""
    return np.stack(
        [
            KnnRegressor(**params)
            .fit(train)
            .predict_points(validation.positions, validation.mac_indices)
            for params in param_sets
        ]
    )


def per_config_legacy(train, validation, param_sets):
    """The same through the legacy dense ``predict`` path."""
    return np.stack(
        [
            KnnRegressor(**params).fit(train).predict(validation)
            for params in param_sets
        ]
    )


def sized_mac_data(rng, sizes, n_validation):
    """Training MACs of the given sizes, validation rows over all of them."""
    macs = np.repeat(np.arange(len(sizes)), sizes)
    positions = rng.uniform(0, 5, size=(len(macs), 3))
    rssi = -50.0 - 4.0 * positions[:, 0] - 2.0 * macs + rng.normal(0, 1.0, len(macs))
    train = dataset_from_arrays(positions, macs, rssi)
    query_macs = rng.integers(0, len(sizes), size=n_validation)
    query_positions = rng.uniform(0, 5, size=(n_validation, 3))
    validation = dataset_from_arrays(
        query_positions, query_macs, np.zeros(n_validation), train.mac_vocabulary
    )
    return train, validation


def search_both_ways(train, validation, params):
    """One row-batched search over mixed MACs, and one search per MAC."""
    model = KnnRegressor(**params).fit(train)
    points, macs = validation.positions, validation.mac_indices
    base = _powered_distances(points, model._train_positions, model.p)
    ((global_idx, global_pow),) = _global_candidates(base, [2 * model.n_neighbors])
    batched = model._neighbors(base, global_idx, global_pow, macs)
    per_mac = tuple(np.empty_like(array) for array in batched)
    for mac in np.unique(macs):
        rows = macs == mac
        found = model._neighbors(
            base[rows], global_idx[rows], global_pow[rows], macs[rows]
        )
        per_mac[0][rows], per_mac[1][rows] = found
    return batched, per_mac


def covered_rows(train, validation, k):
    """Rows whose global top-2k holds k other-MAC candidates (p = 2)."""
    base = _powered_distances(validation.positions, train.positions, 2.0)
    ((idx, _),) = _global_candidates(base, [2 * k])
    other = train.mac_indices[idx] != validation.mac_indices[:, None]
    return other.sum(axis=1) >= k


def split(data, n_train):
    """The first ``n_train`` rows train, the rest validate."""
    return data.subset(np.arange(n_train)), data.subset(np.arange(n_train, len(data)))


class TestSharedCvPredict:
    """``KnnRegressor.cv_predict`` ≡ one fit + predict per configuration."""

    def assert_equivalent(self, train, validation, param_sets):
        shared = KnnRegressor().cv_predict(train, validation, param_sets)
        assert shared.shape == (len(param_sets), len(validation))
        reference = per_config_points(train, validation, param_sets)
        assert np.array_equal(shared, reference)
        np.testing.assert_allclose(
            shared, per_config_legacy(train, validation, param_sets), atol=1e-9
        )

    def test_mixed_grid_bit_identical(self, rng):
        train, validation = split(multi_mac_data(rng), 180)
        self.assert_equivalent(train, validation, list(MIXED_GRID))

    def test_neighbors_beyond_fold_size(self, rng):
        train, validation = split(multi_mac_data(rng, n=16, n_macs=3), 10)
        grid = ParamGrid(n_neighbors=[3, 10, 16], weights=["uniform", "distance"])
        self.assert_equivalent(train, validation, list(grid))

    def test_zero_onehot_scale_dense_fallback(self, rng):
        train, validation = split(multi_mac_data(rng), 180)
        grid = ParamGrid(n_neighbors=[3, 8], p=[1.0, 2.0], onehot_scale=[0.0, 3.0])
        self.assert_equivalent(train, validation, list(grid))

    def test_validation_mac_absent_from_train(self, rng):
        data = multi_mac_data(rng, n_macs=5)
        in_train = data.mac_indices != 4
        train = data.subset(np.flatnonzero(in_train)[:150])
        validation = data.subset(np.arange(len(data))[150:])
        assert 4 in validation.mac_indices and 4 not in train.mac_indices
        self.assert_equivalent(train, validation, list(MIXED_GRID))

    def test_duplicate_positions_across_macs(self, rng):
        train, validation = split(multi_mac_data(rng, duplicate_scans=True), 160)
        self.assert_equivalent(train, validation, list(MIXED_GRID))

    def test_mac_sizes_around_k_in_one_chunk(self, rng):
        # With k = 3 and 8, one chunk mixes rows whose MAC has fewer
        # columns than k (they take all of them), exactly k, and more.
        train, validation = sized_mac_data(rng, [1, 2, 3, 5, 8, 9, 40, 90], 400)
        self.assert_equivalent(train, validation, list(MIXED_GRID))
        for params in ({"n_neighbors": 3}, {"n_neighbors": 8, "p": 1.0}):
            batched, per_mac = search_both_ways(train, validation, params)
            assert np.array_equal(batched[0], per_mac[0])
            assert np.array_equal(batched[1], per_mac[1])

    def test_uncovered_rows_mixed_with_covered(self, rng):
        # MAC 0 crowds one corner: its own queries there find only
        # same-MAC global candidates and take the dense fallback, while
        # every other query in the chunk is covered by the candidates.
        train, validation = sized_mac_data(rng, [60, 50, 50, 50], 300)
        positions = train.positions.copy()
        positions[train.mac_indices == 0] = rng.uniform(0.0, 0.2, size=(60, 3))
        train = dataset_from_arrays(
            positions, train.mac_indices, train.rssi_dbm, train.mac_vocabulary
        )
        query_positions = validation.positions.copy()
        query_positions[:40] = rng.uniform(0.0, 0.2, size=(40, 3))
        query_macs = validation.mac_indices.copy()
        query_macs[:40] = 0
        validation = dataset_from_arrays(
            query_positions, query_macs, validation.rssi_dbm, train.mac_vocabulary
        )
        for k in (3, 8):
            covered = covered_rows(train, validation, k)
            assert not covered[:40].any() and covered[40:].any()
        self.assert_equivalent(train, validation, list(MIXED_GRID))
        batched, per_mac = search_both_ways(train, validation, {"n_neighbors": 8})
        assert np.array_equal(batched[0], per_mac[0])
        assert np.array_equal(batched[1], per_mac[1])

    def test_validation_longer_than_a_chunk(self, rng):
        data = multi_mac_data(rng, n=240 + _GRID_CHUNK_ROWS + 300)
        train, validation = split(data, 240)
        assert len(validation) > _GRID_CHUNK_ROWS
        grid = ParamGrid(n_neighbors=[3, 8], p=[1.0, 2.0], onehot_scale=[3.0])
        self.assert_equivalent(train, validation, list(grid))

    def test_near_ties_across_the_global_widths(self, rng):
        # Scan positions repeated with ±1e-10-relative jitter: the tie
        # bands of the top-6, top-16 and top-32 overlap rank boundaries.
        data = multi_mac_data(rng, n=320, duplicate_scans=True)
        jitter = rng.choice([-1e-10, 0.0, 1e-10], size=data.positions.shape)
        data = dataset_from_arrays(
            data.positions * (1.0 + jitter),
            data.mac_indices,
            data.rssi_dbm,
            data.mac_vocabulary,
        )
        train, validation = split(data, 240)
        grid = ParamGrid(n_neighbors=[3, 8, 16], p=[1.0, 2.0], onehot_scale=[1.0, 3.0])
        self.assert_equivalent(train, validation, list(grid))

    def test_invalid_params_still_raise(self, rng):
        train, validation = split(multi_mac_data(rng), 180)
        with pytest.raises(ValueError, match="n_neighbors"):
            KnnRegressor().cv_predict(train, validation, [{"n_neighbors": 0}])

    def test_base_default_is_the_clone_fit_predict_loop(self, rng):
        train, validation = split(multi_mac_data(rng), 180)
        param_sets = [{"power": 1.0}, {"power": 2.0, "epsilon_m": 0.1}]
        expected = np.stack(
            [
                IdwRegressor().clone(**params).fit(train).predict(validation)
                for params in param_sets
            ]
        )
        shared = IdwRegressor().cv_predict(train, validation, param_sets)
        assert np.array_equal(shared, expected)


class TestGlobalCandidates:
    """One band pass per row ≡ a direct ``_stable_topk`` per width."""

    @pytest.mark.parametrize(
        "widths", [[6, 16, 32], [1, 2, 3], [32], [150, 200, 400], [199]]
    )
    def test_each_width_equals_a_direct_search(self, rng, widths):
        # A few distance levels, each split into near-ties inside and
        # just outside the 1e-9 tie tolerance, so every width's
        # boundary falls in a tie band that spans ranks.
        levels = rng.integers(1, 6, size=(64, 200)).astype(float)
        jitter = rng.choice([-2e-9, -5e-10, 0.0, 5e-10, 2e-9], size=levels.shape)
        base = levels * (1.0 + jitter)
        base[:8] = 1.0  # whole rows of exact ties
        for width, (idx, powered) in zip(widths, _global_candidates(base, widths)):
            direct_idx, direct_pow = _stable_topk(base, min(width, base.shape[1]))
            assert np.array_equal(idx, direct_idx)
            assert np.array_equal(powered, direct_pow)


class TestSharedGridSearch:
    """The shared CV loop ≡ per-configuration CV through the legacy predict."""

    @pytest.mark.parametrize("duplicate_scans", [False, True])
    def test_matches_legacy_cross_validation(self, rng, duplicate_scans):
        data = multi_mac_data(rng, duplicate_scans=duplicate_scans)
        search = grid_search(KnnRegressor(), data, MIXED_GRID)
        legacy = [cross_validate(LegacyCvKnn(), data, p) for p in MIXED_GRID]
        for shared, reference in zip(search.results, legacy):
            assert shared.params == reference.params
            np.testing.assert_allclose(
                shared.fold_rmses, reference.fold_rmses, rtol=0, atol=1e-9
            )
        best = min(legacy, key=lambda r: r.mean_rmse)
        assert search.best_params == best.params

    def test_cross_validate_is_the_one_config_grid(self, rng):
        data = multi_mac_data(rng)
        params = {"n_neighbors": 8, "p": 1.0, "onehot_scale": 3.0}
        single = cross_validate(KnnRegressor(), data, params)
        grid = ParamGrid(**{name: [value] for name, value in params.items()})
        search = grid_search(KnnRegressor(), data, grid)
        assert single.fold_rmses == search.results[0].fold_rmses

    def test_non_knn_keeps_the_per_config_loop(self, rng):
        data = multi_mac_data(rng)
        grid = ParamGrid(power=[1.0, 2.0, 3.0])
        search = grid_search(IdwRegressor(), data, grid, k_folds=3, seed=5)
        for result in search.results:
            expected = []
            for train_idx, val_idx in _kfold_indices(len(data), 3, 5):
                model = IdwRegressor().clone(**result.params)
                model.fit(data.subset(train_idx))
                predictions = model.predict(data.subset(val_idx))
                expected.append(rmse(data.rssi_dbm[val_idx], predictions))
            assert result.fold_rmses == expected
