"""Unit tests for baseline / k-NN predictor families."""

import numpy as np
import pytest

from repro.core.dataset import REMDataset
from repro.core.predictors import (
    KnnRegressor,
    MeanPerMacBaseline,
    NotFittedError,
    PerMacKnnRegressor,
)
from repro.core.predictors.knn import _minkowski_distances, _powered_distances


def dataset_from_arrays(positions, macs, rssi, vocabulary=None):
    positions = np.asarray(positions, dtype=float)
    macs = np.asarray(macs, dtype=int)
    rssi = np.asarray(rssi, dtype=float)
    if vocabulary is None:
        vocabulary = tuple(
            f"aa:aa:aa:aa:aa:{i:02x}" for i in range(int(macs.max()) + 1)
        )
    return REMDataset(
        positions=positions,
        mac_indices=macs,
        channels=np.full(len(rssi), 6, dtype=int),
        rssi_dbm=rssi,
        mac_vocabulary=vocabulary,
    )


@pytest.fixture()
def two_mac_data():
    # MAC 0: RSS falls linearly along x; MAC 1: constant -80.
    positions = [[float(i), 0.0, 0.0] for i in range(8)] * 2
    macs = [0] * 8 + [1] * 8
    rssi = [-50.0 - 2.0 * i for i in range(8)] + [-80.0] * 8
    return dataset_from_arrays(positions, macs, rssi)


class TestBaseline:
    def test_predicts_per_mac_mean(self, two_mac_data):
        model = MeanPerMacBaseline().fit(two_mac_data)
        predictions = model.predict(two_mac_data)
        assert predictions[0] == pytest.approx(-57.0)  # mean of -50..-64
        assert predictions[8] == pytest.approx(-80.0)

    def test_unseen_mac_falls_back_to_global_mean(self, two_mac_data):
        model = MeanPerMacBaseline().fit(two_mac_data)
        query = dataset_from_arrays(
            [[0.0, 0.0, 0.0]], [2], [0.0],
            vocabulary=two_mac_data.mac_vocabulary + ("aa:aa:aa:aa:aa:99",),
        )
        assert model.predict(query)[0] == pytest.approx(two_mac_data.rssi_dbm.mean())

    def test_unfitted_raises(self, two_mac_data):
        with pytest.raises(NotFittedError):
            MeanPerMacBaseline().predict(two_mac_data)

    def test_empty_fit_rejected(self, two_mac_data):
        with pytest.raises(ValueError):
            MeanPerMacBaseline().fit(two_mac_data.subset([]))


class TestKnn:
    def test_exact_interpolation_on_training_points_k1(self, two_mac_data):
        model = KnnRegressor(n_neighbors=1).fit(two_mac_data)
        predictions = model.predict(two_mac_data)
        assert np.allclose(predictions, two_mac_data.rssi_dbm)

    def test_distance_weighting_exact_on_duplicates(self, two_mac_data):
        model = KnnRegressor(n_neighbors=3, weights="distance").fit(two_mac_data)
        predictions = model.predict(two_mac_data)
        # Distance weighting gives training points their own value back.
        assert np.allclose(predictions, two_mac_data.rssi_dbm)

    def test_interpolates_between_neighbors(self, two_mac_data):
        model = KnnRegressor(n_neighbors=2, weights="distance").fit(two_mac_data)
        query = dataset_from_arrays(
            [[2.5, 0.0, 0.0]], [0], [0.0], vocabulary=two_mac_data.mac_vocabulary
        )
        # Between -54 (x=2) and -56 (x=3), equidistant: -55.
        assert model.predict(query)[0] == pytest.approx(-55.0, abs=0.2)

    def test_onehot_scale_separates_macs(self):
        # Two co-located APs with very different RSS: with a large one-hot
        # scale, neighbors come only from the right MAC.
        positions = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]] * 2
        macs = [0] * 3 + [1] * 3
        rssi = [-50.0] * 3 + [-90.0] * 3
        data = dataset_from_arrays(positions, macs, rssi)
        query = dataset_from_arrays(
            [[0.05, 0.05, 0.0]], [0], [0.0], vocabulary=data.mac_vocabulary
        )
        scaled = KnnRegressor(n_neighbors=3, onehot_scale=3.0).fit(data)
        assert scaled.predict(query)[0] == pytest.approx(-50.0, abs=0.5)
        unscaled = KnnRegressor(n_neighbors=6, onehot_scale=0.0).fit(data)
        assert unscaled.predict(query)[0] == pytest.approx(-70.0, abs=2.0)

    def test_uniform_weights_average(self):
        positions = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        data = dataset_from_arrays(positions, [0, 0], [-60.0, -70.0])
        model = KnnRegressor(n_neighbors=2, weights="uniform").fit(data)
        query = dataset_from_arrays(
            [[0.2, 0.0, 0.0]], [0], [0.0], vocabulary=data.mac_vocabulary
        )
        assert model.predict(query)[0] == pytest.approx(-65.0)

    def test_k_larger_than_train_set_clamped(self, two_mac_data):
        model = KnnRegressor(n_neighbors=1000, weights="uniform").fit(two_mac_data)
        predictions = model.predict(two_mac_data)
        assert np.isfinite(predictions).all()

    def test_minkowski_p1_differs_from_p2(self, two_mac_data):
        q = dataset_from_arrays(
            [[2.3, 0.7, 0.4]], [0], [0.0], vocabulary=two_mac_data.mac_vocabulary
        )
        p1 = KnnRegressor(n_neighbors=3, p=1.0).fit(two_mac_data).predict(q)
        p2 = KnnRegressor(n_neighbors=3, p=2.0).fit(two_mac_data).predict(q)
        assert np.isfinite(p1).all() and np.isfinite(p2).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KnnRegressor(n_neighbors=0)
        with pytest.raises(ValueError):
            KnnRegressor(weights="magic")
        with pytest.raises(ValueError):
            KnnRegressor(p=0.5)
        with pytest.raises(ValueError):
            KnnRegressor(onehot_scale=-1.0)

    def test_clone_and_params(self):
        model = KnnRegressor(n_neighbors=7, weights="uniform", p=1.0, onehot_scale=2.0)
        clone = model.clone(n_neighbors=9)
        assert clone.n_neighbors == 9
        assert clone.weights == "uniform"
        assert clone.get_params()["onehot_scale"] == 2.0


class TestMinkowskiDistances:
    """The per-axis sums equal the stacked ``np.sum(..., axis=2)`` formula."""

    @staticmethod
    def points(rng, n):
        # Coordinates from 1e-300 to 1e300, zeros and duplicates included.
        scale = 10.0 ** rng.integers(-300, 300, size=(n, 1))
        points = rng.uniform(-1.0, 1.0, size=(n, 3)) * scale
        points[::7] = 0.0
        points[1::11] = points[0]
        return points

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_powered_distances_bit_for_bit(self, rng, p):
        a, b = self.points(rng, 300), self.points(rng, 400)
        with np.errstate(over="ignore"):  # large coordinates overflow to inf
            diff = np.abs(a[:, None, :] - b[None, :, :])
            stacked = np.sum(np.power(diff, p), axis=2)
            assert np.array_equal(_powered_distances(a, b, p), stacked)
            assert np.array_equal(
                _minkowski_distances(a, b, p), np.power(stacked, 1.0 / p)
            )

    def test_unit_power_is_an_identity(self, rng):
        values = 10.0 ** rng.uniform(-300, 300, size=2_000_000)
        assert np.array_equal(np.power(values, 1.0), values)


def scan_dataset(rng, n_scans, n_macs=5):
    """Scans on a half-metre grid: every beacon of a scan shares its
    position, and grid positions collide, so exact distance ties abound."""
    positions, macs = [], []
    for _ in range(n_scans):
        position = rng.integers(0, 6, size=3) * 0.5
        for mac in np.flatnonzero(rng.random(n_macs) < 0.7):
            positions.append(position)
            macs.append(mac)
    vocabulary = tuple(f"aa:aa:aa:aa:aa:{i:02x}" for i in range(n_macs))
    rssi = rng.integers(-90, -40, size=len(macs))
    return dataset_from_arrays(positions, macs, rssi, vocabulary=vocabulary)


class TestKnnMergeNeighbors:
    """Kept neighbours plus a merge of the appended rows ≡ a fresh search."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("onehot_scale", [0.0, 3.0])
    @pytest.mark.parametrize("n_neighbors", [3, 16])
    def test_merge_equals_fresh_search(self, rng, p, onehot_scale, n_neighbors):
        data = scan_dataset(rng, 30)
        queries = scan_dataset(rng, 12)
        params = dict(n_neighbors=n_neighbors, p=p, onehot_scale=onehot_scale)
        # The first cut leaves fewer rows than n_neighbors, so k grows.
        cuts = [4, 9, 40, len(data)]
        model = KnnRegressor(**params).fit(data.subset(range(cuts[0])))
        idx, pow_ = model.neighbors(queries.positions, queries.mac_indices)
        for first_new, cut in zip(cuts, cuts[1:]):
            model.partial_fit(data.subset(range(first_new, cut)))
            idx, pow_ = model.merge_neighbors(
                queries.positions, queries.mac_indices, idx, pow_, first_new
            )
        fresh = KnnRegressor(**params).fit(data)
        fresh_idx, fresh_pow = fresh.neighbors(queries.positions, queries.mac_indices)
        np.testing.assert_array_equal(idx, fresh_idx)
        if p == 2.0:
            # The quadratic expansion's rounding depends on the matrix shape.
            np.testing.assert_allclose(pow_, fresh_pow, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(pow_, fresh_pow)
        np.testing.assert_allclose(
            model.average_neighbors(idx, pow_), fresh.predict(queries), atol=1e-9
        )

    def test_neighbors_are_the_predict_points_neighbors(self, rng):
        data, queries = scan_dataset(rng, 30), scan_dataset(rng, 12)
        model = KnnRegressor(n_neighbors=8, onehot_scale=3.0).fit(data)
        idx, pow_ = model.neighbors(queries.positions, queries.mac_indices)
        assert (np.diff(idx, axis=1) > 0).all()  # training-row order
        np.testing.assert_allclose(
            model.average_neighbors(idx, pow_),
            model.predict_points(queries.positions, queries.mac_indices),
            rtol=0.0,
            atol=1e-12,
        )


class TestPerMacKnn:
    def test_dispatches_by_mac(self, two_mac_data):
        model = PerMacKnnRegressor(n_neighbors=1).fit(two_mac_data)
        predictions = model.predict(two_mac_data)
        assert np.allclose(predictions, two_mac_data.rssi_dbm)

    def test_unseen_mac_gets_global_mean(self, two_mac_data):
        model = PerMacKnnRegressor(n_neighbors=1).fit(two_mac_data)
        query = dataset_from_arrays(
            [[0.0, 0.0, 0.0]], [2], [0.0],
            vocabulary=two_mac_data.mac_vocabulary + ("aa:aa:aa:aa:aa:99",),
        )
        assert model.predict(query)[0] == pytest.approx(two_mac_data.rssi_dbm.mean())

    def test_never_mixes_macs(self):
        # MAC 1 has wildly different values; per-MAC predictions for MAC 0
        # must be unaffected by them even at k covering everything.
        positions = [[float(i), 0.0, 0.0] for i in range(4)] * 2
        macs = [0] * 4 + [1] * 4
        rssi = [-60.0] * 4 + [-10.0] * 4
        data = dataset_from_arrays(positions, macs, rssi)
        model = PerMacKnnRegressor(n_neighbors=8, weights="uniform").fit(data)
        query = dataset_from_arrays(
            [[1.5, 0.0, 0.0]], [0], [0.0], vocabulary=data.mac_vocabulary
        )
        assert model.predict(query)[0] == pytest.approx(-60.0)
