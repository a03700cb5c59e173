"""Unit tests for the IDW interpolator."""

import numpy as np
import pytest

from repro.core.predictors import rmse
from repro.core.predictors.idw import IdwRegressor
from tests.core.test_predictors import dataset_from_arrays


@pytest.fixture()
def linear_field(rng):
    positions = rng.uniform(0, 4, size=(120, 3))
    rssi = -55.0 - 6.0 * positions[:, 0]
    return dataset_from_arrays(positions, np.zeros(120, dtype=int), rssi)


class TestIdw:
    def test_exact_at_training_points(self, linear_field):
        model = IdwRegressor().fit(linear_field)
        predictions = model.predict(linear_field)
        assert np.allclose(predictions, linear_field.rssi_dbm)

    def test_interpolates_linear_trend(self, linear_field, rng):
        model = IdwRegressor(power=3.0).fit(linear_field)
        queries = rng.uniform(0.5, 3.5, size=(30, 3))
        truth = -55.0 - 6.0 * queries[:, 0]
        view = dataset_from_arrays(
            queries, np.zeros(30, dtype=int), np.zeros(30),
            vocabulary=linear_field.mac_vocabulary,
        )
        assert rmse(truth, model.predict(view)) < 2.5

    def test_predictions_within_training_range(self, linear_field, rng):
        model = IdwRegressor().fit(linear_field)
        queries = rng.uniform(-2, 6, size=(20, 3))
        view = dataset_from_arrays(
            queries, np.zeros(20, dtype=int), np.zeros(20),
            vocabulary=linear_field.mac_vocabulary,
        )
        predictions = model.predict(view)
        assert predictions.min() >= linear_field.rssi_dbm.min() - 1e-9
        assert predictions.max() <= linear_field.rssi_dbm.max() + 1e-9

    def test_macs_not_mixed(self):
        positions = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]] * 2
        macs = [0, 0, 1, 1]
        rssi = [-50.0, -52.0, -90.0, -92.0]
        data = dataset_from_arrays(positions, macs, rssi)
        model = IdwRegressor().fit(data)
        query = dataset_from_arrays(
            [[0.5, 0.0, 0.0]], [0], [0.0], vocabulary=data.mac_vocabulary
        )
        assert model.predict(query)[0] == pytest.approx(-51.0, abs=0.5)

    def test_unseen_mac_global_mean(self, linear_field):
        model = IdwRegressor().fit(linear_field)
        query = dataset_from_arrays(
            [[1.0, 1.0, 1.0]], [1], [0.0],
            vocabulary=linear_field.mac_vocabulary + ("aa:aa:aa:aa:aa:99",),
        )
        assert model.predict(query)[0] == pytest.approx(linear_field.rssi_dbm.mean())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IdwRegressor(power=0.0)
        with pytest.raises(ValueError):
            IdwRegressor(epsilon_m=0.0)

    def test_beats_baseline_on_campaign(self, preprocessed):
        from repro.core.predictors import MeanPerMacBaseline

        idw = IdwRegressor(power=2.0).fit(preprocessed.train)
        baseline = MeanPerMacBaseline().fit(preprocessed.train)
        idw_rmse = rmse(preprocessed.test.rssi_dbm, idw.predict(preprocessed.test))
        base_rmse = rmse(
            preprocessed.test.rssi_dbm, baseline.predict(preprocessed.test)
        )
        assert idw_rmse < base_rmse


class TestIdwGrid:
    def test_grid_fields_equal_point_methods_bit_for_bit(self, rng):
        # Scans: every beacon heard at a hover point shares its position,
        # so 30 positions carry 4-8 MACs each (MAC 9 is never heard).
        scan_positions = rng.uniform(0, 4, size=(30, 3))
        positions, macs = [], []
        for position in scan_positions:
            heard = rng.choice(9, size=rng.integers(4, 9), replace=False)
            positions.extend([position] * len(heard))
            macs.extend(heard)
        rssi = rng.uniform(-90.0, -40.0, size=len(macs))
        vocabulary = tuple(f"aa:aa:aa:aa:aa:{i:02x}" for i in range(10))
        data = dataset_from_arrays(positions, macs, rssi, vocabulary=vocabulary)
        model = IdwRegressor(power=1.5).fit(data)
        # Lattice-like queries plus exact hits on training positions.
        points = np.concatenate([rng.uniform(-1, 5, size=(200, 3)), scan_positions[:5]])
        grid_macs = [9, 3, 0, 8, 5]
        rss, std = model.grid_layers(points, grid_macs)
        for row, mac in enumerate(grid_macs):
            per_mac = np.full(len(points), mac)
            assert np.array_equal(rss[row], model.predict_points(points, per_mac))
            assert np.array_equal(std[row], model.predict_points_std(points, per_mac))
        assert np.array_equal(model.predict_mac_grid(points, grid_macs), rss)
        assert np.array_equal(model.uncertainty_grid(points, grid_macs), std)
