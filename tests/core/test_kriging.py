"""Unit tests for the ordinary-kriging extension."""

import numpy as np
import pytest

from repro.core.predictors import (
    ExponentialVariogram,
    OrdinaryKrigingRegressor,
    fit_variogram,
)
from tests.core.test_predictors import dataset_from_arrays


class TestVariogram:
    def test_model_shape(self):
        variogram = ExponentialVariogram(nugget=0.5, sill=4.0, range_m=2.0)
        assert variogram(0.0) == pytest.approx(0.5)
        assert variogram(1e9) == pytest.approx(4.5, abs=1e-6)
        assert variogram(2.0) < variogram(4.0)

    def test_fit_recovers_correlation_scale(self, rng):
        # Smooth field: value = 10 * sin(x/3); nearby points similar.
        positions = rng.uniform(0, 20, size=(250, 3))
        positions[:, 1:] = 0.0
        values = 10.0 * np.sin(positions[:, 0] / 3.0)
        variogram = fit_variogram(positions, values)
        # Semivariance at small lag must be far below the sill.
        assert variogram(0.3) < 0.5 * variogram(50.0)

    def test_fit_degenerate_inputs(self):
        variogram = fit_variogram(np.zeros((1, 3)), np.array([1.0]))
        assert variogram.sill > 0

    def test_fit_on_constant_values(self, rng):
        positions = rng.uniform(0, 5, size=(30, 3))
        variogram = fit_variogram(positions, np.full(30, -60.0))
        assert np.isfinite(variogram(1.0))


class TestKrigingRegressor:
    def _smooth_data(self, rng, n=150):
        positions = rng.uniform(0, 4, size=(n, 3))
        rssi = -60.0 - 4.0 * positions[:, 0] + 2.5 * positions[:, 1]
        return dataset_from_arrays(positions, np.zeros(n, dtype=int), rssi)

    def test_interpolates_smooth_field(self, rng):
        data = self._smooth_data(rng)
        model = OrdinaryKrigingRegressor(n_neighbors=12).fit(data)
        query_positions = rng.uniform(0.5, 3.5, size=(40, 3))
        truth = -60.0 - 4.0 * query_positions[:, 0] + 2.5 * query_positions[:, 1]
        query = dataset_from_arrays(
            query_positions, np.zeros(40, dtype=int), np.zeros(40),
            vocabulary=data.mac_vocabulary,
        )
        predictions = model.predict(query)
        rmse = float(np.sqrt(np.mean((predictions - truth) ** 2)))
        assert rmse < 1.5

    def test_weights_sum_keeps_predictions_in_range(self, rng):
        data = self._smooth_data(rng, n=60)
        model = OrdinaryKrigingRegressor(n_neighbors=8).fit(data)
        predictions = model.predict(data)
        margin = 3.0
        assert predictions.min() > data.rssi_dbm.min() - margin
        assert predictions.max() < data.rssi_dbm.max() + margin

    def test_predict_std_nonnegative(self, rng):
        data = self._smooth_data(rng, n=60)
        model = OrdinaryKrigingRegressor(n_neighbors=8).fit(data)
        stds = model.predict_points_std(data.positions, data.mac_indices)
        assert (stds >= 0).all()

    def test_absent_mac_std_is_the_global_spread(self, rng):
        data = self._smooth_data(rng, n=40)
        model = OrdinaryKrigingRegressor().fit(data)
        points = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        stds = model.predict_points_std(points, np.array([1, 0]))
        assert stds[0] == data.rssi_dbm.std()
        assert 0.0 < stds[1] < data.rssi_dbm.std()

    def test_unseen_mac_falls_back(self, rng):
        data = self._smooth_data(rng, n=40)
        model = OrdinaryKrigingRegressor().fit(data)
        query = dataset_from_arrays(
            [[1.0, 1.0, 1.0]], [1], [0.0],
            vocabulary=data.mac_vocabulary + ("aa:aa:aa:aa:aa:99",),
        )
        assert model.predict(query)[0] == pytest.approx(data.rssi_dbm.mean())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OrdinaryKrigingRegressor(n_neighbors=1)
