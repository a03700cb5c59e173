"""The one-pass lattice: ``grid_layers`` ≡ the one-layer grid methods.

The REM build renders the RSS map and its uncertainty map from one
``Predictor.grid_layers`` call.  These differential tests pin that
pass to the paths it replaced, with exact equality: per estimator
against ``predict_mac_grid`` / ``uncertainty_grid``, per MAC row against
the point methods, on IDW's fallback edges, and end to end against
``build_uncertainty_rem`` on a built artifact.
"""

import numpy as np
import pytest

from repro.core.predictors import IdwRegressor
from repro.core.predictors.neural import _sigmoid
from repro.core.rem import RemGrid, build_rem, build_rem_layers, build_uncertainty_rem
from repro.radio import Cuboid
from repro.serve import RemJobSpec, run_job
from repro.serve.spec import PREDICTOR_FACTORIES
from tests.core.test_predictors import dataset_from_arrays

VOLUME = Cuboid((0.0, 0.0, 0.0), (2.0, 2.0, 1.0))
#: Vocabulary indices of the fixture: 0-3 are ordinary MACs, 4 has a
#: single training sample and 5 has none.
SINGLE, ABSENT = 4, 5
#: Small settings for the slow-to-fit estimators; the rest use defaults.
PARAMS = {"mlp": {"epochs": 10}, "kriging": {"n_neighbors": 8}}


@pytest.fixture()
def training_data(rng):
    n = 120
    positions = rng.uniform(0.0, 2.0, size=(n, 3)) * [1.0, 1.0, 0.5]
    macs = rng.integers(0, 4, size=n)
    macs[0] = SINGLE
    slopes = np.array([-8.0, -3.0, 0.0, 5.0, 1.0])
    rssi = -60.0 + slopes[macs] * positions[:, 0] - 2.0 * positions[:, 1]
    vocabulary = tuple(f"aa:aa:aa:aa:aa:{i:02x}" for i in range(ABSENT + 1))
    return dataset_from_arrays(positions, macs, rssi, vocabulary=vocabulary)


@pytest.fixture()
def points(rng):
    lattice = RemGrid(volume=VOLUME, resolution_m=0.5).points()
    return np.vstack([lattice, rng.uniform(0.0, 2.0, size=(30, 3))])


def _fitted(name, training_data):
    return PREDICTOR_FACTORIES[name](**PARAMS.get(name, {})).fit(training_data)


MACS = [0, 1, 2, 3, SINGLE, ABSENT, 2]


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
class TestEveryEstimator:
    def test_layers_equal_the_one_layer_grids(self, name, training_data, points):
        model = _fitted(name, training_data)
        rss, std = model.grid_layers(points, MACS)
        assert rss.shape == std.shape == (len(MACS), len(points))
        assert np.array_equal(rss, model.predict_mac_grid(points, MACS))
        assert np.array_equal(std, model.uncertainty_grid(points, MACS))

    def test_grid_rows_equal_the_point_methods(self, name, training_data, points):
        model = _fitted(name, training_data)
        rss, std = model.grid_layers(points, MACS)
        for row, mac in enumerate(MACS):
            column = np.full(len(points), mac)
            assert np.array_equal(rss[row], model.predict_points(points, column))
            assert np.array_equal(std[row], model.predict_points_std(points, column))


@pytest.mark.parametrize("name", sorted(set(PREDICTOR_FACTORIES) - {"knn"}))
class TestOnePredictContract:
    """``predict(data)`` is ``predict_points`` over the view's arrays.

    The k-NN is left out: it keeps a dense brute-force ``predict`` as
    the reference its batched paths are checked against (to 1e-9, in
    ``test_rem_engine.py``).
    """

    def test_predict_is_predict_points(self, name, training_data, rng):
        model = _fitted(name, training_data)
        macs = np.array(MACS * 8)
        positions = rng.uniform(0.0, 2.0, size=(len(macs), 3))
        data = dataset_from_arrays(
            positions, macs, np.zeros(len(macs)), training_data.mac_vocabulary
        )
        expected = model.predict_points(positions, macs)
        assert np.array_equal(model.predict(data), expected)


def test_mlp_predict_points_is_the_forward_pass(training_data, rng):
    """The MLP's points path ≡ its former dataset forward pass, bit for bit."""
    model = _fitted("mlp", training_data)
    macs = np.array(MACS * 8)
    positions = rng.uniform(0.0, 2.0, size=(len(macs), 3))
    data = dataset_from_arrays(
        positions, macs, np.zeros(len(macs)), training_data.mac_vocabulary
    )
    weights = model._weights
    features = (data.features(model.onehot_scale) - model._x_mean) / model._x_std
    hidden = _sigmoid(features @ weights["W1"] + weights["b1"])
    expected = (hidden @ weights["W2"] + weights["b2"]).ravel()
    expected = expected * model._y_std + model._y_mean
    assert np.array_equal(model.predict_points(positions, macs), expected)


class TestIdwEdges:
    def test_absent_mac_takes_the_global_fallbacks(self, training_data, points):
        model = IdwRegressor().fit(training_data)
        rss, std = model.grid_layers(points, [ABSENT])
        assert np.all(rss == training_data.rssi_dbm.mean())
        assert np.all(std == training_data.rssi_dbm.std())

    def test_single_sample_mac_uses_the_training_spread(self, training_data, points):
        model = IdwRegressor().fit(training_data)
        rss, std = model.grid_layers(points, [SINGLE])
        sample = training_data.positions[0]
        nearest = np.linalg.norm(points - sample, axis=1)
        sigma = training_data.rssi_dbm.std()
        np.testing.assert_allclose(std[0], sigma * nearest / (nearest + 1.0))
        # One sample: Shepard weights normalize to that sample's value.
        np.testing.assert_allclose(rss[0], training_data.rssi_dbm[0])

    def test_point_within_epsilon_of_a_sample(self, training_data):
        model = IdwRegressor(epsilon_m=1e-3).fit(training_data)
        row = int(np.flatnonzero(training_data.mac_indices == 1)[0])
        sample = training_data.positions[row]
        points = np.vstack([sample + [2e-4, 0.0, 0.0], [1.0, 1.0, 0.5]])
        rss, std = model.grid_layers(points, [1])
        assert rss[0, 0] == training_data.rssi_dbm[row]
        assert 0.0 < std[0, 0] < 1e-3
        assert np.array_equal(rss, model.predict_mac_grid(points, [1]))
        assert np.array_equal(std, model.uncertainty_grid(points, [1]))
        assert np.array_equal(rss[0], model.predict_points(points, np.ones(2, int)))
        assert np.array_equal(std[0], model.predict_points_std(points, np.ones(2, int)))


def test_build_rem_layers_equals_the_two_builders(training_data):
    model = _fitted("knn", training_data)
    subset = training_data.mac_vocabulary[1:4]
    rem, uncertainty = build_rem_layers(model, training_data, VOLUME, 0.5, subset)
    alone = build_rem(model, training_data, VOLUME, 0.5, subset)
    std_alone = build_uncertainty_rem(model, training_data, VOLUME, 0.5, subset)
    assert rem.macs == uncertainty.macs == subset
    assert np.array_equal(rem.field_tensor(), alone.field_tensor())
    assert np.array_equal(uncertainty.field_tensor(), std_alone.field_tensor())
    with pytest.raises(KeyError):
        build_rem_layers(model, training_data, VOLUME, 0.5, ["nope"])


@pytest.mark.parametrize("predictor", ["knn", "idw"])
def test_run_job_uncertainty_equals_build_uncertainty_rem(predictor):
    spec = RemJobSpec(
        predictor=predictor,
        acquisition="active",
        active={"seed_waypoints": 6, "batch_size": 6, "budget_waypoints": 6},
        tune=False,
        min_samples_per_mac=2,
        resolution_m=0.8,
    )
    artifact = run_job(spec)
    result = artifact.result
    expected = build_uncertainty_rem(
        result.predictor,
        result.preprocessing.dataset,
        result.scenario.flight_volume,
        resolution_m=spec.resolution_m,
    )
    assert artifact.uncertainty.macs == expected.macs
    assert np.array_equal(artifact.uncertainty.field_tensor(), expected.field_tensor())
    assert "uncertainty" not in artifact.provenance["stage_wall_s"]
