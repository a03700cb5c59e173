"""Tests for the batched REM query engine.

Covers the satellite checklist of the engine refactor: out-of-volume
query clipping, degenerate axis spans, serialization round-trips of the
stacked-field representation, and equivalence of the batched predictor
paths (``predict_points`` / ``predict_mac_grid``) against the
per-``REMDataset`` ``predict`` path (the k-NN's dense brute-force
reference) at 1e-9 absolute tolerance.
"""

import numpy as np
import pytest

from repro.core import RadioEnvironmentMap, RemGrid, build_rem
from repro.core.dataset import REMDataset
from repro.core.predictors import (
    IdwRegressor,
    KnnRegressor,
    MeanPerMacBaseline,
    MlpRegressor,
    OrdinaryKrigingRegressor,
    PerMacKnnRegressor,
)
from repro.radio import Cuboid
from tests.core.test_predictors import dataset_from_arrays


@pytest.fixture()
def grid():
    return RemGrid(volume=Cuboid((0.0, 0.0, 0.0), (2.0, 2.0, 1.0)), resolution_m=0.5)


@pytest.fixture()
def training_data(rng):
    """A 4-MAC training cloud with distinct spatial trends per MAC."""
    n = 160
    positions = rng.uniform(0.0, 2.0, size=(n, 3))
    macs = rng.integers(0, 4, size=n)
    slopes = np.array([-8.0, -3.0, 0.0, 5.0])
    rssi = -60.0 + slopes[macs] * positions[:, 0] - 2.0 * positions[:, 1]
    return dataset_from_arrays(positions, macs, rssi)


def _query_view(train, points, mac_indices):
    n = len(points)
    return REMDataset(
        positions=np.asarray(points, dtype=float),
        mac_indices=np.asarray(mac_indices, dtype=int),
        channels=np.ones(n, dtype=int),
        rssi_dbm=np.zeros(n),
        mac_vocabulary=train.mac_vocabulary,
    )


class TestQueryMany:
    def _linear_map(self, grid):
        rem = RadioEnvironmentMap(grid, ["m1", "m2"])
        ax, ay, az = grid.axes()
        xs, ys, zs = np.meshgrid(ax, ay, az, indexing="ij")
        rem.set_field("m1", -50.0 - 10.0 * xs - 5.0 * ys + 2.0 * zs)
        rem.set_field("m2", -70.0 + 3.0 * xs)
        return rem

    def test_matches_scalar_query(self, grid, rng):
        rem = self._linear_map(grid)
        points = rng.uniform(-0.2, 2.2, size=(40, 3))
        batched = rem.query_many(points, ["m1", "m2"])
        assert batched.shape == (40, 2)
        for row, point in enumerate(points):
            assert batched[row, 0] == pytest.approx(rem.query(point, "m1"), abs=1e-12)
            assert batched[row, 1] == pytest.approx(rem.query(point, "m2"), abs=1e-12)

    def test_exact_for_linear_field(self, grid):
        rem = self._linear_map(grid)
        pts = [(0.3, 0.7, 0.2), (1.9, 0.1, 0.9), (1.0, 1.0, 0.5)]
        expected = [-50.0 - 10.0 * x - 5.0 * y + 2.0 * z for x, y, z in pts]
        assert rem.query_many(pts, ["m1"])[:, 0] == pytest.approx(expected)

    def test_out_of_volume_clips_to_boundary(self, grid):
        rem = self._linear_map(grid)
        # Far outside on every axis: must clamp to the volume corner.
        far = rem.query_many([(-9.0, -9.0, -9.0), (9.0, 9.0, 9.0)], ["m1"])
        corner_lo = rem.query((0.0, 0.0, 0.0), "m1")
        corner_hi = rem.query((2.0, 2.0, 1.0), "m1")
        assert far[0, 0] == pytest.approx(corner_lo)
        assert far[1, 0] == pytest.approx(corner_hi)
        assert np.isfinite(far).all()

    def test_default_macs_are_all_present(self, grid):
        rem = self._linear_map(grid)
        out = rem.query_many([(1.0, 1.0, 0.5)])
        assert out.shape == (1, 2)

    def test_missing_field_raises(self, grid):
        rem = RadioEnvironmentMap(grid, ["m1", "m2"])
        rem.set_field("m1", np.zeros(grid.shape))
        with pytest.raises(KeyError):
            rem.query_many([(1.0, 1.0, 0.5)], ["m2"])
        with pytest.raises(KeyError):
            rem.field("m2")

    def test_strongest_ap_many(self, grid):
        rem = self._linear_map(grid)
        # m1 at x=0: -50ish; m2: -70.  m1 decays with x (slope -10) and
        # m2 grows (slope +3): m2 wins near x=2.
        macs, rss = rem.strongest_ap_many([(0.1, 0.0, 0.0), (2.0, 0.0, 0.0)])
        assert macs[0] == "m1"
        assert macs[1] == "m2"
        single = rem.strongest_ap((0.1, 0.0, 0.0))
        assert single == (macs[0], pytest.approx(rss[0]))

    def test_strongest_ap_empty_map_raises(self, grid):
        rem = RadioEnvironmentMap(grid, ["m1"])
        with pytest.raises(ValueError):
            rem.strongest_ap_many([(0.0, 0.0, 0.0)])


class TestDegenerateSpans:
    def test_zero_extent_axis(self):
        # A plane: zero z extent.  The grid still gets >= 2 points per
        # axis; interior spans collapse to zero and the query must not
        # divide by that zero span.
        grid = RemGrid(
            volume=Cuboid((0.0, 0.0, 1.0), (2.0, 2.0, 1.0)), resolution_m=0.5
        )
        assert grid.shape[2] == 2
        rem = RadioEnvironmentMap(grid, ["m"])
        rem.set_field("m", np.full(grid.shape, -55.0))
        assert rem.query((1.0, 1.0, 1.0), "m") == pytest.approx(-55.0)
        out = rem.query_many([(1.0, 1.0, 0.5), (1.0, 1.0, 7.0)], ["m"])
        assert np.isfinite(out).all()
        assert out[:, 0] == pytest.approx([-55.0, -55.0])

    def test_point_volume(self):
        grid = RemGrid(
            volume=Cuboid((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)), resolution_m=0.25
        )
        assert grid.shape == (2, 2, 2)
        rem = RadioEnvironmentMap(grid, ["m"])
        rem.set_field("m", np.full(grid.shape, -42.0))
        assert rem.query((0.0, 5.0, 1.0), "m") == pytest.approx(-42.0)


class TestStackedSerialization:
    def test_roundtrip_preserves_stack(self, grid, rng):
        rem = RadioEnvironmentMap(grid, ["m1", "m2", "m3"])
        f1 = rng.normal(-70.0, 5.0, size=grid.shape)
        f2 = rng.normal(-60.0, 5.0, size=grid.shape)
        rem.set_field("m1", f1)
        rem.set_field("m3", f2)  # deliberately sparse: m2 absent
        clone = RadioEnvironmentMap.from_dict(rem.to_dict())
        assert clone.macs == ("m1", "m3")
        assert clone.mac_vocabulary == ("m1", "m2", "m3")
        np.testing.assert_allclose(clone.field("m1"), f1)
        np.testing.assert_allclose(clone.field("m3"), f2)
        np.testing.assert_allclose(clone.field_tensor(), rem.field_tensor())
        with pytest.raises(KeyError):
            clone.field("m2")

    def test_set_fields_bulk(self, grid, rng):
        rem = RadioEnvironmentMap(grid, ["a", "b"])
        tensor = rng.normal(-65.0, 3.0, size=(2,) + grid.shape)
        rem.set_fields(["a", "b"], tensor)
        np.testing.assert_allclose(rem.field_tensor(["a", "b"]), tensor)
        with pytest.raises(ValueError):
            rem.set_fields(["a"], tensor)

    def test_coverage_by_mac_matches_scalar(self, grid):
        rem = RadioEnvironmentMap(grid, ["a", "b"])
        fa = np.full(grid.shape, -90.0)
        fa[0] = -50.0
        rem.set_field("a", fa)
        rem.set_field("b", np.full(grid.shape, -40.0))
        report = rem.coverage_by_mac(-70.0)
        assert report["a"] == pytest.approx(rem.coverage_fraction("a", -70.0))
        assert report["b"] == pytest.approx(1.0)


class TestBatchedEquivalence:
    """Batched fast paths must match the per-dataset ``predict`` path."""

    PREDICTORS = [
        MeanPerMacBaseline(),
        KnnRegressor(n_neighbors=3, weights="distance", p=2.0, onehot_scale=1.0),
        KnnRegressor(n_neighbors=16, weights="distance", p=2.0, onehot_scale=3.0),
        KnnRegressor(n_neighbors=5, weights="uniform", p=1.0, onehot_scale=3.0),
        KnnRegressor(n_neighbors=4, weights="distance", p=3.0, onehot_scale=0.5),
        PerMacKnnRegressor(n_neighbors=4),
        IdwRegressor(power=2.0),
        OrdinaryKrigingRegressor(n_neighbors=8),
        MlpRegressor(epochs=10, seed=3),
    ]

    @pytest.mark.parametrize(
        "predictor", PREDICTORS, ids=lambda p: f"{p.name}-{p.get_params()}"
    )
    def test_predict_points_matches_legacy(self, predictor, training_data, rng):
        model = predictor.clone().fit(training_data)
        points = rng.uniform(-0.5, 2.5, size=(200, 3))
        mac_indices = rng.integers(0, training_data.n_macs, size=200)
        reference = model.predict(_query_view(training_data, points, mac_indices))
        batched = model.predict_points(points, mac_indices)
        np.testing.assert_allclose(batched, reference, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize(
        "predictor", PREDICTORS, ids=lambda p: f"{p.name}-{p.get_params()}"
    )
    def test_predict_mac_grid_matches_legacy(self, predictor, training_data, rng):
        model = predictor.clone().fit(training_data)
        points = rng.uniform(0.0, 2.0, size=(60, 3))
        mac_indices = np.arange(training_data.n_macs)
        grid_out = model.predict_mac_grid(points, mac_indices)
        assert grid_out.shape == (training_data.n_macs, 60)
        for row, mac in enumerate(mac_indices):
            reference = model.predict(
                _query_view(training_data, points, np.full(60, mac, dtype=int))
            )
            np.testing.assert_allclose(grid_out[row], reference, atol=1e-9, rtol=0.0)

    def test_knn_exact_tie_breaking_is_deterministic(self):
        # Two training samples at the same position with different MACs
        # tie exactly at the penalty distance: both paths must resolve
        # to the lowest training index.
        data = dataset_from_arrays(
            positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            macs=[0, 1, 2],
            rssi=[-50.0, -60.0, -90.0],
            vocabulary=("a", "b", "c"),
        )
        model = KnnRegressor(n_neighbors=2, weights="uniform", onehot_scale=3.0).fit(
            data
        )
        query = np.array([[1.0, 0.0, 0.0]])
        reference = model.predict(_query_view(data, query, np.array([0])))
        batched = model.predict_points(query, np.array([0]))
        # Neighbor 1 (MAC b, same position: tie between b and c broken
        # by index) plus... the query MAC a matches only sample 0.
        np.testing.assert_allclose(batched, reference, atol=1e-12)

    def test_mac_indices_shape_validation(self, training_data):
        model = MeanPerMacBaseline().fit(training_data)
        with pytest.raises(ValueError):
            model.predict_points(np.zeros((4, 3)), np.zeros(3, dtype=int))

    def test_scalar_mac_broadcasts(self, training_data):
        model = MeanPerMacBaseline().fit(training_data)
        out = model.predict_points(np.zeros((4, 3)), np.asarray(1))
        assert out.shape == (4,)


class TestBuildRemBatched:
    def test_one_shot_build_matches_per_mac_loop(self, training_data):
        model = KnnRegressor(n_neighbors=6, onehot_scale=3.0).fit(training_data)
        volume = Cuboid((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        rem = build_rem(model, training_data, volume, resolution_m=0.5)
        grid = rem.grid
        points = grid.points()
        for mac_index, mac in enumerate(training_data.mac_vocabulary):
            reference = model.predict(
                _query_view(
                    training_data, points, np.full(len(points), mac_index, dtype=int)
                )
            )
            np.testing.assert_allclose(
                rem.field(mac).ravel(), reference, atol=1e-9, rtol=0.0
            )

    def test_field_views_are_read_only(self, training_data):
        model = MeanPerMacBaseline().fit(training_data)
        rem = build_rem(model, training_data, Cuboid((0, 0, 0), (1, 1, 1)))
        mac = rem.macs[0]
        with pytest.raises(ValueError):
            rem.field(mac)[0, 0, 0] = 0.0

    def test_subset_and_unknown_mac(self, training_data):
        model = MeanPerMacBaseline().fit(training_data)
        volume = Cuboid((0, 0, 0), (1, 1, 1))
        subset = training_data.mac_vocabulary[:2]
        rem = build_rem(model, training_data, volume, resolution_m=1.0, macs=subset)
        assert rem.macs == subset
        with pytest.raises(KeyError):
            build_rem(model, training_data, volume, macs=["nope"])
