"""Unit tests for the REM product."""

import numpy as np
import pytest

from repro.core import RadioEnvironmentMap, RemGrid, build_rem
from repro.core.predictors import KnnRegressor
from repro.radio import Cuboid
from tests.core.test_predictors import dataset_from_arrays


@pytest.fixture()
def grid():
    return RemGrid(volume=Cuboid((0.0, 0.0, 0.0), (2.0, 2.0, 1.0)), resolution_m=0.5)


class TestRemGrid:
    def test_shape(self, grid):
        assert grid.shape == (5, 5, 3)

    def test_points_cover_volume(self, grid):
        points = grid.points()
        assert points.shape == (5 * 5 * 3, 3)
        assert points.min() == 0.0
        assert points[:, 0].max() == 2.0

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            RemGrid(volume=Cuboid((0, 0, 0), (1, 1, 1)), resolution_m=0.0)


class TestRadioEnvironmentMap:
    def _linear_map(self, grid):
        rem = RadioEnvironmentMap(grid, ["aa:aa:aa:aa:aa:01"])
        ax, ay, az = grid.axes()
        xs, ys, zs = np.meshgrid(ax, ay, az, indexing="ij")
        rem.set_field("aa:aa:aa:aa:aa:01", -50.0 - 10.0 * xs - 5.0 * ys + 2.0 * zs)
        return rem

    def test_trilinear_query_exact_for_linear_field(self, grid):
        rem = self._linear_map(grid)
        for point in [(0.3, 0.7, 0.2), (1.9, 0.1, 0.9), (1.0, 1.0, 0.5)]:
            expected = -50.0 - 10.0 * point[0] - 5.0 * point[1] + 2.0 * point[2]
            assert rem.query(point, "aa:aa:aa:aa:aa:01") == pytest.approx(expected)

    def test_query_clamps_outside_volume(self, grid):
        rem = self._linear_map(grid)
        assert np.isfinite(rem.query((-1.0, -1.0, -1.0), "aa:aa:aa:aa:aa:01"))

    def test_field_shape_validated(self, grid):
        rem = RadioEnvironmentMap(grid, ["aa:aa:aa:aa:aa:01"])
        with pytest.raises(ValueError):
            rem.set_field("aa:aa:aa:aa:aa:01", np.zeros((2, 2, 2)))

    def test_unknown_mac_rejected(self, grid):
        rem = RadioEnvironmentMap(grid, ["aa:aa:aa:aa:aa:01"])
        with pytest.raises(KeyError):
            rem.set_field("bb:bb:bb:bb:bb:bb", np.zeros(grid.shape))

    def test_coverage_fraction(self, grid):
        rem = RadioEnvironmentMap(grid, ["m"])
        field = np.full(grid.shape, -90.0)
        field[0] = -50.0  # one x-slice covered
        rem.set_field("m", field)
        assert rem.coverage_fraction("m", -70.0) == pytest.approx(1.0 / 5.0)

    def test_dark_fraction_and_points(self, grid):
        rem = RadioEnvironmentMap(grid, ["m1", "m2"])
        f1 = np.full(grid.shape, -90.0)
        f2 = np.full(grid.shape, -90.0)
        f1[:, :, 0] = -50.0  # bottom layer served by m1
        rem.set_field("m1", f1)
        rem.set_field("m2", f2)
        assert rem.dark_fraction(-70.0) == pytest.approx(2.0 / 3.0)
        dark = rem.dark_points(-70.0)
        assert (dark[:, 2] > 0.0).all()

    def test_strongest_ap(self, grid):
        rem = RadioEnvironmentMap(grid, ["m1", "m2"])
        rem.set_field("m1", np.full(grid.shape, -60.0))
        rem.set_field("m2", np.full(grid.shape, -80.0))
        mac, rss = rem.strongest_ap((1.0, 1.0, 0.5))
        assert mac == "m1"
        assert rss == pytest.approx(-60.0)

    def test_dict_roundtrip(self, grid):
        rem = self._linear_map(grid)
        clone = RadioEnvironmentMap.from_dict(rem.to_dict())
        point = (0.7, 1.3, 0.4)
        assert clone.query(point, "aa:aa:aa:aa:aa:01") == pytest.approx(
            rem.query(point, "aa:aa:aa:aa:aa:01")
        )


class TestDerivedFields:
    """The cached best-server field and the reductions that read it."""

    def _map(self, grid, seed=0):
        rng = np.random.default_rng(seed)
        rem = RadioEnvironmentMap(grid, ["m1", "m2", "m3"])
        rem.set_fields(["m1", "m2"], rng.uniform(-90.0, -40.0, (2,) + grid.shape))
        return rem

    def test_best_rss_field_is_read_only(self, grid):
        rem = self._map(grid)
        best = rem.best_rss_field()
        assert not best.flags.writeable
        with pytest.raises(ValueError):
            best[0, 0, 0] = 0.0
        np.testing.assert_array_equal(best, rem.field_tensor().max(axis=0))
        assert not RadioEnvironmentMap(grid, ["m1"]).best_rss_field().flags.writeable

    def test_set_field_invalidates(self, grid):
        rem = self._map(grid)
        assert rem.dark_fraction(-20.0) == 1.0
        before = rem.dark_points(-20.0)
        rem.set_field("m1", np.full(grid.shape, -10.0))  # replaces a row
        assert rem.dark_fraction(-20.0) == 0.0
        assert len(before) == grid.n_points and len(rem.dark_points(-20.0)) == 0
        rem.set_field("m3", np.full(grid.shape, 0.0))  # appends a row
        np.testing.assert_array_equal(rem.best_rss_field(), np.zeros(grid.shape))

    def test_set_fields_invalidates(self, grid):
        rem = self._map(grid)
        assert rem.dark_fraction(-20.0) == 1.0
        lit = np.full((1,) + grid.shape, -90.0)
        lit[0, 0] = -10.0  # one x-slice served
        rem.set_fields(["m3"], lit)
        assert rem.dark_fraction(-20.0) == pytest.approx(4.0 / 5.0)
        assert (rem.dark_points(-20.0)[:, 0] > 0.0).all()
        rem.set_fields(["m1", "m2"], np.full((2,) + grid.shape, -10.0))
        assert rem.dark_fraction(-20.0) == 0.0
        assert rem.dark_points(-20.0).shape == (0, 3)

    @pytest.mark.parametrize("threshold", [-200.0, -65.0, 0.0])
    def test_dark_points_bit_equal_to_lattice_mask(self, grid, threshold):
        # -200: empty mask, -65: partial, 0: full.
        rem = self._map(grid, seed=4)
        mask = (rem.best_rss_field() < threshold).ravel()
        expected = grid.points()[mask]
        dark = rem.dark_points(threshold)
        assert dark.dtype == expected.dtype and dark.shape == expected.shape
        assert dark.tobytes() == expected.tobytes()

    def test_coverage_by_mac_with_rows_out_of_vocabulary_order(self, grid):
        rng = np.random.default_rng(7)
        fields = rng.uniform(-90.0, -40.0, (3,) + grid.shape)
        ordered = RadioEnvironmentMap(grid, ["m1", "m2", "m3"])
        ordered.set_fields(["m1", "m2", "m3"], fields)
        shuffled = RadioEnvironmentMap(grid, ["m1", "m2", "m3"])
        shuffled.set_fields(["m3", "m1", "m2"], fields[[2, 0, 1]])
        assert not shuffled._all_rows()[0]
        for threshold in (-80.0, -65.0, -50.0):
            report = shuffled.coverage_by_mac(threshold)
            assert report == ordered.coverage_by_mac(threshold)
            assert list(report) == ["m1", "m2", "m3"]
            for mac in report:
                assert report[mac] == shuffled.coverage_fraction(mac, threshold)


class TestBuildRem:
    def test_build_from_knn(self, rng):
        positions = rng.uniform(0, 2, size=(120, 3))
        rssi = -60.0 - 8.0 * positions[:, 0]
        data = dataset_from_arrays(positions, np.zeros(120, dtype=int), rssi)
        model = KnnRegressor(n_neighbors=4).fit(data)
        volume = Cuboid((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        rem = build_rem(model, data, volume, resolution_m=0.5)
        assert rem.macs == data.mac_vocabulary
        # The REM must reflect the trend: weaker toward +x.
        strong = rem.query((0.1, 1.0, 1.0), data.mac_vocabulary[0])
        weak = rem.query((1.9, 1.0, 1.0), data.mac_vocabulary[0])
        assert strong > weak

    def test_mac_subset(self, rng):
        positions = rng.uniform(0, 2, size=(40, 3))
        data = dataset_from_arrays(
            positions, np.zeros(40, dtype=int), np.full(40, -70.0)
        )
        model = KnnRegressor(n_neighbors=2).fit(data)
        volume = Cuboid((0, 0, 0), (2, 2, 2))
        rem = build_rem(model, data, volume, resolution_m=1.0, macs=data.mac_vocabulary)
        assert len(rem.macs) == 1

    def test_unknown_mac_rejected(self, rng):
        positions = rng.uniform(0, 2, size=(10, 3))
        data = dataset_from_arrays(positions, np.zeros(10, dtype=int), np.zeros(10))
        model = KnnRegressor(n_neighbors=2).fit(data)
        with pytest.raises(KeyError):
            build_rem(model, data, Cuboid((0, 0, 0), (1, 1, 1)), macs=["zz"])
