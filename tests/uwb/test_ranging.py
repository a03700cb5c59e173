"""Unit tests for TWR/TDoA measurement models."""

import numpy as np
import pytest

from repro.radio import Cuboid
from repro.uwb import RangingConfig, TdoaRanging, TwrRanging, corner_layout


@pytest.fixture()
def layout():
    return corner_layout(Cuboid((0.0, 0.0, 0.0), (4.0, 3.0, 2.0)))


def clean_config(**kwargs):
    defaults = dict(nlos_probability=0.0)
    defaults.update(kwargs)
    return RangingConfig(**defaults)


class TestTwr:
    def test_one_range_per_anchor(self, layout, rng):
        twr = TwrRanging(layout, clean_config())
        measurements = twr.measure_all((2.0, 1.5, 1.0), rng)
        assert len(measurements) == 8

    def test_range_noise_statistics(self, layout, rng):
        twr = TwrRanging(layout, clean_config(twr_sigma_m=0.1))
        position = np.array([2.0, 1.5, 1.0])
        errors = []
        for _ in range(300):
            for m in twr.measure_all(position, rng):
                truth = np.linalg.norm(m.anchor.position_array - position)
                errors.append(m.range_m - truth)
        errors = np.asarray(errors)
        assert abs(errors.mean()) < 0.01
        assert errors.std() == pytest.approx(0.1, rel=0.1)

    def test_nlos_bias_is_positive(self, layout, rng):
        twr = TwrRanging(
            layout,
            clean_config(nlos_probability=1.0, nlos_bias_max_m=0.3, twr_sigma_m=0.0),
        )
        position = np.array([2.0, 1.5, 1.0])
        for m in twr.measure_all(position, rng):
            truth = np.linalg.norm(m.anchor.position_array - position)
            assert m.range_m >= truth - 1e-9

    def test_out_of_range_anchors_skipped(self, layout, rng):
        twr = TwrRanging(layout, clean_config(max_range_m=0.5))
        assert twr.measure_all((100.0, 100.0, 100.0), rng) == []

    def test_rate(self, layout):
        assert TwrRanging(layout, clean_config(twr_cycle_hz=8.0)).rate_hz() == 8.0


class TestTdoa:
    def test_one_difference_per_anchor_pair(self, layout, rng):
        tdoa = TdoaRanging(layout, clean_config())
        stacked, diffs = tdoa.measure_stacked((2.0, 1.5, 1.0), rng)
        assert len(diffs) == 8  # consecutive pairs, wrap-around
        assert stacked.shape == (16, 3)

    def test_difference_statistics(self, layout, rng):
        tdoa = TdoaRanging(layout, clean_config(tdoa_sigma_m=0.18))
        position = np.array([1.0, 1.0, 1.0])
        stacked, diffs = tdoa.measure_stacked(np.tile(position, (300, 1)), rng)
        pairs = stacked[0]
        da = np.linalg.norm(pairs[:8] - position, axis=1)
        db = np.linalg.norm(pairs[8:] - position, axis=1)
        errors = diffs - (db - da)
        assert abs(errors.mean()) < 0.02
        assert errors.std() == pytest.approx(0.18, rel=0.1)

    def test_needs_two_anchors(self, layout, rng):
        tdoa = TdoaRanging(layout, clean_config(max_range_m=0.0))
        stacked, diffs = tdoa.measure_stacked((2.0, 1.5, 1.0), rng)
        assert len(diffs) == 0 and stacked.shape == (0, 3)
