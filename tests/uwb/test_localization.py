"""Unit tests for the position estimator and accuracy harness."""

import numpy as np
import pytest

from repro.radio import Cuboid
from repro.uwb import (
    LocalizationMode,
    PositionEstimator,
    RangingConfig,
    corner_layout,
    evaluate_hovering_accuracy,
)


@pytest.fixture()
def layout():
    return corner_layout(Cuboid((0.0, 0.0, 0.0), (3.74, 3.20, 2.10)))


class TestPositionEstimator:
    def test_invalid_mode_rejected(self, layout):
        with pytest.raises(ValueError):
            PositionEstimator(layout, mode="gps")

    def test_tracks_hovering_tag(self, layout, rng):
        estimator = PositionEstimator(
            layout,
            mode=LocalizationMode.TDOA,
            initial_position=(1.87, 1.6, 1.0),
            ranging_config=RangingConfig(nlos_probability=0.0),
        )
        truth = np.array([1.87, 1.6, 1.0])
        dt = 1.0 / estimator.update_rate_hz
        for _ in range(100):
            estimator.step(dt, truth, rng)
        assert estimator.error_m(truth) < 0.15

    def test_tracks_moving_tag(self, layout, rng):
        estimator = PositionEstimator(
            layout,
            mode=LocalizationMode.TWR,
            initial_position=(0.5, 0.5, 0.5),
            ranging_config=RangingConfig(nlos_probability=0.0),
        )
        dt = 1.0 / estimator.update_rate_hz
        position = np.array([0.5, 0.5, 0.5])
        for _ in range(200):
            position = position + np.array([0.01, 0.005, 0.002])
            estimator.step(dt, position, rng)
        assert estimator.error_m(position) < 0.25


class TestHoveringAccuracy:
    def test_paper_level_accuracy_with_six_anchors(self, layout, rng):
        result = evaluate_hovering_accuracy(
            layout.subset(6), LocalizationMode.TWR, (1.87, 1.6, 1.0), rng
        )
        # §II-B: ~9 cm hovering accuracy with 6 anchors.
        assert 0.03 < result.mean_error_m < 0.15

    def test_more_anchors_do_not_hurt(self, layout, rng):
        four = evaluate_hovering_accuracy(
            layout.subset(4), LocalizationMode.TWR, (1.87, 1.6, 1.0), rng,
            duration_s=15.0,
        )
        eight = evaluate_hovering_accuracy(
            layout, LocalizationMode.TWR, (1.87, 1.6, 1.0), rng, duration_s=15.0
        )
        assert eight.mean_error_m <= four.mean_error_m * 1.25

    def test_result_fields(self, layout, rng):
        result = evaluate_hovering_accuracy(
            layout, LocalizationMode.TDOA, (1.0, 1.0, 1.0), rng, duration_s=5.0
        )
        assert result.anchor_count == 8
        assert result.mode == LocalizationMode.TDOA
        assert result.rmse_m >= result.mean_error_m * 0.8
        assert result.p95_error_m >= result.mean_error_m


class TestHoveringWindow:
    @pytest.mark.parametrize(
        "duration_s, settle_s", [(2.0, 3.0), (3.0, 3.0), (0.0, 0.0), (5.0, -1.0)]
    )
    def test_window_without_settled_ticks_rejected(self, layout, duration_s, settle_s):
        with pytest.raises(ValueError, match="settle_s"):
            evaluate_hovering_accuracy(
                layout,
                LocalizationMode.TDOA,
                (1.0, 1.0, 1.0),
                np.random.default_rng(0),
                duration_s=duration_s,
                settle_s=settle_s,
            )

    def test_zero_settle_counts_every_tick(self, layout):
        result = evaluate_hovering_accuracy(
            layout,
            LocalizationMode.TDOA,
            (1.0, 1.0, 1.0),
            np.random.default_rng(0),
            duration_s=1.0,
            settle_s=0.0,
        )
        assert np.isfinite(result.mean_error_m)
