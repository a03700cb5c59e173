"""Batched TDoA ingestion: ranging arrays and the joint EKF update."""

import numpy as np
import pytest

from repro.radio.geometry import Cuboid
from repro.uwb import PositionVelocityEkf, kalman
from repro.uwb.anchors import corner_layout
from repro.uwb.kalman import EkfConfig
from repro.uwb.localization import WINDOW_S, PositionEstimator
from repro.uwb.ranging import RangingConfig, TdoaRanging
from tests.oracles import (
    ReferenceTdoaFilter,
    reference_block_noise,
    reference_burst,
    reference_measure_all,
    reference_update_tdoa,
)


def clean_config(**kwargs):
    defaults = dict(nlos_probability=0.0)
    defaults.update(kwargs)
    return RangingConfig(**defaults)


@pytest.fixture()
def layout():
    return corner_layout(Cuboid((0.0, 0.0, 0.0), (3.74, 3.20, 2.10)))


class TestMeasureStacked:
    def test_matches_measure_all(self, layout):
        tdoa = TdoaRanging(layout, RangingConfig(nlos_probability=0.5))
        position = (1.5, 1.2, 1.0)
        stacked, diffs = tdoa.measure_stacked(position, np.random.default_rng(7))
        records = reference_measure_all(tdoa, position, np.random.default_rng(7))
        m = len(records)
        assert len(diffs) == m
        assert stacked.shape == (2 * m, 3)
        for i, record in enumerate(records):
            assert np.array_equal(stacked[i], record.anchor_a.position)
            assert np.array_equal(stacked[m + i], record.anchor_b.position)
            assert diffs[i] == record.difference_m

    def test_out_of_range_returns_empty(self, layout):
        tdoa = TdoaRanging(layout, clean_config(max_range_m=1.0))
        stacked, diffs = tdoa.measure_stacked(
            (100.0, 100.0, 100.0), np.random.default_rng(0)
        )
        assert len(diffs) == 0
        assert stacked.shape == (0, 3)

    def test_partial_visibility_pairs_wrap_around(self, layout):
        # A corner position with a short range keeps only nearby anchors.
        tdoa = TdoaRanging(layout, clean_config(max_range_m=4.0))
        stacked, diffs = tdoa.measure_stacked(
            (0.2, 0.2, 0.2), np.random.default_rng(3)
        )
        m = len(diffs)
        assert 2 <= m < len(layout)
        # b-side rows are the a-side rows rotated by one (wrap-around).
        assert np.allclose(stacked[m:-1], stacked[1:m])
        assert np.allclose(stacked[-1], stacked[0])


class TestJointTdoaUpdate:
    def test_single_row_matches_scalar_update(self, layout):
        a, b = (0.0, 0.0, 0.0), (3.74, 3.20, 2.10)
        joint = PositionVelocityEkf((1.0, 1.5, 1.0))
        scalar = PositionVelocityEkf((1.0, 1.5, 1.0))
        accepted = joint.update_tdoa_stacked(np.array([a, b]), np.array([0.4]), 0.2)
        assert accepted == 1
        assert reference_update_tdoa(scalar, a, b, 0.4, 0.2)
        np.testing.assert_allclose(joint.x, scalar.x, atol=1e-12)
        np.testing.assert_allclose(joint.P, scalar.P, atol=1e-12)

    def test_burst_reduces_uncertainty_and_counts(self, layout):
        tdoa = TdoaRanging(layout, clean_config())
        ekf = PositionVelocityEkf((1.8, 1.6, 1.0))
        rng = np.random.default_rng(11)
        before = float(np.trace(ekf.P[:3, :3]))
        stacked, diffs = tdoa.measure_stacked((1.8, 1.6, 1.0), rng)
        accepted = ekf.update_tdoa_stacked(stacked, diffs, 0.18)
        assert accepted == len(diffs)
        assert ekf.accepted_updates == accepted
        assert float(np.trace(ekf.P[:3, :3])) < before

    def test_outlier_rows_are_gated(self, layout):
        tdoa = TdoaRanging(layout, clean_config())
        ekf = PositionVelocityEkf((1.8, 1.6, 1.0))
        stacked, diffs = tdoa.measure_stacked(
            (1.8, 1.6, 1.0), np.random.default_rng(2)
        )
        diffs = diffs.copy()
        diffs[0] += 50.0  # an impossible range difference
        accepted = ekf.update_tdoa_stacked(stacked, diffs, 0.18)
        assert accepted == len(diffs) - 1
        assert ekf.rejected_updates == 1

    def test_empty_burst_is_a_noop(self):
        ekf = PositionVelocityEkf((1.0, 1.0, 1.0))
        x_before = ekf.x.copy()
        assert ekf.update_tdoa_stacked(np.zeros((0, 3)), np.zeros(0), 0.2) == 0
        np.testing.assert_array_equal(ekf.x, x_before)

    def test_filter_converges_on_static_tag(self, layout):
        tdoa = TdoaRanging(layout, clean_config())
        truth = np.array([2.0, 1.0, 1.2])
        ekf = PositionVelocityEkf((1.0, 2.0, 0.5))
        rng = np.random.default_rng(5)
        for _ in range(200):
            ekf.predict(0.04)
            stacked, diffs = tdoa.measure_stacked(truth, rng)
            ekf.update_tdoa_stacked(stacked, diffs, 0.18)
        assert np.linalg.norm(ekf.position - truth) < 0.12

    def test_covariance_stays_psd_over_long_run(self, layout):
        """The joint downdate must not erode PSD-ness under roundoff."""
        tdoa = TdoaRanging(layout, RangingConfig())  # NLoS outliers on
        ekf = PositionVelocityEkf((1.8, 1.6, 1.0))
        rng = np.random.default_rng(17)
        for step in range(2000):
            ekf.predict(0.04)
            stacked, diffs = tdoa.measure_stacked((1.8, 1.6, 1.0), rng)
            ekf.update_tdoa_stacked(stacked, diffs, 0.18)
            if step % 100 == 0:
                assert np.allclose(ekf.P, ekf.P.T, atol=1e-12)
                assert np.linalg.eigvalsh(ekf.P).min() > -1e-9


class TestLeanTick:
    """``PositionEstimator.step`` ≡ the allocating tick, one burst a read."""

    def run_both(self, layout, ranging, path, seed, start=None):
        start = path[0] if start is None else start
        lean = PositionEstimator(layout, ranging_config=ranging, initial_position=start)
        reference = ReferenceTdoaFilter(layout, ranging, EkfConfig(), start)
        lean_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        for position in path:
            lean.step(0.04, position, lean_rng)
            reference.record(0.04, position)
            reference.read(reference_rng, WINDOW_S)
            assert np.array_equal(lean.ekf.x, reference.x)
            assert np.array_equal(lean.ekf.P, reference.P)
        assert reference.resets == 0
        assert lean.ekf.accepted_updates == reference.accepted
        assert lean.ekf.rejected_updates == reference.rejected
        assert lean_rng.random() == reference_rng.random()
        return reference

    @staticmethod
    def sweep(n, low, high):
        """A Lissajous path through the room, corners included."""
        t = np.linspace(0.0, 1.0, n)[:, None]
        phase = np.array([7.0, 5.0, 3.0]) * 2 * np.pi * t
        return low + (high - low) * (0.5 + 0.5 * np.sin(phase))

    def test_nlos_gate_rejections(self, layout):
        ranging = RangingConfig(nlos_probability=0.3, nlos_bias_max_m=2.0)
        path = self.sweep(2500, np.array([0.3, 0.3, 0.3]), np.array([3.4, 2.9, 1.8]))
        reference = self.run_both(layout, ranging, path, seed=3)
        assert reference.rejected > 100
        assert set(reference.bursts) == {len(layout)}

    def test_partial_visibility(self, layout):
        ranging = RangingConfig(max_range_m=3.6)
        path = self.sweep(2500, np.array([-1.0, -1.0, 0.0]), np.array([4.7, 4.2, 2.1]))
        reference = self.run_both(layout, ranging, path, seed=4)
        sizes = set(reference.bursts)
        assert len(layout) in sizes
        assert len(sizes - {0, len(layout)}) >= 2

    def test_tag_at_an_anchor(self, layout):
        anchor = np.array(layout.positions[0])
        path = np.repeat(anchor[None, :], 200, axis=0)
        self.run_both(layout, RangingConfig(), path, seed=5, start=anchor)

    @pytest.mark.parametrize("mode", ["tdoa", "twr"])
    def test_zero_sigma_is_rejected(self, layout, mode):
        ranging = RangingConfig(tdoa_sigma_m=0.0, twr_sigma_m=0.0)
        with pytest.raises(ValueError, match=f"{mode}_sigma_m must be > 0"):
            PositionEstimator(layout, mode=mode, ranging_config=ranging)


class TestCatchUp:
    """A read ≡ the plain filter run over that read's window of ticks."""

    def run_both(self, layout, ranging, path, seed, start=None):
        start = path[0] if start is None else start
        estimator = PositionEstimator(
            layout, ranging_config=ranging, initial_position=start
        )
        reference = ReferenceTdoaFilter(layout, ranging, EkfConfig(), start)
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        reads = np.random.default_rng(seed + 1000).random(len(path)) < 0.03
        assert 10 < reads.sum() < len(path) // 10
        for position, read in zip(path, reads):
            estimator.record(0.04, position, rng)
            reference.record(0.04, position)
            if read:
                expected = reference.read(reference_rng, WINDOW_S)
                assert np.array_equal(estimator.position, expected)
                assert np.array_equal(estimator.ekf.x, reference.x)
                assert np.array_equal(estimator.ekf.P, reference.P)
        expected = reference.read(reference_rng, WINDOW_S)
        assert estimator.error_m(path[-1]) == np.linalg.norm(expected - path[-1])
        assert np.array_equal(estimator.ekf.P, reference.P)
        assert estimator.ekf.accepted_updates == reference.accepted
        assert estimator.ekf.rejected_updates == reference.rejected
        assert rng.random() == reference_rng.random()
        # Some reads restart from the reset and some continue the filter.
        assert 0 < reference.resets < reads.sum()
        assert len(reference.bursts) < len(path)
        return reference

    def test_nlos_gate_rejections(self, layout):
        ranging = RangingConfig(nlos_probability=0.3, nlos_bias_max_m=2.0)
        path = TestLeanTick.sweep(
            2500, np.array([0.3, 0.3, 0.3]), np.array([3.4, 2.9, 1.8])
        )
        reference = self.run_both(layout, ranging, path, seed=3)
        assert reference.rejected > 100

    def test_partial_visibility(self, layout):
        ranging = RangingConfig(max_range_m=3.6)
        path = TestLeanTick.sweep(
            2500, np.array([-1.0, -1.0, 0.0]), np.array([4.7, 4.2, 2.1])
        )
        reference = self.run_both(layout, ranging, path, seed=4)
        assert len(set(reference.bursts) - {0, len(layout)}) >= 2

    def test_tag_at_an_anchor(self, layout):
        anchor = np.array(layout.positions[0])
        path = np.repeat(anchor[None, :], 600, axis=0)
        self.run_both(layout, RangingConfig(), path, seed=5, start=anchor)

    def test_a_read_filters_only_its_window(self, layout):
        estimator = PositionEstimator(layout, initial_position=(1.0, 1.0, 1.0))
        rng = np.random.default_rng(0)
        for _ in range(200):
            estimator.record(0.04, (1.2, 1.1, 1.0), rng)
        estimator.ekf.x[3:] = 5.0  # a velocity the reset must clear
        estimator.position
        assert estimator.ekf.accepted_updates == 50 * len(layout)
        # 50 bursts in one block of draws: the older ticks drew nothing.
        reference = np.random.default_rng(0)
        reference_block_noise(estimator.ranging_config, 50, len(layout), reference)
        assert rng.random() == reference.random()
        assert np.abs(estimator.ekf.velocity).max() < 1.0

    def test_record_copies_the_position(self, layout):
        moved = PositionEstimator(layout, initial_position=(1.0, 1.0, 1.0))
        fixed = PositionEstimator(layout, initial_position=(1.0, 1.0, 1.0))
        truth = np.array([1.2, 1.1, 1.0])
        rng, fixed_rng = np.random.default_rng(0), np.random.default_rng(0)
        moved.record(0.04, truth, rng)
        fixed.record(0.04, truth.copy(), fixed_rng)
        truth[:] = 0.0  # a caller reusing its buffer
        assert np.array_equal(moved.position, fixed.position)

    def test_unread_ticks_stay_pending(self, layout):
        estimator = PositionEstimator(layout, initial_position=(1.0, 1.0, 1.0))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for _ in range(200):  # past the trace's first capacity
            estimator.record(0.04, (1.2, 1.1, 1.0), rng)
        assert rng.bit_generator.state == state
        assert estimator.ekf.accepted_updates == 0
        estimator.position
        assert rng.bit_generator.state != state
        assert estimator.ekf.accepted_updates > 0

    def test_a_second_stream_while_pending_raises(self, layout):
        estimator = PositionEstimator(layout, initial_position=(1.0, 1.0, 1.0))
        rng = np.random.default_rng(0)
        estimator.record(0.04, (1.2, 1.1, 1.0), rng)
        with pytest.raises(ValueError, match="different rng"):
            estimator.record(0.04, (1.2, 1.1, 1.0), np.random.default_rng(0))
        estimator.position  # the pending tick runs; a new stream is fine now
        estimator.record(0.04, (1.2, 1.1, 1.0), np.random.default_rng(1))

    def test_a_tick_error_surfaces_at_the_read(self, layout, monkeypatch):
        # S made exactly singular on every LAPACK kernel: the solve sees
        # a zero matrix, whose first pivot is zero.
        solve = kalman._solve
        monkeypatch.setattr(kalman, "_solve", lambda a, b: solve(0.0 * a, b))
        estimator = PositionEstimator(layout, initial_position=(1.0, 1.0, 1.0))
        rng = np.random.default_rng(0)
        estimator.record(0.04, (1.2, 1.1, 1.0), rng)
        estimator.record(0.04, (1.2, 1.1, 1.0), rng)
        with pytest.raises(np.linalg.LinAlgError):
            estimator.position
        # The error dropped the rest of the block; later reads work.
        monkeypatch.setattr(kalman, "_solve", solve)
        assert estimator.ekf.accepted_updates == 0
        estimator.record(0.04, (1.2, 1.1, 1.0), rng)
        estimator.position
        assert estimator.ekf.accepted_updates == len(layout)


class TestMeasureBlock:
    """A block ``measure_stacked`` ≡ the block draw contract, burst by burst."""

    @staticmethod
    def assert_block_matches_reference(tdoa, positions, seed):
        block_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        stacked, diffs = tdoa.measure_stacked(positions, block_rng)
        assert len(stacked) == len(diffs) == len(positions)
        anchors = np.array(tdoa.layout.positions)
        biases, noise = reference_block_noise(
            tdoa.config, len(positions), len(anchors), reference_rng
        )
        sizes = set()
        for i, position in enumerate(positions):
            pairs, row_diffs, _ = reference_burst(
                anchors, tdoa.config, position, biases[i], noise[i]
            )
            assert np.array_equal(stacked[i], pairs)
            assert np.array_equal(diffs[i], row_diffs)
            sizes.add(len(row_diffs))
        assert block_rng.bit_generator.state == reference_rng.bit_generator.state
        return sizes

    def test_whole_layout_with_nlos_hits(self, layout):
        tdoa = TdoaRanging(layout, RangingConfig(nlos_probability=0.5))
        positions = np.random.default_rng(1).uniform(
            (0.2, 0.2, 0.2), (3.5, 3.0, 1.9), size=(40, 3)
        )
        stacked, diffs = tdoa.measure_stacked(positions, np.random.default_rng(2))
        assert diffs.shape == (40, len(layout))
        sizes = self.assert_block_matches_reference(tdoa, positions, seed=2)
        assert sizes == {len(layout)}

    def test_one_row_block(self, layout):
        tdoa = TdoaRanging(layout, RangingConfig(nlos_probability=0.5))
        positions = np.array([[1.5, 1.2, 1.0]])
        self.assert_block_matches_reference(tdoa, positions, seed=3)
        _, block = tdoa.measure_stacked(positions, np.random.default_rng(3))
        _, one = tdoa.measure_stacked(positions[0], np.random.default_rng(3))
        assert np.array_equal(block[0], one)

    def test_partially_visible_rows(self, layout):
        tdoa = TdoaRanging(layout, RangingConfig(max_range_m=3.6))
        positions = np.random.default_rng(4).uniform(
            (-1.0, -1.0, 0.0), (4.7, 4.2, 2.1), size=(60, 3)
        )
        sizes = self.assert_block_matches_reference(tdoa, positions, seed=5)
        assert len(layout) in sizes and len(sizes) >= 3

    def test_one_position_keeps_its_shapes(self, layout):
        tdoa = TdoaRanging(layout, RangingConfig())
        stacked, diffs = tdoa.measure_stacked((1.5, 1.2, 1.0), np.random.default_rng(0))
        assert stacked.shape == (2 * len(layout), 3)
        assert diffs.shape == (len(layout),)
