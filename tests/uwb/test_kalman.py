"""Unit tests for the position/velocity EKF."""

import numpy as np
import pytest

from repro.uwb import EkfConfig, PositionVelocityEkf
from tests.oracles import reference_update_tdoa


class TestPredict:
    def test_position_propagates_with_velocity(self):
        ekf = PositionVelocityEkf((0, 0, 0), initial_velocity=(1.0, 0.0, 0.0))
        ekf.predict(2.0)
        assert np.allclose(ekf.position, [2.0, 0.0, 0.0])

    def test_uncertainty_grows(self):
        ekf = PositionVelocityEkf((0, 0, 0))
        before = np.trace(ekf.P)
        ekf.predict(1.0)
        assert np.trace(ekf.P) > before

    def test_zero_dt_noop(self):
        ekf = PositionVelocityEkf((1, 2, 3))
        p_before = ekf.P.copy()
        ekf.predict(0.0)
        assert np.allclose(ekf.P, p_before)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            PositionVelocityEkf((0, 0, 0)).predict(-0.1)


class TestRangeUpdate:
    def test_update_reduces_uncertainty(self):
        ekf = PositionVelocityEkf((0.5, 0.5, 0.5))
        before = np.trace(ekf.P[:3, :3])
        accepted = ekf.update_range((0.0, 0.0, 0.0), 0.9, sigma_m=0.1)
        assert accepted
        assert np.trace(ekf.P[:3, :3]) < before

    def test_converges_to_true_position(self, rng):
        anchors = np.array(
            [[0, 0, 0], [4, 0, 0], [0, 3, 0], [0, 0, 2], [4, 3, 2], [4, 0, 2]],
            dtype=float,
        )
        truth = np.array([1.5, 1.0, 1.0])
        ekf = PositionVelocityEkf((0.1, 0.1, 0.1))
        for _ in range(120):
            ekf.predict(0.02)
            for anchor in anchors:
                measured = np.linalg.norm(truth - anchor) + rng.normal(0, 0.05)
                ekf.update_range(anchor, measured, sigma_m=0.05)
        assert np.linalg.norm(ekf.position - truth) < 0.08

    def test_gate_rejects_gross_outlier(self):
        config = EkfConfig(gate_sigma=3.0)
        ekf = PositionVelocityEkf((1.0, 1.0, 1.0), config)
        # Converge tightly first.
        for _ in range(50):
            ekf.predict(0.02)
            ekf.update_range((0, 0, 0), np.sqrt(3.0), sigma_m=0.02)
        rejected_before = ekf.rejected_updates
        accepted = ekf.update_range((0, 0, 0), 50.0, sigma_m=0.02)
        assert not accepted
        assert ekf.rejected_updates == rejected_before + 1

    def test_covariance_stays_symmetric_psd(self, rng):
        ekf = PositionVelocityEkf((0, 0, 0))
        for _ in range(200):
            ekf.predict(0.05)
            anchor = rng.uniform(-3, 3, size=3)
            measured = max(float(rng.normal(3.0, 0.5)), 0.1)
            ekf.update_range(anchor, measured, sigma_m=0.1)
            assert np.allclose(ekf.P, ekf.P.T, atol=1e-10)
            eigenvalues = np.linalg.eigvalsh(ekf.P)
            assert eigenvalues.min() > -1e-9


class TestTdoaUpdate:
    def test_accepts_consistent_measurement(self):
        ekf = PositionVelocityEkf((1.0, 1.0, 1.0))
        a, b = (0.0, 0.0, 0.0), (4.0, 0.0, 0.0)
        truth = np.array([1.0, 1.0, 1.0])
        diff = np.linalg.norm(truth - np.array(b)) - np.linalg.norm(truth - np.array(a))
        assert reference_update_tdoa(ekf, a, b, diff, sigma_m=0.2)

    def test_converges_with_tdoa_only(self, rng):
        anchors = np.array(
            [
                [0, 0, 0],
                [4, 0, 0],
                [0, 3, 0],
                [0, 0, 2],
                [4, 3, 2],
                [4, 0, 2],
                [0, 3, 2],
                [4, 3, 0],
            ],
            dtype=float,
        )
        truth = np.array([2.0, 1.5, 1.0])
        ekf = PositionVelocityEkf((1.8, 1.4, 0.9))
        for _ in range(200):
            ekf.predict(0.04)
            for a, b in zip(anchors, np.roll(anchors, -1, axis=0)):
                diff = (
                    np.linalg.norm(truth - b)
                    - np.linalg.norm(truth - a)
                    + rng.normal(0, 0.1)
                )
                reference_update_tdoa(ekf, a, b, diff, sigma_m=0.1)
        assert np.linalg.norm(ekf.position - truth) < 0.12

    def test_position_std_shrinks_with_updates(self, rng):
        ekf = PositionVelocityEkf((2.0, 1.5, 1.0))
        std_before = ekf.position_std().mean()
        for _ in range(50):
            ekf.predict(0.04)
            ekf.update_range((0, 0, 0), 2.7, sigma_m=0.1)
            ekf.update_range((4, 3, 2), 2.5, sigma_m=0.1)
            ekf.update_range((4, 0, 0), 2.7, sigma_m=0.1)
            ekf.update_range((0, 3, 2), 2.5, sigma_m=0.1)
        assert ekf.position_std().mean() < std_before
