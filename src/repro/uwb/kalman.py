"""Extended Kalman filter for UAV state estimation from UWB + IMU.

The Crazyflie fuses UWB measurements with its IMU in an EKF whose
implementation follows Mueller et al., "Fusing ultra-wideband range
measurements with accelerometers and rate gyroscopes for quadrocopter
state estimation" (ICRA 2015) — the reference the paper cites for the
on-board estimator.

This module implements the position/velocity core of that filter:

* state ``x = [px, py, pz, vx, vy, vz]``;
* constant-velocity process model driven by white acceleration noise
  (the IMU's role is reduced to setting that noise level — the full
  attitude filter is out of scope and does not affect REM annotation);
* nonlinear range (TWR) and range-difference (TDoA) updates with
  analytic Jacobians, Joseph-form covariance updates and innovation
  gating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["EkfConfig", "PositionVelocityEkf"]


@dataclass(frozen=True)
class EkfConfig:
    """Filter tuning.

    ``accel_noise_std`` is the white-acceleration process noise: larger
    values track aggressive flight at the cost of hovering jitter.
    ``gate_sigma`` rejects innovations beyond that many standard
    deviations (NLoS outlier protection).
    """

    accel_noise_std: float = 0.8
    initial_position_std: float = 1.0
    initial_velocity_std: float = 0.5
    gate_sigma: float = 4.0


class PositionVelocityEkf:
    """EKF over [position, velocity] with UWB range-type updates."""

    STATE_DIM = 6

    def __init__(
        self,
        initial_position: Sequence[float],
        config: Optional[EkfConfig] = None,
        initial_velocity: Optional[Sequence[float]] = None,
    ):
        self.config = config or EkfConfig()
        self.x = np.zeros(self.STATE_DIM)
        self.x[:3] = np.asarray(initial_position, dtype=float)
        if initial_velocity is not None:
            self.x[3:] = np.asarray(initial_velocity, dtype=float)
        p0 = self.config.initial_position_std**2
        v0 = self.config.initial_velocity_std**2
        self.P = np.diag([p0, p0, p0, v0, v0, v0])
        self.rejected_updates = 0
        self.accepted_updates = 0
        # The control loop calls predict() at a fixed rate, so the
        # process matrices are almost always reusable.
        self._last_dt: Optional[float] = None
        self._F = np.eye(self.STATE_DIM)
        self._Q = np.zeros((self.STATE_DIM, self.STATE_DIM))

    # ------------------------------------------------------------------
    @property
    def position(self) -> np.ndarray:
        """Current position estimate."""
        return self.x[:3].copy()

    @property
    def velocity(self) -> np.ndarray:
        """Current velocity estimate."""
        return self.x[3:].copy()

    def position_std(self) -> np.ndarray:
        """Per-axis position standard deviation."""
        return np.sqrt(np.clip(np.diag(self.P)[:3], 0.0, None))

    # ------------------------------------------------------------------
    def predict(self, dt: float) -> None:
        """Propagate the constant-velocity model by ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        if dt == 0:
            return
        if dt != self._last_dt:
            F = self._F
            F[0, 3] = F[1, 4] = F[2, 5] = dt
            q = self.config.accel_noise_std**2
            dt2, dt3, dt4 = dt * dt, dt**3, dt**4
            Q = self._Q
            for i in range(3):
                Q[i, i] = q * dt4 / 4.0
                Q[i, i + 3] = Q[i + 3, i] = q * dt3 / 2.0
                Q[i + 3, i + 3] = q * dt2
            self._last_dt = dt
        self.x = self._F @ self.x
        self.P = self._F @ self.P @ self._F.T + self._Q
        self._symmetrize()

    # ------------------------------------------------------------------
    def update_range(
        self, anchor_position: Sequence[float], measured_range_m: float, sigma_m: float
    ) -> bool:
        """TWR update: ``z = |p - anchor| + noise``.

        Returns True if the measurement passed the innovation gate.
        """
        x = self.x
        dx, dy, dz = (
            x[0] - anchor_position[0],
            x[1] - anchor_position[1],
            x[2] - anchor_position[2],
        )
        predicted = math.sqrt(dx * dx + dy * dy + dz * dz)
        if predicted < 1e-6:
            return False
        h = np.array([dx, dy, dz]) / predicted
        return self._scalar_update(measured_range_m - predicted, h, sigma_m**2)

    def update_tdoa(
        self,
        anchor_a: Sequence[float],
        anchor_b: Sequence[float],
        measured_difference_m: float,
        sigma_m: float,
    ) -> bool:
        """TDoA update: ``z = |p - b| - |p - a| + noise``."""
        x = self.x
        dax, day, daz = x[0] - anchor_a[0], x[1] - anchor_a[1], x[2] - anchor_a[2]
        dbx, dby, dbz = x[0] - anchor_b[0], x[1] - anchor_b[1], x[2] - anchor_b[2]
        norm_a = math.sqrt(dax * dax + day * day + daz * daz)
        norm_b = math.sqrt(dbx * dbx + dby * dby + dbz * dbz)
        if norm_a < 1e-6 or norm_b < 1e-6:
            return False
        predicted = norm_b - norm_a
        h = np.array(
            [
                dbx / norm_b - dax / norm_a,
                dby / norm_b - day / norm_a,
                dbz / norm_b - daz / norm_a,
            ]
        )
        return self._scalar_update(measured_difference_m - predicted, h, sigma_m**2)

    def update_tdoa_batch(
        self,
        anchors_a: np.ndarray,
        anchors_b: np.ndarray,
        measured_differences_m: np.ndarray,
        sigma_m: float,
    ) -> int:
        """Ingest one TDoA packet burst as a joint vector measurement.

        The burst's rows share one timestamp, so they are fused as a
        single m-dimensional linear-Gaussian update (``R = sigma^2 I``)
        linearized at the pre-burst estimate — the textbook batch
        measurement update, equivalent to iterating scalar updates
        *without* per-row relinearization and exact for simultaneous
        measurements.  Each row is still innovation-gated individually
        against its marginal variance before the joint solve, matching
        :meth:`update_tdoa`'s NLoS protection.  One small linear solve
        replaces ~m scalar Joseph updates — the difference between the
        flight simulation being EKF-bound or not.

        Returns how many rows passed the gate.
        """
        a = np.asarray(anchors_a, dtype=float).reshape(-1, 3)
        b = np.asarray(anchors_b, dtype=float).reshape(-1, 3)
        z = np.asarray(measured_differences_m, dtype=float).reshape(-1)
        if not len(z):
            return 0
        return self.update_tdoa_stacked(np.concatenate([a, b]), z, sigma_m)

    def update_tdoa_stacked(
        self,
        stacked_anchors: np.ndarray,
        measured_differences_m: np.ndarray,
        sigma_m: float,
    ) -> int:
        """:meth:`update_tdoa_batch` over pre-stacked pair anchors.

        ``stacked_anchors`` is ``(2m, 3)`` — a-side rows first, then the
        matching b-side rows — the zero-copy layout
        :meth:`~repro.uwb.ranging.TdoaRanging.measure_stacked` serves
        from its cache on the flight-control hot path.
        """
        z = measured_differences_m
        m = len(z)
        if not m:
            return 0
        p = self.x[:3]
        # Distances and unit directions to both pair anchors in one
        # stacked pass (rows 0..m-1 are the a-side, m.. the b-side).
        delta = p - stacked_anchors
        norms = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        if norms.min() < 1e-6:
            usable = (norms[:m] >= 1e-6) & (norms[m:] >= 1e-6)
            keep = np.concatenate([usable, usable])
            delta, norms = delta[keep], norms[keep]
            z = z[usable]
            m = len(z)
            if not m:
                return 0
        unit = delta / norms[:, None]
        h = unit[m:] - unit[:m]  # (m, 3)
        innovation = z - (norms[m:] - norms[:m])
        r_var = sigma_m * sigma_m
        pht = self.P[:, :3] @ h.T  # (6, m)
        S = h @ pht[:3]
        S.flat[:: m + 1] += r_var
        # Marginal gate per row: nu_i^2 <= gate^2 S_ii.
        passed = innovation * innovation <= (self.config.gate_sigma**2) * S.flat[
            :: m + 1
        ]
        accepted = int(passed.sum())
        if accepted < m:
            self.rejected_updates += m - accepted
            if not accepted:
                return 0
            h = h[passed]
            pht = pht[:, passed]
            innovation = innovation[passed]
            S = S[np.ix_(passed, passed)]
        # K = P H^T S^-1 applied without forming K: one solve covers
        # both the weighted innovations (first column) and the
        # covariance correction (the rest).  The downdate form is safe
        # here: S carries the full r_var I regularization, the result
        # is re-symmetrized, and every predict() re-inflates P with Q
        # — a long-run PSD test guards this path.
        rhs = np.empty((accepted, 7))
        rhs[:, 0] = innovation
        rhs[:, 1:] = pht.T
        solved = np.linalg.solve(S, rhs)
        self.x += pht @ solved[:, 0]
        self.P -= pht @ solved[:, 1:]
        self._symmetrize()
        self.accepted_updates += accepted
        return accepted

    # ------------------------------------------------------------------
    def _scalar_update(self, innovation: float, h: np.ndarray, r_var: float) -> bool:
        """One scalar measurement with position-only Jacobian ``h`` (3,).

        Every supported measurement model has zero velocity rows, which
        collapses the textbook ``(1, 6)`` matrix update to vector and
        outer-product arithmetic.  The covariance keeps the Joseph
        form, expanded for a scalar measurement as ``P - K(PH^T)^T -
        (PH^T)K^T + S KK^T + ...``: it costs a couple of extra outer
        products but stays positive semi-definite under roundoff,
        which matters for the long sequential TWR runs that
        still use this path (TDoA bursts go through the joint
        :meth:`update_tdoa_stacked`).
        """
        pht = self.P[:, :3] @ h  # P H^T, (6,)
        S = float(h[0] * pht[0] + h[1] * pht[1] + h[2] * pht[2]) + r_var
        if S <= 0:
            return False
        if innovation * innovation > (self.config.gate_sigma**2) * S:
            self.rejected_updates += 1
            return False
        K = pht * (1.0 / S)
        self.x += K * innovation
        ikh = np.eye(self.STATE_DIM)
        ikh[:, :3] -= K[:, None] * h
        # Joseph form keeps P positive semi-definite under roundoff.
        self.P = ikh @ self.P @ ikh.T + (K[:, None] * K) * r_var
        self._symmetrize()
        self.accepted_updates += 1
        return True

    def _symmetrize(self) -> None:
        self.P = (self.P + self.P.T) / 2.0
