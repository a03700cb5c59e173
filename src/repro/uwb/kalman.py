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

The filter owns its arithmetic buffers.  ``P`` is updated in place,
``predict`` swaps ``x`` with its scratch twin, and the TDoA burst
update works in scratch arrays kept per burst size, so the steady tick
(the same m anchors every burst) allocates nothing but the solve's
result.  The recursion runs one tick at a time;
:class:`~repro.uwb.localization.PositionEstimator` calls it for a whole
block of recorded ticks, inside :meth:`PositionVelocityEkf.tick_block`,
when its estimate is read.  Keep no reference to ``x`` or ``P`` across
calls: copy them, or read :attr:`position` / :attr:`velocity`, which
return copies.

The burst update solves ``S [K_nu | K_P] = [nu | P H^T]^T`` in one
call.  Its right-hand side is stored transposed, as one ``(7, m)``
buffer whose first row is the innovation and whose other rows are
``P H^T``: the arithmetic writes both straight into it, and the
solve reads its ``(m, 7)`` transpose.  LAPACK copies its operands into
its own column-major work arrays, so the operands' memory layout
cannot change a bit of the result.  The solve calls numpy's LAPACK
gufunc directly, under ``np.linalg.solve``'s error state, which skips
that function's per-call checks; a singular ``S`` still raises
``LinAlgError``.  The gated path keeps its indexed copies: their
Fortran order picks the BLAS kernels of the products after the solve.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

try:  # numpy's private LAPACK module: the fallback is the public solve
    from numpy.linalg._umath_linalg import solve as _gufunc_solve
except ImportError:  # pragma: no cover - exercised by a patched import
    _gufunc_solve = None

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


def _raise_singular(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


def _linalg_errstate() -> np.errstate:
    """The error state ``np.linalg.solve`` runs LAPACK under.

    LAPACK flags a singular matrix as an invalid operation, which
    raises :class:`numpy.linalg.LinAlgError`; overflow, division and
    underflow pass silently.
    """
    return np.errstate(
        call=_raise_singular,
        invalid="call",
        over="ignore",
        divide="ignore",
        under="ignore",
    )


if _gufunc_solve is None:
    _solve = _checked_solve = np.linalg.solve
else:
    #: ``np.linalg.solve`` for float64 ``(m, m)`` and ``(m, n)`` operands,
    #: bit for bit, when called under :func:`_linalg_errstate`.
    _solve = partial(_gufunc_solve, signature="dd->d")

    def _checked_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """:data:`_solve` under its own error state."""
        with _linalg_errstate():
            return _solve(a, b)


class _BurstBuffers:
    """Scratch arrays, and the views the update reads, for ``m`` rows."""

    def __init__(self, m: int):
        self.delta = np.empty((2 * m, 3))
        self.norms = np.empty(2 * m)
        self.norms_col = self.norms[:, None]
        self.norms_a, self.norms_b = self.norms[:m], self.norms[m:]
        self.unit = np.empty((2 * m, 3))
        self.unit_a, self.unit_b = self.unit[:m], self.unit[m:]
        self.h = np.empty((m, 3))
        self.h_t = self.h.T
        self.predicted = np.empty(m)
        # The solve's right-hand side, transposed: row 0 is the
        # innovation, rows 1-6 are P H^T (see the module docstring).
        self.rhs_t = np.empty((7, m))
        self.rhs = self.rhs_t.T
        self.innovation = self.rhs_t[0]
        self.pht = self.rhs_t[1:]
        self.pht_pos = self.pht[:3]
        self.S = np.empty((m, m))
        self.S_diag = self.S.reshape(-1)[:: m + 1]
        self.nu2 = np.empty(m)
        self.bound = np.empty(m)
        self.passed = np.empty(m, dtype=bool)


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
        # Scratch for the in-place predict / update / symmetrize steps.
        self._x_next = np.empty(self.STATE_DIM)
        self._gain = np.empty(self.STATE_DIM)
        self._FP = np.empty((self.STATE_DIM, self.STATE_DIM))
        self._FPF = np.empty((self.STATE_DIM, self.STATE_DIM))
        self._bursts: Dict[int, _BurstBuffers] = {}
        self._solve = _checked_solve

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

    @contextmanager
    def tick_block(self) -> Iterator[None]:
        """Run a block of :meth:`predict` / :meth:`update_tdoa_stacked`
        calls under one linalg error state.

        Inside the block the burst solve skips entering that state per
        call; its results and its ``LinAlgError`` for a singular ``S``
        are those of a call outside the block.  Every ufunc in the block
        runs under that state, so an invalid operation anywhere in it
        raises ``LinAlgError`` rather than warn.
        """
        with _linalg_errstate():
            self._solve = _solve
            try:
                yield
            finally:
                self._solve = _checked_solve

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
        F = self._F
        np.matmul(F, self.x, out=self._x_next)
        self.x, self._x_next = self._x_next, self.x
        np.matmul(F, self.P, out=self._FP)
        np.matmul(self._FP, F.T, out=self._FPF)
        np.add(self._FPF, self._Q, out=self.P)
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

    def update_tdoa_stacked(
        self,
        stacked_anchors: np.ndarray,
        measured_differences_m: np.ndarray,
        sigma_m: float,
    ) -> int:
        """Ingest one TDoA packet burst as a joint vector measurement.

        ``stacked_anchors`` is ``(2m, 3)`` — a-side rows first, then the
        matching b-side rows — the zero-copy layout
        :meth:`~repro.uwb.ranging.TdoaRanging.measure_stacked` serves
        from its cache on the flight-control hot path.

        The burst's rows share one timestamp, so they are fused as a
        single m-dimensional linear-Gaussian update (``R = sigma^2 I``)
        linearized at the pre-burst estimate — the textbook batch
        measurement update, equivalent to iterating scalar updates
        *without* per-row relinearization and exact for simultaneous
        measurements.  Each row is still innovation-gated individually
        against its marginal variance before the joint solve, matching
        :meth:`update_tdoa`'s NLoS protection.  One small linear solve
        replaces ~m scalar Joseph updates.

        Returns how many rows passed the gate.
        """
        z = measured_differences_m
        m = len(z)
        if not m:
            return 0
        buf = self._burst(m)
        # Distances and unit directions to both pair anchors in one
        # stacked pass (rows 0..m-1 are the a-side, m.. the b-side).
        np.subtract(self.x[:3], stacked_anchors, out=buf.delta)
        norms = np.einsum("ij,ij->i", buf.delta, buf.delta, out=buf.norms)
        np.sqrt(norms, out=norms)
        if norms.min() < 1e-6:
            usable = (buf.norms_a >= 1e-6) & (buf.norms_b >= 1e-6)
            keep = np.concatenate([usable, usable])
            z = z[usable]
            m = len(z)
            if not m:
                return 0
            full, buf = buf, self._burst(m)
            np.copyto(buf.delta, full.delta[keep])
            np.copyto(buf.norms, full.norms[keep])
        np.divide(buf.delta, buf.norms_col, out=buf.unit)
        h = np.subtract(buf.unit_b, buf.unit_a, out=buf.h)  # (m, 3)
        predicted = np.subtract(buf.norms_b, buf.norms_a, out=buf.predicted)
        innovation = np.subtract(z, predicted, out=buf.innovation)
        r_var = sigma_m * sigma_m
        pht = np.matmul(self.P[:, :3], buf.h_t, out=buf.pht)  # (6, m), in rhs_t
        S = np.matmul(h, buf.pht_pos, out=buf.S)
        buf.S_diag += r_var
        # Marginal gate per row: nu_i^2 <= gate^2 S_ii.
        passed = np.less_equal(
            np.multiply(innovation, innovation, out=buf.nu2),
            np.multiply(self.config.gate_sigma**2, buf.S_diag, out=buf.bound),
            out=buf.passed,
        )
        accepted = int(np.count_nonzero(passed))
        if accepted < m:
            self.rejected_updates += m - accepted
            if not accepted:
                return 0
            # Indexed copies, not the smaller burst's buffers: the
            # column subset of ``pht`` comes out Fortran-ordered, and
            # that layout picks the BLAS kernels of the products below.
            pht = pht[:, passed]
            innovation = innovation[passed]
            S = S[np.ix_(passed, passed)]
            buf = self._burst(accepted)
            buf.innovation[...] = innovation
            buf.pht[...] = pht
        # K = P H^T S^-1 applied without forming K: one solve covers
        # both the weighted innovations (first column) and the
        # covariance correction (the rest).  The downdate form is safe
        # here: S carries the full r_var I regularization, the result
        # is re-symmetrized, and every predict() re-inflates P with Q
        # — a long-run PSD test guards this path.
        solved = self._solve(S, buf.rhs)
        self.x += np.matmul(pht, solved[:, 0], out=self._gain)
        self.P -= np.matmul(pht, solved[:, 1:], out=self._FP)
        self._symmetrize()
        self.accepted_updates += accepted
        return accepted

    def _burst(self, m: int) -> _BurstBuffers:
        """The scratch arrays for an ``m``-row burst, made on first use."""
        buf = self._bursts.get(m)
        if buf is None:
            buf = self._bursts[m] = _BurstBuffers(m)
        return buf

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
        np.divide(np.add(self.P, self.P.T, out=self._FPF), 2.0, out=self.P)
