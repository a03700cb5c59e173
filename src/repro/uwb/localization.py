"""The tag-side position estimator and accuracy evaluation harness.

:class:`PositionEstimator` is what the UAV carries: it owns the EKF and
consumes TWR or TDoA measurement batches.  The campaign uses its output
to *annotate* REM samples with locations (the whole point of §II-B).

The estimate never steers the simulated flight, so the estimator runs
open loop: :meth:`PositionEstimator.record` only queues a tick, and a
read of the estimate (:attr:`~PositionEstimator.position`,
:meth:`~PositionEstimator.error_m`) first runs the pending ticks as one
block.  A read filters only the ticks of the last :data:`WINDOW_S`
seconds.  Older pending ticks are dropped and draw nothing, and the
filter then restarts from a reset
(:meth:`~repro.uwb.kalman.PositionVelocityEkf.restart`): it keeps its
last position estimate, with zero velocity and the take-off covariance.
A read whose pending ticks all fit in the window continues the filter.
The campaign reads the estimate once per scan, after the UAV has
hovered for longer than the window, so every scan is annotated by a
filter that has settled on the same hover it measures.  The TDoA
block's measurements come from one
:meth:`~repro.uwb.ranging.TdoaRanging.measure_stacked` call, and the
filter recursion runs tick by tick inside one
:meth:`~repro.uwb.kalman.PositionVelocityEkf.tick_block`.  An error
from a tick surfaces at the read.  :meth:`PositionEstimator.step` is
the one-tick case: record, then read; a reader that steps every tick
never drops one.

:func:`evaluate_hovering_accuracy` reproduces the experiment behind the
paper's quoted numbers — a tag hovering at a fixed point, filtered with
an EKF against N anchors, reporting the mean 3-D error (the paper cites
≈9 cm with 6 anchors while hovering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .anchors import AnchorLayout
from .kalman import EkfConfig, PositionVelocityEkf
from .ranging import RangingConfig, TdoaRanging, TwrRanging

__all__ = [
    "WINDOW_S",
    "LocalizationMode",
    "PositionEstimator",
    "HoveringAccuracyResult",
    "evaluate_hovering_accuracy",
]


#: Seconds of recorded ticks a read filters: 50 TDoA ticks at 25 Hz,
#: inside the 2.6 s a scan hovers (startup plus scan) before its read.
WINDOW_S = 2.0
# Rounding slack, so that 50 ticks of 0.04 s fill a 2 s window.
_WINDOW_SLACK_S = 1e-9


class LocalizationMode:
    """String constants for the two LPS modes."""

    TWR = "twr"
    TDOA = "tdoa"


class PositionEstimator:
    """EKF-based tag localization against an anchor layout.

    Parameters
    ----------
    layout:
        The deployed anchors.
    mode:
        ``LocalizationMode.TWR`` or ``LocalizationMode.TDOA``.
    ranging_config / ekf_config:
        Noise/tuning parameter bundles.
    initial_position:
        Where the filter starts (e.g. the take-off pad).
    """

    def __init__(
        self,
        layout: AnchorLayout,
        mode: str = LocalizationMode.TDOA,
        ranging_config: Optional[RangingConfig] = None,
        ekf_config: Optional[EkfConfig] = None,
        initial_position: Sequence[float] = (0.0, 0.0, 0.0),
    ):
        if mode not in (LocalizationMode.TWR, LocalizationMode.TDOA):
            raise ValueError(f"unknown localization mode {mode!r}")
        if not layout.supports_3d():
            raise ValueError("anchor layout cannot localize in 3-D")
        self.layout = layout
        self.mode = mode
        self.ranging_config = ranging_config or RangingConfig()
        sigma_name = f"{mode}_sigma_m"
        if not getattr(self.ranging_config, sigma_name) > 0:
            # R = sigma^2 I regularizes every update's S = H P H^T + R.
            raise ValueError(f"{sigma_name} must be > 0 to filter {mode} updates")
        self.ekf = PositionVelocityEkf(initial_position, ekf_config)
        self._twr = TwrRanging(layout, self.ranging_config)
        self._tdoa = TdoaRanging(layout, self.ranging_config)
        # Recorded ticks not yet run: the grow-only trace of their
        # dt and true position, and the stream they draw from.
        self._pending_dt = np.empty(64)
        self._pending_positions = np.empty((64, 3))
        self._pending_rng: Optional[np.random.Generator] = None
        self._n_pending = 0

    # ------------------------------------------------------------------
    @property
    def update_rate_hz(self) -> float:
        """Measurement batch rate of the active mode."""
        if self.mode == LocalizationMode.TWR:
            return self._twr.rate_hz()
        return self._tdoa.rate_hz()

    @property
    def position(self) -> np.ndarray:
        """Current position estimate (runs the pending ticks first)."""
        self._catch_up()
        return self.ekf.position

    def record(
        self, dt: float, true_position: Sequence[float], rng: np.random.Generator
    ) -> None:
        """Queue one tick: advance by ``dt``, then one measurement batch.

        ``true_position`` (copied) is the ground-truth tag location the
        simulated radio measurements are generated from, and ``rng``
        the stream they are drawn from.  Nothing is drawn or filtered
        until the estimate is read, and a tick that falls out of the
        read's window never draws; every pending tick must share one
        stream, so a different ``rng`` raises ``ValueError``.
        """
        n = self._n_pending
        if n and rng is not self._pending_rng:
            raise ValueError("pending ticks were recorded with a different rng")
        if n == len(self._pending_dt):
            self._pending_dt = np.resize(self._pending_dt, 2 * n)
            self._pending_positions = np.resize(self._pending_positions, (2 * n, 3))
        self._pending_dt[n] = dt
        self._pending_positions[n] = true_position
        self._pending_rng = rng
        self._n_pending = n + 1

    def step(
        self, dt: float, true_position: Sequence[float], rng: np.random.Generator
    ) -> np.ndarray:
        """:meth:`record` one tick, then read: returns the new estimate."""
        self.record(dt, true_position, rng)
        return self.position

    def _catch_up(self) -> None:
        """Run the pending ticks of the last :data:`WINDOW_S` seconds.

        Older ticks are dropped, and the filter restarts from a reset
        before the rest run.  The measurements of a TDoA block are drawn
        in one :meth:`~repro.uwb.ranging.TdoaRanging.measure_stacked`
        call; the filter recursion then runs tick by tick.  An error
        from a tick surfaces here, at the read, and drops the rest of
        the block.
        """
        n = self._n_pending
        if not n:
            return
        self._n_pending = 0
        rng = self._pending_rng
        self._pending_rng = None
        # A tick is in the window when its own interval is: the last
        # one always is.
        spans = np.cumsum(self._pending_dt[n - 1 :: -1])
        kept = max(1, int(np.searchsorted(spans, WINDOW_S + _WINDOW_SLACK_S, "right")))
        # Bound on the instance, so a wrap on the class still sees
        # every call.
        ekf = self.ekf
        if kept < n:
            ekf.restart()
        dts = self._pending_dt[n - kept : n].tolist()
        positions = self._pending_positions[n - kept : n]
        predict = ekf.predict
        if self.mode == LocalizationMode.TWR:
            sigma = self.ranging_config.twr_sigma_m
            for dt, position in zip(dts, positions):
                predict(dt)
                for m in self._twr.measure_all(position, rng):
                    ekf.update_range(m.anchor.position, m.range_m, sigma)
            return
        update = ekf.update_tdoa_stacked
        sigma = self.ranging_config.tdoa_sigma_m
        stacked, diffs = self._tdoa.measure_stacked(positions, rng)
        with ekf.tick_block():
            for dt, pairs, z in zip(dts, stacked, diffs):
                predict(dt)
                update(pairs, z, sigma)

    def error_m(self, true_position: Sequence[float]) -> float:
        """Euclidean error of the current estimate."""
        return float(
            np.linalg.norm(self.position - np.asarray(true_position, dtype=float))
        )


@dataclass
class HoveringAccuracyResult:
    """Monte-Carlo hovering accuracy for one configuration."""

    mode: str
    anchor_count: int
    mean_error_m: float
    p95_error_m: float
    rmse_m: float


def evaluate_hovering_accuracy(
    layout: AnchorLayout,
    mode: str,
    hover_position: Sequence[float],
    rng: np.random.Generator,
    duration_s: float = 10.0,
    settle_s: float = 3.0,
    ranging_config: Optional[RangingConfig] = None,
    ekf_config: Optional[EkfConfig] = None,
    hover_jitter_std_m: float = 0.02,
) -> HoveringAccuracyResult:
    """Simulate a hovering tag and report filtered localization error.

    The tag wobbles around ``hover_position`` with small Gaussian jitter
    (a hovering Crazyflie is never perfectly still); errors are collected
    after ``settle_s`` of filter convergence, so ``settle_s`` must lie
    in ``[0, duration_s)``.
    """
    if not 0 <= settle_s < duration_s:
        raise ValueError(
            f"need 0 <= settle_s < duration_s, got settle_s={settle_s}, "
            f"duration_s={duration_s}"
        )
    estimator = PositionEstimator(
        layout,
        mode=mode,
        ranging_config=ranging_config,
        ekf_config=ekf_config,
        initial_position=hover_position,
    )
    dt = 1.0 / estimator.update_rate_hz
    hover = np.asarray(hover_position, dtype=float)
    errors: List[float] = []
    t = 0.0
    while t < duration_s:
        true_pos = hover + rng.normal(0.0, hover_jitter_std_m, size=3)
        estimator.step(dt, true_pos, rng)
        if t >= settle_s:
            errors.append(estimator.error_m(true_pos))
        t += dt
    err = np.asarray(errors)
    return HoveringAccuracyResult(
        mode=mode,
        anchor_count=len(layout),
        mean_error_m=float(err.mean()),
        p95_error_m=float(np.percentile(err, 95)),
        rmse_m=float(np.sqrt((err**2).mean())),
    )
