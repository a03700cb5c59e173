"""UWB ranging measurement models: Two-Way Ranging and TDoA.

The LPS supports two modes (§II-B):

* **TWR** — the tag ranges to one anchor at a time; each measurement is
  a distance.  Accurate per measurement but the tag must transact with
  every anchor in turn, limiting the update rate and supporting only
  one tag.
* **TDoA** — anchors transmit on a synchronized schedule and the tag
  passively timestamps; each measurement is a *difference* of distances
  to an anchor pair.  Noisier per measurement, but the update rate is
  much higher and any number of tags can listen, which is why the demo
  campaign runs TDoA — and why the paper calls its accuracy slightly
  better once filtered.

Both models include optional NLoS excess-delay bias: a body or wall in
the path stretches the first path, always *adding* range.

:meth:`TdoaRanging.measure_stacked` measures one burst or an ``(n, 3)``
block of bursts, the pending ticks a
:class:`~repro.uwb.localization.PositionEstimator` catches up on.  A
block whose bursts all see the whole layout computes its geometry and
noise arithmetic in one pass; its draws stay one burst at a time, in
the same stream order as n single calls, because the NLoS draw has a
data-dependent length.  Every call returns fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .anchors import Anchor, AnchorLayout

__all__ = [
    "RangingConfig",
    "TwrMeasurement",
    "TdoaMeasurement",
    "TwrRanging",
    "TdoaRanging",
]


@dataclass(frozen=True)
class RangingConfig:
    """Noise and timing parameters of the DWM1000-based LPS.

    Defaults follow the accuracy the paper reports (§II-B): with ≥6
    anchors the filtered hovering accuracy lands near 9 cm.
    """

    twr_sigma_m: float = 0.10
    tdoa_sigma_m: float = 0.18
    nlos_probability: float = 0.05
    nlos_bias_max_m: float = 0.30
    #: Full TWR round-robin rate (all anchors serviced per cycle), Hz.
    twr_cycle_hz: float = 8.0
    #: TDoA packet rate delivered to the tag, Hz.
    tdoa_rate_hz: float = 25.0
    max_range_m: float = 10.0


@dataclass(frozen=True)
class TwrMeasurement:
    """One two-way range to a single anchor."""

    anchor: Anchor
    range_m: float


@dataclass(frozen=True)
class TdoaMeasurement:
    """One distance-difference between an anchor pair."""

    anchor_a: Anchor
    anchor_b: Anchor
    difference_m: float


class _RangingBase:
    """Shared noise machinery for both ranging modes."""

    def __init__(self, layout: AnchorLayout, config: Optional[RangingConfig] = None):
        self.layout = layout
        self.config = config or RangingConfig()

    def _nlos_biases(self, rng: np.random.Generator, biases: np.ndarray) -> np.ndarray:
        """One NLoS excess-delay draw per measurement, into zeroed ``biases``.

        One Bernoulli block gates the measurements, and the uniform
        bias is only drawn for the measurements whose gate fired.
        """
        cfg = self.config
        if cfg.nlos_probability <= 0:
            return biases
        hits = rng.random(len(biases)) < cfg.nlos_probability
        n_hits = int(np.count_nonzero(hits))
        if n_hits:
            biases[hits] = rng.uniform(0.0, cfg.nlos_bias_max_m, size=n_hits)
        return biases

    def _visible(self, position: Sequence[float]) -> List[Anchor]:
        return self.layout.in_range(position, self.config.max_range_m)

    def _visible_with_distances(self, p: np.ndarray):
        """In-range anchors plus their true distances, one batched pass."""
        positions = self.layout.positions
        distances = np.sqrt(((positions - p) ** 2).sum(axis=1))
        mask = distances <= self.config.max_range_m
        if mask.all():
            # The common whole-layout case (indoor volumes are far
            # smaller than UWB range) skips the filtering pass.
            return self.layout.anchors, distances
        visible = [a for a, ok in zip(self.layout.anchors, mask) if ok]
        return visible, distances[mask]


class TwrRanging(_RangingBase):
    """Two-way ranging: one noisy distance per in-range anchor."""

    def measure_all(
        self, position: Sequence[float], rng: np.random.Generator
    ) -> List[TwrMeasurement]:
        """Ranges to every in-range anchor (one TWR cycle).

        The whole cycle's noise comes from vectorized blocks: one
        Gaussian draw per anchor plus the NLoS bias block.
        """
        p = np.asarray(position, dtype=float)
        visible, true_ranges = self._visible_with_distances(p)
        if not visible:
            return []
        count = len(visible)
        noisy = (
            true_ranges
            + rng.normal(0.0, self.config.twr_sigma_m, size=count)
            + self._nlos_biases(rng, np.zeros(count))
        )
        return [
            TwrMeasurement(anchor=anchor, range_m=max(float(r), 0.0))
            for anchor, r in zip(visible, noisy)
        ]

    @property
    def measurement_sigma_m(self) -> float:
        """Per-measurement standard deviation."""
        return self.config.twr_sigma_m

    def rate_hz(self) -> float:
        """Measurement batches per second (full cycles)."""
        return self.config.twr_cycle_hz


class TdoaRanging(_RangingBase):
    """TDoA: distance differences against a rotating reference anchor."""

    def __init__(self, layout: AnchorLayout, config: Optional[RangingConfig] = None):
        super().__init__(layout, config)
        self._pair_cache = None

    def measure_all(
        self, position: Sequence[float], rng: np.random.Generator
    ) -> List[TdoaMeasurement]:
        """One TDoA packet burst: differences between consecutive anchors.

        The LPS TDoA3 schedule effectively yields differences between
        successive transmitters; this model pairs each in-range anchor
        with the next one.
        """
        visible, differences = self._measure_visible(position, rng)
        return [
            TdoaMeasurement(anchor_a=a, anchor_b=b, difference_m=float(diff))
            for (a, b), diff in zip(
                zip(visible, visible[1:] + visible[:1]), differences
            )
        ]

    def measure_stacked(self, position: Sequence[float], rng: np.random.Generator):
        """Bursts as ``(stacked_pair_anchors, differences)``.

        For one ``(3,)`` position, ``stacked_pair_anchors`` is
        ``(2m, 3)`` — the m a-side anchors followed by the m b-side
        anchors — exactly the layout
        :meth:`~repro.uwb.kalman.PositionVelocityEkf.update_tdoa_stacked`
        consumes without any per-call concatenation, and
        ``differences`` is ``(m,)``.  For the common whole-layout burst
        (indoor volumes are far smaller than UWB range) the stacked
        anchors are a cached read-only array.

        An ``(n, 3)`` block of positions (n bursts in time order) gives
        two length-n sequences, one entry per burst, and leaves the
        stream exactly where n one-position calls would.  When every
        burst sees the whole layout, the geometry and the noise
        arithmetic run once over the block, and ``differences`` is one
        ``(n, m)`` array; otherwise each burst is measured on its own.
        """
        p = np.asarray(position, dtype=float)
        if p.ndim == 1:
            stacked, differences = self._measure_block(p[None], rng)
            return stacked[0], differences[0]
        return self._measure_block(p, rng)

    def _measure_block(self, p: np.ndarray, rng: np.random.Generator):
        """:meth:`measure_stacked` of an ``(n, 3)`` block."""
        delta = self.layout.positions - p[:, None]
        distances = np.einsum("nij,nij->ni", delta, delta)
        np.sqrt(distances, out=distances)
        if distances.shape[1] >= 2 and (distances <= self.config.max_range_m).all():
            return [self._all_anchor_pairs()] * len(p), self._noisy_differences(
                distances, rng
            )
        if len(p) > 1:
            bursts = [self._measure_block(row[None], rng) for row in p]
            return [b[0][0] for b in bursts], [b[1][0] for b in bursts]
        visible, differences = self._measure_visible(p[0], rng)
        m = len(differences)
        if not m:
            return [np.zeros((0, 3))], [differences]
        stacked = np.empty((2 * m, 3))
        stacked[:m] = [a.position for a in visible]
        stacked[m:-1] = stacked[1:m]
        stacked[-1] = stacked[0]
        return [stacked], [differences]

    def _all_anchor_pairs(self) -> np.ndarray:
        if self._pair_cache is None:
            positions = self.layout.positions
            count = len(positions)
            stacked = np.empty((2 * count, 3))
            stacked[:count] = positions
            stacked[count:-1] = positions[1:]
            stacked[-1] = positions[0]
            # Handed out by reference on every fast-path burst: freeze
            # it so a caller mutation cannot corrupt later bursts.
            stacked.setflags(write=False)
            self._pair_cache = stacked
        return self._pair_cache

    def _measure_visible(self, position: Sequence[float], rng: np.random.Generator):
        """Visible anchors and their noisy consecutive-pair differences."""
        p = np.asarray(position, dtype=float)
        visible, distances = self._visible_with_distances(p)
        if len(visible) < 2:
            return visible, np.zeros(0)
        return visible, self._noisy_differences(distances[None], rng)[0]

    def _noisy_differences(
        self, distances: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Noisy db - da for consecutive (wrap-around) anchor pairs.

        ``distances`` is ``(n, count)``: n bursts over the same
        ``count`` anchors.  Each burst draws one noise block per term,
        in burst order: the two independent NLoS biases of each pair's
        anchors (one 2*count block, split between the a- and b-side),
        then Gaussian timestamping noise.  The whole-layout path and
        the partial-visibility path both rely on this single
        implementation for their RNG stream contract:
        ``random(2m)`` → ``uniform(hits)`` → ``normal(m)`` per burst.
        The draws have data-dependent lengths, so they stay one burst
        at a time; the arithmetic then runs over the whole block.
        """
        n, count = distances.shape
        biases = np.zeros((n, 2 * count))
        noise = np.empty((n, count))
        for burst_biases, burst_noise in zip(biases, noise):
            self._nlos_biases(rng, burst_biases)
            # Generator.normal(0, s) draws loc + s * z from the same
            # standard-normal stream; adding loc = 0.0 changes no sum.
            rng.standard_normal(out=burst_noise)
        # Each pair's b-side anchor is the next one, wrapping around.
        out = np.roll(distances, -1, axis=1)
        out -= distances
        noise *= self.config.tdoa_sigma_m
        out += noise
        out += biases[:, :count]
        out -= biases[:, count:]
        return out

    @property
    def measurement_sigma_m(self) -> float:
        """Per-measurement standard deviation (approximate)."""
        return self.config.tdoa_sigma_m

    def rate_hz(self) -> float:
        """Measurement batches per second."""
        return self.config.tdoa_rate_hz
