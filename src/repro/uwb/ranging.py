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
block of bursts, the window of recorded ticks a
:class:`~repro.uwb.localization.PositionEstimator` filters when its
estimate is read.  A block draws its noise in three fixed-shape calls,
whatever the geometry: ``random((n, 2m))`` gates the NLoS biases,
``uniform((n, 2m))`` gives the biases (kept where a gate fired), and
``standard_normal((n, m))`` the timestamping noise, with m the number
of anchors.  A burst that sees only some anchors uses the first columns
of its rows.  So a block is not n one-burst calls: the stream order is
per block.  Every call returns fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .anchors import Anchor, AnchorLayout

__all__ = [
    "RangingConfig",
    "TwrMeasurement",
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


class _RangingBase:
    """Shared noise machinery for both ranging modes."""

    def __init__(self, layout: AnchorLayout, config: Optional[RangingConfig] = None):
        self.layout = layout
        self.config = config or RangingConfig()

    def _nlos_biases(self, rng: np.random.Generator, shape) -> np.ndarray:
        """NLoS excess-delay biases of ``shape``, in two fixed-shape draws.

        A Bernoulli block gates the measurements, then a uniform block
        of the same shape gives every bias; the biases whose gate did
        not fire are zeroed.  Nothing is drawn when NLoS is off.
        """
        cfg = self.config
        if cfg.nlos_probability <= 0:
            return np.zeros(shape)
        hits = rng.random(shape) < cfg.nlos_probability
        biases = rng.uniform(0.0, cfg.nlos_bias_max_m, size=shape)
        biases *= hits
        return biases

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
        Gaussian draw per anchor, then the NLoS gate and bias blocks.
        """
        p = np.asarray(position, dtype=float)
        visible, true_ranges = self._visible_with_distances(p)
        if not visible:
            return []
        count = len(visible)
        noisy = (
            true_ranges
            + rng.normal(0.0, self.config.twr_sigma_m, size=count)
            + self._nlos_biases(rng, count)
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
        two length-n sequences, one entry per burst, and draws its noise
        as one block (see the module docstring).  When every burst sees
        the whole layout, ``differences`` is one ``(n, m)`` array.
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
        n, count = distances.shape
        biases = self._nlos_biases(rng, (n, 2 * count))
        noise = rng.standard_normal((n, count))
        noise *= self.config.tdoa_sigma_m
        visible = distances <= self.config.max_range_m
        if count >= 2 and visible.all():
            pairs = self._all_anchor_pairs()
            return [pairs] * n, self._differences(distances, biases, noise)
        stacked, differences = [], []
        for i, seen in enumerate(visible):
            m = int(np.count_nonzero(seen))
            if m < 2:
                stacked.append(np.zeros((0, 3)))
                differences.append(np.zeros(0))
                continue
            if m == count:
                stacked.append(self._all_anchor_pairs())
            else:
                pairs = np.empty((2 * m, 3))
                pairs[:m] = self.layout.positions[seen]
                pairs[m:-1] = pairs[1:m]
                pairs[-1] = pairs[0]
                stacked.append(pairs)
            row = slice(i, i + 1)
            differences.append(
                self._differences(distances[row, seen], biases[row], noise[row])[0]
            )
        return stacked, differences

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

    @staticmethod
    def _differences(
        distances: np.ndarray, biases: np.ndarray, noise: np.ndarray
    ) -> np.ndarray:
        """Noisy db - da for consecutive (wrap-around) anchor pairs.

        ``distances`` is ``(n, m)``: n bursts over the same m visible
        anchors.  ``biases`` (the a-side biases, then the b-side ones)
        and the scaled timestamping ``noise`` come from a block over all
        ``count >= m`` anchors; pair ``j`` takes column ``j`` of each
        side, so a partly visible burst uses the first columns.
        """
        m = distances.shape[1]
        count = noise.shape[1]
        # Each pair's b-side anchor is the next one, wrapping around.
        out = np.roll(distances, -1, axis=1)
        out -= distances
        out += noise[:, :m]
        out += biases[:, :m]
        out -= biases[:, count : count + m]
        return out

    @property
    def measurement_sigma_m(self) -> float:
        """Per-measurement standard deviation (approximate)."""
        return self.config.tdoa_sigma_m

    def rate_hz(self) -> float:
        """Measurement batches per second."""
        return self.config.tdoa_rate_hz
