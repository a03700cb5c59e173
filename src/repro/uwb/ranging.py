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

:class:`TdoaRanging` owns the arrays of its whole-layout burst: the
anchor distances and the noise blocks are drawn into buffers sized at
construction, so the steady burst allocates nothing.  The differences
:meth:`TdoaRanging.measure_stacked` returns for that burst are one of
those buffers, overwritten by the next burst: copy them to keep them.
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


class _NoiseBuffers:
    """Scratch arrays for one burst: ``n`` values, ``n_biases`` NLoS draws."""

    def __init__(self, n: int, n_biases: int):
        self.draws = np.empty(n_biases)
        self.hits = np.empty(n_biases, dtype=bool)
        self.biases = np.empty(n_biases)
        # A TDoA burst's a-side and b-side halves (n_biases = 2n).
        self.biases_a, self.biases_b = self.biases[:n], self.biases[n:]
        self.noise = np.empty(n)
        self.values = np.empty(n)
        #: Each TDoA pair's b-side anchor: the next one, wrapping around.
        self.successor = np.roll(np.arange(n), -1)


class _RangingBase:
    """Shared noise machinery for both ranging modes."""

    def __init__(self, layout: AnchorLayout, config: Optional[RangingConfig] = None):
        self.layout = layout
        self.config = config or RangingConfig()

    def _nlos_bias_block(
        self, rng: np.random.Generator, buffers: _NoiseBuffers
    ) -> np.ndarray:
        """One NLoS excess-delay draw per measurement, into ``buffers.biases``.

        One Bernoulli block gates the measurements, and the uniform
        bias is only drawn for the measurements whose gate fired.
        """
        cfg = self.config
        biases = buffers.biases
        biases.fill(0.0)
        if cfg.nlos_probability <= 0:
            return biases
        hits = np.less(
            rng.random(out=buffers.draws), cfg.nlos_probability, out=buffers.hits
        )
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
            + self._nlos_bias_block(rng, _NoiseBuffers(count, count))
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
        count = len(layout)
        self._delta = np.empty((count, 3))
        self._distances = np.empty(count)
        self._burst = _NoiseBuffers(count, 2 * count)

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
        """One burst as ``(stacked_pair_anchors, differences)``.

        ``stacked_pair_anchors`` is ``(2m, 3)`` — the m a-side anchors
        followed by the m b-side anchors — exactly the layout
        :meth:`~repro.uwb.kalman.PositionVelocityEkf.update_tdoa_stacked`
        consumes without any per-call concatenation; for the common
        whole-layout-visible burst (indoor volumes are far smaller than
        UWB range) it is a cached read-only array, and the differences
        are a buffer the next burst overwrites.
        """
        p = np.asarray(position, dtype=float)
        delta = np.subtract(self.layout.positions, p, out=self._delta)
        distances = np.einsum("ij,ij->i", delta, delta, out=self._distances)
        np.sqrt(distances, out=distances)
        if len(distances) >= 2 and distances.max() <= self.config.max_range_m:
            return self._all_anchor_pairs(), self._noisy_differences(
                distances, rng
            )
        visible, differences = self._measure_visible(position, rng)
        m = len(differences)
        if not m:
            return np.zeros((0, 3)), differences
        stacked = np.empty((2 * m, 3))
        stacked[:m] = [a.position for a in visible]
        stacked[m:-1] = stacked[1:m]
        stacked[-1] = stacked[0]
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

    def _measure_visible(self, position: Sequence[float], rng: np.random.Generator):
        """Visible anchors and their noisy consecutive-pair differences."""
        p = np.asarray(position, dtype=float)
        visible, distances = self._visible_with_distances(p)
        if len(visible) < 2:
            return visible, np.zeros(0)
        return visible, self._noisy_differences(distances, rng)

    def _noisy_differences(
        self, distances: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Noisy db - da for consecutive (wrap-around) anchor pairs.

        One noise block per term: the two independent NLoS biases of
        each pair's anchors (one 2*count block, split between the a- and
        b-side), then Gaussian timestamping noise.  The fast
        cached-geometry path and the partial-visibility path both rely
        on this single implementation for their RNG stream contract:
        ``random(2m)`` → ``uniform(hits)`` → ``normal(m)``.  A
        whole-layout burst works in the buffers made at construction;
        other sizes get fresh ones.
        """
        count = len(distances)
        buffers = self._burst
        if count != len(buffers.values):
            buffers = _NoiseBuffers(count, 2 * count)
        out = np.take(distances, buffers.successor, out=buffers.values)
        out -= distances
        self._nlos_bias_block(rng, buffers)
        # Generator.normal(0, s) draws loc + s * z from the same
        # standard-normal stream; adding loc = 0.0 changes no sum below.
        noise = rng.standard_normal(out=buffers.noise)
        noise *= self.config.tdoa_sigma_m
        out += noise
        out += buffers.biases_a
        out -= buffers.biases_b
        return out

    @property
    def measurement_sigma_m(self) -> float:
        """Per-measurement standard deviation (approximate)."""
        return self.config.tdoa_sigma_m

    def rate_hz(self) -> float:
        """Measurement batches per second."""
        return self.config.tdoa_rate_hz
