"""The Radio Environmental Map: the toolchain's end product.

A :class:`RadioEnvironmentMap` holds, for every AP of interest, a 3-D
lattice of predicted RSS over the mapped volume.  It supports the uses
the paper motivates in its introduction:

* point queries (trilinear interpolation) for e.g. fingerprinting
  databases or relay placement;
* per-AP coverage fractions;
* "dark region" extraction — sub-volumes where *no* AP exceeds a
  service threshold, i.e. where the operator should add an AP (§I).

Internally all per-AP fields live in one stacked ``(n_macs, nx, ny,
nz)`` tensor, so every consumer-facing operation — :meth:`query_many`,
:meth:`strongest_ap_many`, the coverage and dark-region reductions —
is a vectorized reduction over that tensor rather than a per-point
Python loop.  :func:`build_rem` fills the tensor with **one** batched
predictor call (:meth:`Predictor.predict_mac_grid`) instead of one
full lattice pass per MAC; :func:`build_rem_layers` fills the REM and
its uncertainty map from one :meth:`Predictor.grid_layers` pass.

Maps serialize to plain dicts (JSON-compatible) for archival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..radio.geometry import Cuboid
from .dataset import REMDataset
from .predictors.base import Predictor

__all__ = [
    "RemGrid",
    "RadioEnvironmentMap",
    "build_rem",
    "build_rem_layers",
    "build_uncertainty_rem",
]


@dataclass(frozen=True)
class RemGrid:
    """The lattice geometry of a REM."""

    volume: Cuboid
    resolution_m: float

    def __post_init__(self) -> None:
        if self.resolution_m <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution_m}")

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Lattice dimensions (nx, ny, nz), always >= 2 per axis."""
        size = self.volume.size
        return tuple(
            max(2, int(round(s / self.resolution_m)) + 1) for s in size
        )  # type: ignore[return-value]

    @property
    def n_points(self) -> int:
        """Total number of lattice points."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    def axes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis coordinate vectors (cached — the grid is frozen)."""
        cached = getattr(self, "_axes_cache", None)
        if cached is None:
            lo = np.asarray(self.volume.min_corner, dtype=float)
            hi = np.asarray(self.volume.max_corner, dtype=float)
            nx, ny, nz = self.shape
            cached = (
                np.linspace(lo[0], hi[0], nx),
                np.linspace(lo[1], hi[1], ny),
                np.linspace(lo[2], hi[2], nz),
            )
            object.__setattr__(self, "_axes_cache", cached)
        return cached

    def lerp_params(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Cached interpolation constants ``(lo, step, top, degenerate)``.

        The lattice is a uniform linspace per axis, so a query point's
        cell index is plain arithmetic — ``(x - lo) / step`` — instead
        of a per-axis ``searchsorted``.  ``top`` is the largest valid
        cell index per axis and ``degenerate`` marks zero-extent axes
        (``None`` when there are none, the overwhelmingly common case).
        """
        cached = getattr(self, "_lerp_cache", None)
        if cached is None:
            lo = np.asarray(self.volume.min_corner, dtype=float)
            hi = np.asarray(self.volume.max_corner, dtype=float)
            n = np.asarray(self.shape)
            step = (hi - lo) / (n - 1)
            degenerate = step == 0
            cached = (
                lo,
                np.where(degenerate, 1.0, step),
                n - 2,
                degenerate if degenerate.any() else None,
            )
            object.__setattr__(self, "_lerp_cache", cached)
        return cached

    def points(self) -> np.ndarray:
        """All lattice points as an (N, 3) array (x fastest to slowest)."""
        ax, ay, az = self.axes()
        xs, ys, zs = np.meshgrid(ax, ay, az, indexing="ij")
        return np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])


class RadioEnvironmentMap:
    """Per-AP predicted RSS over a 3-D lattice, stored as one tensor.

    Fields of individual APs may be filled incrementally with
    :meth:`set_field` or in bulk with :meth:`set_fields`; :attr:`macs`
    lists the APs whose fields are present, in vocabulary order.
    """

    def __init__(self, grid: RemGrid, mac_vocabulary: Sequence[str]):
        self.grid = grid
        self.mac_vocabulary: Tuple[str, ...] = tuple(mac_vocabulary)
        self._index: Dict[str, int] = {
            mac: i for i, mac in enumerate(self.mac_vocabulary)
        }
        # The stack holds one row per *stored* field (not per vocabulary
        # entry — vocabularies can be much wider than the mapped subset).
        self._stack = np.empty((0,) + grid.shape)
        self._row_of: Dict[str, int] = {}
        #: Lazy caches for the serving hot path, invalidated by the
        #: field setters: (identity, rows) for the every-AP query and
        #: the sorted present-MAC tuple.
        self._rows_cache: Optional[Tuple[bool, np.ndarray]] = None
        self._macs_cache: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    def set_field(self, mac: str, values: np.ndarray) -> None:
        """Store the lattice field for one AP (shape must match grid)."""
        if mac not in self._index:
            raise KeyError(f"unknown MAC {mac!r}")
        expected = self.grid.shape
        if values.shape != expected:
            raise ValueError(f"field shape {values.shape} != grid shape {expected}")
        self._rows_cache = None
        self._macs_cache = None
        row = self._row_of.get(mac)
        if row is None:
            self._row_of[mac] = len(self._stack)
            self._stack = np.concatenate(
                [self._stack, values[None].astype(float)], axis=0
            )
        else:
            self._stack[row] = values.astype(float)

    def set_fields(self, macs: Sequence[str], tensor: np.ndarray) -> None:
        """Bulk store: ``tensor`` is ``(len(macs), nx, ny, nz)``."""
        expected = (len(macs),) + self.grid.shape
        if tensor.shape != expected:
            raise ValueError(f"tensor shape {tensor.shape} != expected {expected}")
        for mac in macs:
            if mac not in self._index:
                raise KeyError(f"unknown MAC {mac!r}")
        self._rows_cache = None
        self._macs_cache = None
        fresh = [mac for mac in macs if mac not in self._row_of]
        if len(fresh) == len(macs) and len(set(macs)) == len(macs):
            # Common case (build_rem): one allocation for the whole batch.
            for offset, mac in enumerate(macs):
                self._row_of[mac] = len(self._stack) + offset
            self._stack = np.concatenate(
                [self._stack, tensor.astype(float)], axis=0
            )
        else:
            for mac, values in zip(macs, tensor):
                self.set_field(mac, values)

    @classmethod
    def from_stack(
        cls,
        grid: RemGrid,
        mac_vocabulary: Sequence[str],
        macs: Sequence[str],
        stack: np.ndarray,
    ) -> "RadioEnvironmentMap":
        """Wrap an existing ``(len(macs), nx, ny, nz)`` tensor, no copy.

        Unlike :meth:`set_fields` — which casts to float64 and copies —
        this attaches ``stack`` as the backing tensor verbatim, so a
        memory-mapped array (``np.load(mmap_mode="r")``) stays a map:
        N serving processes share one page-cache copy of the artifact
        instead of N private heap copies.  The stack's dtype (float64
        or float32 artifacts) is preserved.
        """
        rem = cls(grid, mac_vocabulary)
        expected = (len(macs),) + grid.shape
        if stack.shape != expected:
            raise ValueError(f"stack shape {stack.shape} != expected {expected}")
        for row, mac in enumerate(macs):
            if mac not in rem._index:
                raise KeyError(f"unknown MAC {mac!r}")
            rem._row_of[mac] = row
        if len(rem._row_of) != len(macs):
            raise ValueError("duplicate MACs in stack")
        rem._stack = stack
        return rem

    def astype(self, dtype) -> "RadioEnvironmentMap":
        """A copy of this map with the field tensor cast to ``dtype``."""
        macs = self.macs
        return RadioEnvironmentMap.from_stack(
            self.grid,
            self.mac_vocabulary,
            macs,
            self.field_tensor(macs).astype(dtype),
        )

    def field(self, mac: str) -> np.ndarray:
        """The (nx, ny, nz) RSS lattice of one AP (read-only view).

        The view is marked non-writeable because storing another field
        may reallocate the backing tensor, which would silently detach
        in-place writes; use :meth:`set_field` to replace a field.
        """
        row = self._row_of.get(mac)
        if row is None:
            raise KeyError(mac)
        view = self._stack[row]
        view.flags.writeable = False
        return view

    def field_tensor(
        self, macs: Optional[Sequence[str]] = None
    ) -> np.ndarray:
        """The stacked ``(M, nx, ny, nz)`` tensor over ``macs``.

        Defaults to every present AP in vocabulary order.
        """
        rows = self._rows(macs)
        return self._stack[rows]

    @property
    def macs(self) -> Tuple[str, ...]:
        """APs with stored fields, in vocabulary order (cached)."""
        cached = self._macs_cache
        if cached is None:
            cached = self._macs_cache = tuple(
                sorted(self._row_of, key=self._index.__getitem__)
            )
        return cached

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the backing field tensor (float64 or float32)."""
        return self._stack.dtype

    def _rows(self, macs: Optional[Sequence[str]]) -> np.ndarray:
        """Stack rows for the requested (or all present) MACs."""
        if macs is None:
            macs = self.macs
        rows = []
        for mac in macs:
            row = self._row_of.get(mac)
            if row is None:
                raise KeyError(mac)
            rows.append(row)
        return np.asarray(rows, dtype=int)

    def _all_rows(self) -> Tuple[bool, np.ndarray]:
        """Cached ``(identity, rows)`` for the every-AP query path.

        ``identity`` is True when the stored rows already sit in
        vocabulary order (the overwhelmingly common layout), letting
        :meth:`query_many` skip both the per-call sort in :attr:`macs`
        and the whole-tensor gather.  Invalidated by the field setters.
        """
        cached = self._rows_cache
        if cached is None:
            rows = self._rows(None)
            identity = len(rows) == len(self._stack) and np.array_equal(
                rows, np.arange(len(rows))
            )
            cached = self._rows_cache = (identity, rows)
        return cached

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, position: Sequence[float], mac: str) -> float:
        """Trilinearly interpolated RSS of ``mac`` at ``position``."""
        return float(self.query_many([position], [mac])[0, 0])

    def query_many(
        self,
        positions: Union[np.ndarray, Sequence[Sequence[float]]],
        macs: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Trilinear interpolation of many positions against many APs.

        Returns an ``(N, M)`` array — one row per position, one column
        per MAC (all present APs when ``macs`` is omitted).  Positions
        outside the mapped volume are clipped onto its boundary, like
        the scalar query always did.
        """
        # The fancy-index gather would duplicate the whole tensor per
        # call — and materialize mmap-backed stacks, defeating
        # cross-process page sharing — so use the stack as-is whenever
        # the requested rows are already everything, in order.
        if macs is None:
            identity, rows = self._all_rows()
        else:
            rows = self._rows(macs)
            identity = len(rows) == len(self._stack) and np.array_equal(
                rows, np.arange(len(rows))
            )
        stack = self._stack if identity else self._stack[rows]
        pts = np.asarray(positions, dtype=float).reshape(-1, 3)

        # Cell index and in-cell fraction per axis, by arithmetic on the
        # uniform lattice (no per-axis searchsorted).  Truncation toward
        # zero equals floor after the clip: out-of-volume points land on
        # the boundary with fraction 0 or 1, exactly like the legacy
        # clipping behavior.
        lo, step, top, degenerate = self.grid.lerp_params()
        t = (pts - lo) / step
        cell = np.clip(t.astype(np.intp), 0, top)
        frac = np.clip(t - cell, 0.0, 1.0)
        if degenerate is not None:
            frac = np.where(degenerate, 0.0, frac)

        # Blend the 8 cell corners for every (mac, point) pair as one
        # flat gather + weight contraction: separate per-corner
        # fancy-index passes cost ~8x the fixed numpy dispatch
        # overhead, which dominates small (single-point) queries on the
        # serving path.
        _, ny, nz = stack.shape[1:]
        base = (cell[:, 0] * ny + cell[:, 1]) * nz + cell[:, 2]
        offsets = np.array(
            [0, 1, nz, nz + 1, ny * nz, ny * nz + 1, ny * nz + nz, ny * nz + nz + 1]
        )
        remainder = 1.0 - frac
        wx = np.stack([remainder[:, 0], frac[:, 0]])
        wy = np.stack([remainder[:, 1], frac[:, 1]])
        wz = np.stack([remainder[:, 2], frac[:, 2]])
        weights = (
            wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
        ).reshape(8, -1)
        corners = stack.reshape(stack.shape[0], -1)[:, base + offsets[:, None]]
        return (corners * weights).sum(axis=1).T

    def strongest_ap(self, position: Sequence[float]) -> Tuple[str, float]:
        """The best-serving AP and its RSS at ``position``."""
        macs, rss = self.strongest_ap_many([position])
        return macs[0], float(rss[0])

    def strongest_ap_many(
        self, positions: Union[np.ndarray, Sequence[Sequence[float]]]
    ) -> Tuple[List[str], np.ndarray]:
        """Best-serving AP and RSS for every position.

        Returns ``(macs, rss)``: a list of N MAC strings and the
        matching ``(N,)`` RSS array.  Ties resolve to the earliest MAC
        in vocabulary order (the legacy iteration order).
        """
        if not self._row_of:
            raise ValueError("REM has no fields")
        present = self.macs
        values = self.query_many(positions)  # (N, M)
        best = values.argmax(axis=1)
        rss = values[np.arange(len(values)), best]
        return [present[b] for b in best], rss

    # ------------------------------------------------------------------
    # coverage reductions
    # ------------------------------------------------------------------
    def coverage_fraction(self, mac: str, threshold_dbm: float) -> float:
        """Fraction of lattice points where ``mac`` exceeds ``threshold``."""
        return float((self.field(mac) >= threshold_dbm).mean())

    def coverage_by_mac(self, threshold_dbm: float) -> Dict[str, float]:
        """Coverage fraction of every present AP in one reduction."""
        stack = self.field_tensor()
        fractions = (stack >= threshold_dbm).mean(axis=(1, 2, 3))
        return {mac: float(f) for mac, f in zip(self.macs, fractions)}

    def best_rss_field(self) -> np.ndarray:
        """Point-wise maximum RSS over all present APs (nx, ny, nz)."""
        if not self._row_of:
            return np.full(self.grid.shape, -np.inf)
        return self._stack.max(axis=0)

    def dark_fraction(self, threshold_dbm: float) -> float:
        """Fraction of lattice points where *no* AP reaches ``threshold``.

        The planning primitive of §I: dark regions are where the
        operator should consider adding infrastructure.
        """
        if not self._row_of:
            return 1.0
        return float((self.best_rss_field() < threshold_dbm).mean())

    def dark_points(self, threshold_dbm: float) -> np.ndarray:
        """Lattice points of the dark region, as an (N, 3) array."""
        if not self._row_of:
            return self.grid.points()
        mask = (self.best_rss_field() < threshold_dbm).ravel()
        return self.grid.points()[mask]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-compatible serialization."""
        return {
            "volume_min": list(self.grid.volume.min_corner),
            "volume_max": list(self.grid.volume.max_corner),
            "resolution_m": self.grid.resolution_m,
            "macs": list(self.mac_vocabulary),
            "fields": {mac: self.field(mac).tolist() for mac in self.macs},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RadioEnvironmentMap":
        """Inverse of :meth:`to_dict`."""
        grid = RemGrid(
            volume=Cuboid(tuple(data["volume_min"]), tuple(data["volume_max"])),
            resolution_m=float(data["resolution_m"]),
        )
        rem = cls(grid, data["macs"])
        fields = data["fields"]
        if fields:
            # One stacked allocation instead of a concatenate per MAC.
            rem.set_fields(
                list(fields),
                np.asarray(list(fields.values()), dtype=float),
            )
        return rem

    def save_npz(self, path) -> None:
        """Compact compressed binary serialization (exact float64).

        Unlike :meth:`to_dict` — which inflates every float tensor into
        Python lists — this writes the stacked field tensor as a
        compressed ``.npz`` and round-trips bit-exactly.  ``numpy``
        appends the ``.npz`` suffix when ``path`` lacks one.
        """
        np.savez_compressed(path, **_rem_npz_payload(self))

    @classmethod
    def load_npz(cls, path) -> "RadioEnvironmentMap":
        """Inverse of :meth:`save_npz`."""
        with np.load(path) as data:
            return _rem_from_npz_payload(data)


def _rem_npz_payload(
    rem: "RadioEnvironmentMap", prefix: str = ""
) -> Dict[str, np.ndarray]:
    """The array dict behind :meth:`RadioEnvironmentMap.save_npz`.

    ``prefix`` namespaces the keys so several maps (e.g. an artifact's
    RSS and uncertainty layers) can share one archive.
    """
    return {
        f"{prefix}volume_min": np.asarray(rem.grid.volume.min_corner, dtype=float),
        f"{prefix}volume_max": np.asarray(rem.grid.volume.max_corner, dtype=float),
        f"{prefix}resolution_m": np.asarray(rem.grid.resolution_m, dtype=float),
        f"{prefix}vocabulary": np.asarray(rem.mac_vocabulary, dtype=np.str_),
        f"{prefix}macs": np.asarray(rem.macs, dtype=np.str_),
        f"{prefix}stack": rem.field_tensor(),
    }


def _rem_from_npz_payload(data, prefix: str = "") -> "RadioEnvironmentMap":
    """Rebuild a map from a :func:`_rem_npz_payload` archive.

    The stored stack dtype is preserved (float32 artifacts stay
    float32), so save/load round trips are byte-exact for any dtype.
    """
    grid = RemGrid(
        volume=Cuboid(
            tuple(float(v) for v in data[f"{prefix}volume_min"]),
            tuple(float(v) for v in data[f"{prefix}volume_max"]),
        ),
        resolution_m=float(data[f"{prefix}resolution_m"]),
    )
    return RadioEnvironmentMap.from_stack(
        grid,
        [str(m) for m in data[f"{prefix}vocabulary"]],
        [str(m) for m in data[f"{prefix}macs"]],
        np.asarray(data[f"{prefix}stack"]),
    )


def build_rem(
    predictor: Predictor,
    train: REMDataset,
    volume: Cuboid,
    resolution_m: float = 0.25,
    macs: Optional[Sequence[str]] = None,
) -> RadioEnvironmentMap:
    """Build a REM with one batched predictor call over the lattice.

    ``macs`` restricts the map to a subset of APs (defaults to the
    training vocabulary).  All selected MACs are evaluated through
    :meth:`Predictor.predict_mac_grid`, which estimators implement as a
    shared-work fast path (the one-hot k-NN computes a single 3-D
    distance matrix for every MAC).
    """
    (rem,) = _build_maps(
        1,
        lambda points, indices: (predictor.predict_mac_grid(points, indices),),
        train,
        volume,
        resolution_m,
        macs,
    )
    return rem


def build_uncertainty_rem(
    predictor: Predictor,
    train: REMDataset,
    volume: Cuboid,
    resolution_m: float = 0.25,
    macs: Optional[Sequence[str]] = None,
) -> RadioEnvironmentMap:
    """A map of predictive *uncertainty* (std, dB) instead of RSS.

    Same lattice machinery as :func:`build_rem`, but fields come from
    :meth:`Predictor.uncertainty_grid` — kriging variance where native,
    distance/disagreement proxies elsewhere.  The active-sampling
    planner reads this map to decide where the fleet flies next; its
    ``dark_points`` / ``coverage`` reductions double as "where is the
    map still unreliable" queries (with an uncertainty threshold).
    Callers that need the RSS map too should use
    :func:`build_rem_layers`, which renders both in one pass.
    """
    (uncertainty,) = _build_maps(
        1,
        lambda points, indices: (predictor.uncertainty_grid(points, indices),),
        train,
        volume,
        resolution_m,
        macs,
    )
    return uncertainty


def build_rem_layers(
    predictor: Predictor,
    train: REMDataset,
    volume: Cuboid,
    resolution_m: float = 0.25,
    macs: Optional[Sequence[str]] = None,
) -> Tuple[RadioEnvironmentMap, RadioEnvironmentMap]:
    """The REM and its uncertainty map from one lattice pass.

    Equals ``(build_rem(...), build_uncertainty_rem(...))`` bit for bit;
    the fields come from one :meth:`Predictor.grid_layers` call, which
    the k-NN and IDW estimators answer with one neighbor or distance
    search per MAC for both layers.
    """
    rem, uncertainty = _build_maps(
        2, predictor.grid_layers, train, volume, resolution_m, macs
    )
    return rem, uncertainty


def _build_maps(
    layers: int,
    evaluate: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]],
    train: REMDataset,
    volume: Cuboid,
    resolution_m: float,
    macs: Optional[Sequence[str]],
) -> Tuple[RadioEnvironmentMap, ...]:
    """``layers`` maps, filled from the ``(M, N)`` fields of ``evaluate``."""
    grid = RemGrid(volume=volume, resolution_m=resolution_m)
    selected = tuple(macs) if macs is not None else train.mac_vocabulary
    mac_to_index = {mac: i for i, mac in enumerate(train.mac_vocabulary)}
    for mac in selected:
        if mac not in mac_to_index:
            raise KeyError(f"MAC {mac!r} not in training vocabulary")
    indices = np.array([mac_to_index[mac] for mac in selected], dtype=int)
    # The maps are allocated before the lattice pass's large transient
    # arrays: allocated after them, they changed glibc's heap layout
    # enough to leave 20-50 MB of freed heap resident in serving
    # workers forked after a build.
    maps = tuple(
        RadioEnvironmentMap(grid, train.mac_vocabulary) for _ in range(layers)
    )
    for rem, fields in zip(maps, evaluate(grid.points(), indices)):
        rem.set_fields(selected, fields.reshape((len(selected),) + grid.shape))
    return maps
