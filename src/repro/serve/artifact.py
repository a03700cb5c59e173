"""REM artifacts and the content-addressed artifact store.

A :class:`RemArtifact` is the persisted end product of one job: the
RSS map, its optional predictive-uncertainty layer, the
:class:`~repro.serve.spec.RemJobSpec` that produced it and a
provenance record (seed, sample counts, test RMSE, wall time).  The
:class:`ArtifactStore` keeps artifacts under their spec digest in one
layout: one uncompressed ``.npy`` file per tensor under
``<root>/<digest>/`` plus a JSON sidecar.  The tensors load with
``np.load(mmap_mode="r")``, so N serving processes share one
page-cache copy of a map instead of N heap copies.

Stores written by older versions kept the tensors in one compressed
``<root>/<digest>.npz`` archive; those artifacts still load (eagerly,
since a zip archive cannot be mapped), but nothing writes that layout
any more.  "Build once, persist, serve many" is one ``save`` and any
number of ``load`` calls, and re-running a job whose digest is already
stored is a cache hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..core.rem import RadioEnvironmentMap, RemGrid, _rem_from_npz_payload
from ..radio.geometry import Cuboid
from .spec import RemJobSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids eager import
    from ..core.pipeline import ToolchainResult

__all__ = ["RemArtifact", "ArtifactStore"]

#: Sidecar format version (bump on incompatible layout changes).
#: Version 2 added the ``storage`` and ``dtype`` keys; version-1
#: sidecars (no ``storage`` key) read as float64 npz archives.
_FORMAT = 2

#: Tensor file name per layer (the sidecar's ``storage.layers`` keys).
_LAYER_FILES = {"rem": "rem_stack.npy", "unc": "unc_stack.npy"}


@dataclass
class RemArtifact:
    """One built REM plus everything needed to trust and replay it."""

    spec: RemJobSpec
    rem: RadioEnvironmentMap
    #: Predictive-uncertainty layer (std, dB); ``None`` when the spec
    #: opted out.
    uncertainty: Optional[RadioEnvironmentMap]
    #: Build record: seed, sample counts, test RMSE, wall time, ...
    provenance: Dict[str, object] = field(default_factory=dict)
    #: The in-memory toolchain result of a fresh build (predictor,
    #: campaign log, ...).  Never persisted; ``None`` after a load.
    result: Optional["ToolchainResult"] = None
    #: True when this instance came out of a store instead of a build.
    cache_hit: bool = False

    @property
    def digest(self) -> str:
        """The content address (the spec digest — builds are pure)."""
        return self.spec.digest()

    @property
    def dtype(self) -> str:
        """Tensor dtype of the artifact (``float64`` or ``float32``)."""
        return str(self.rem.dtype)

    def astype(self, dtype) -> "RemArtifact":
        """A copy with both map layers cast to ``dtype``.

        ``run_job`` uses this to honor ``spec.dtype == "float32"``: the
        build always runs in float64, the persisted artifact carries
        the cast tensors (half the footprint, served values within
        1e-3 dB).
        """
        return replace(
            self,
            rem=self.rem.astype(dtype),
            uncertainty=(
                None if self.uncertainty is None else self.uncertainty.astype(dtype)
            ),
        )

    def content_hash(self) -> str:
        """SHA-256 over the actual tensor bytes and MAC lists.

        The digest addresses the artifact *a priori* (same spec ⇒ same
        build); the content hash lets tests and audits verify that two
        builds really were byte-identical.
        """
        blake = hashlib.sha256()
        for rem in (self.rem, self.uncertainty):
            if rem is None:
                blake.update(b"absent")
                continue
            blake.update(",".join(rem.mac_vocabulary).encode())
            blake.update(",".join(rem.macs).encode())
            blake.update(np.ascontiguousarray(rem.field_tensor()).tobytes())
        return blake.hexdigest()

    def record(self) -> Dict[str, object]:
        """The JSON sidecar payload (digest, spec, dtype, provenance)."""
        return {
            "format": _FORMAT,
            "digest": self.digest,
            "content_hash": self.content_hash(),
            "dtype": self.dtype,
            "spec": self.spec.to_dict(),
            "provenance": dict(self.provenance),
        }


def _layer_meta(rem: RadioEnvironmentMap) -> Dict[str, object]:
    """JSON-sidecar geometry/vocabulary record of one map layer."""
    return {
        "volume_min": [float(v) for v in rem.grid.volume.min_corner],
        "volume_max": [float(v) for v in rem.grid.volume.max_corner],
        "resolution_m": float(rem.grid.resolution_m),
        "vocabulary": list(rem.mac_vocabulary),
        "macs": list(rem.macs),
        "dtype": str(rem.dtype),
    }


def _layer_from_meta(
    meta: Dict[str, object], stack: np.ndarray
) -> RadioEnvironmentMap:
    """Rebuild one map layer from its sidecar record plus its tensor."""
    grid = RemGrid(
        volume=Cuboid(
            tuple(float(v) for v in meta["volume_min"]),
            tuple(float(v) for v in meta["volume_max"]),
        ),
        resolution_m=float(meta["resolution_m"]),
    )
    return RadioEnvironmentMap.from_stack(
        grid, list(meta["vocabulary"]), list(meta["macs"]), stack
    )


class ArtifactStore:
    """Content-addressed on-disk artifact collection.

    Layout per artifact: a ``<root>/<digest>.json`` sidecar (spec,
    provenance, storage record) plus the tensors as
    ``<digest>/<layer>_stack.npy`` (uncompressed, mmap-able).  Legacy
    ``<digest>.npz`` payloads from older stores are read, never
    written.  All methods are safe under concurrent use from one
    process; saves write via a temp directory + atomic rename so
    readers never observe a half-written artifact.  :meth:`digests`
    results are cached against the root directory's mtime, keeping
    :meth:`count` (the liveness probe's artifact counter) O(1) instead
    of a directory scan.

    ``default_format`` accepts only ``"npy"`` (anything else raises
    ``ValueError``); it survives only because the repository benchmark
    still passes it, and the next benchmark change drops it.
    """

    def __init__(self, root, default_format: str = "npy"):
        if default_format != "npy":
            raise ValueError(
                f"unknown storage format {default_format!r}; "
                "artifacts are always stored as npy"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._digest_cache: Optional[List[str]] = None
        self._digest_stamp: Optional[int] = None

    # ------------------------------------------------------------------
    def _sidecar_path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def _npz_path(self, digest: str) -> Path:
        return self.root / f"{digest}.npz"

    def _npy_dir(self, digest: str) -> Path:
        return self.root / digest

    def _payload_path(self, digest: str) -> Optional[Path]:
        if (self._npy_dir(digest) / _LAYER_FILES["rem"]).exists():
            return self._npy_dir(digest)
        if self._npz_path(digest).exists():
            return self._npz_path(digest)
        return None

    def __contains__(self, digest: str) -> bool:
        return (
            self._sidecar_path(digest).exists()
            and self._payload_path(digest) is not None
        )

    def digests(self) -> List[str]:
        """Digests of every stored artifact, sorted.

        The scan is cached against the root directory's mtime: saves
        (from this or any other process) touch the directory, anything
        else reuses the cached listing at the cost of one ``stat``.
        """
        with self._lock:
            stamp = self.root.stat().st_mtime_ns
            if self._digest_cache is None or stamp != self._digest_stamp:
                self._digest_cache = sorted(
                    p.stem for p in self.root.glob("*.json") if p.stem in self
                )
                self._digest_stamp = stamp
            return list(self._digest_cache)

    def count(self) -> int:
        """Number of stored artifacts — O(1) amortized (see digests)."""
        return len(self.digests())

    # ------------------------------------------------------------------
    def save(self, artifact: RemArtifact) -> Path:
        """Persist ``artifact`` under its digest; returns the payload path.

        Saving an already-stored digest is a no-op (content addressing:
        equal digests mean equal bytes) and returns the existing
        payload path, a legacy ``.npz`` archive included.
        """
        digest = artifact.digest
        sidecar_path = self._sidecar_path(digest)
        with self._lock:
            self._digest_cache = None
            if digest in self:
                return self._payload_path(digest)
            record = artifact.record()
            layers: Dict[str, object] = {"rem": _layer_meta(artifact.rem)}
            if artifact.uncertainty is not None:
                layers["unc"] = _layer_meta(artifact.uncertainty)
            record["storage"] = {"format": "npy", "layers": layers}
            payload_path = self._save_npy(artifact, digest)
            tmp_sidecar = sidecar_path.with_suffix(".json.tmp")
            try:
                tmp_sidecar.write_text(
                    json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                os.replace(tmp_sidecar, sidecar_path)
            finally:
                if tmp_sidecar.exists():
                    tmp_sidecar.unlink()
        return payload_path

    def _save_npy(self, artifact: RemArtifact, digest: str) -> Path:
        final_dir = self._npy_dir(digest)
        tmp_dir = self.root / f"{digest}.npy-tmp"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir()
        try:
            layers = {"rem": artifact.rem, "unc": artifact.uncertainty}
            for name, rem in layers.items():
                if rem is not None:
                    stack = np.ascontiguousarray(rem.field_tensor())
                    np.save(tmp_dir / _LAYER_FILES[name], stack, allow_pickle=False)
            # A save that died between this rename and its sidecar write
            # leaves an orphaned payload; rename(2) cannot replace a
            # non-empty directory, so drop it first.
            if final_dir.exists():
                shutil.rmtree(final_dir)
            os.replace(tmp_dir, final_dir)
        finally:
            if tmp_dir.exists():
                shutil.rmtree(tmp_dir)
        return final_dir

    # ------------------------------------------------------------------
    def load(self, digest: str, mmap: bool = False) -> RemArtifact:
        """Rebuild the artifact stored under ``digest`` (KeyError if absent).

        With ``mmap=True`` the tensors come back backed by read-only
        memory maps (``np.load(mmap_mode="r")``): pages fault in on
        first touch and live in the shared page cache, so concurrent
        worker processes serving the same artifact cost one physical
        copy.  Legacy ``npz`` artifacts cannot be mapped (zip archives)
        and always load eagerly.
        """
        # One read of the sidecar and no existence probes first: a
        # missing sidecar or payload file is the same "not stored"
        # KeyError that sidecar() raises.  (A ValueError out of the read
        # is a path no file can have, like one with a NUL byte.)
        missing = KeyError(f"no artifact {digest!r} in {self.root}")
        try:
            text = self._sidecar_path(digest).read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError, ValueError):
            raise missing from None
        sidecar = json.loads(text)
        storage = sidecar.get("storage", {"format": "npz"})
        try:
            if storage["format"] == "npz":
                with np.load(self._npz_path(digest)) as data:
                    rem = _rem_from_npz_payload(data, prefix="rem_")
                    uncertainty = (
                        _rem_from_npz_payload(data, prefix="unc_")
                        if "unc_stack" in data.files
                        else None
                    )
            else:
                rem, uncertainty = self._load_npy(digest, storage["layers"], mmap)
        except (FileNotFoundError, NotADirectoryError):
            raise missing from None
        return RemArtifact(
            spec=RemJobSpec.from_dict(sidecar["spec"]),
            rem=rem,
            uncertainty=uncertainty,
            provenance=dict(sidecar.get("provenance", {})),
        )

    def _load_npy(self, digest: str, layers: Dict, mmap: bool) -> tuple:
        directory = self._npy_dir(digest)
        mode = "r" if mmap else None
        maps = {
            name: _layer_from_meta(
                meta, np.load(directory / _LAYER_FILES[name], mmap_mode=mode)
            )
            for name, meta in layers.items()
        }
        return maps["rem"], maps.get("unc")

    def sidecar(self, digest: str) -> Dict[str, object]:
        """The JSON sidecar record of one artifact (KeyError if absent).

        This is the cheap half of :meth:`load`: spec, provenance and
        storage record without touching the tensors — what the report
        stage aggregates over.
        """
        if digest not in self:
            raise KeyError(f"no artifact {digest!r} in {self.root}")
        return json.loads(self._sidecar_path(digest).read_text(encoding="utf-8"))

    def list(self) -> List[Dict[str, object]]:
        """Sidecar records of every stored artifact, sorted by digest."""
        return [self.sidecar(digest) for digest in self.digests()]
