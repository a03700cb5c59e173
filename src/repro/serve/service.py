"""The REM-serving layer: typed queries over stored artifacts.

:class:`RemService` is the in-process query engine the HTTP front end
(and any embedded consumer) talks to.  It keeps a thread-safe LRU of
loaded artifacts over an :class:`~repro.serve.artifact.ArtifactStore`
and answers four typed request shapes — batched point/MAC queries,
strongest-AP handover lookups, per-AP coverage fractions and
dark-region extraction — each as one vectorized reduction on the
artifact's stacked REM tensor (§I's downstream uses of the map).
Served answers are bit-for-bit the direct
:class:`~repro.core.rem.RadioEnvironmentMap` calls.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .artifact import ArtifactStore, RemArtifact
from .spec import RemJobSpec

__all__ = [
    "QueryRequest",
    "StrongestApRequest",
    "CoverageRequest",
    "DarkRegionsRequest",
    "QueryResponse",
    "StrongestApResponse",
    "CoverageResponse",
    "DarkRegionsResponse",
    "RemService",
    "request_from_dict",
    "requests_from_list",
]


# ----------------------------------------------------------------------
# typed requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """Batched RSS lookup: ``points × macs`` against one artifact."""

    digest: str
    points: Sequence[Sequence[float]]
    #: MACs to evaluate (``None`` = every mapped AP).
    macs: Optional[Sequence[str]] = None


@dataclass(frozen=True)
class StrongestApRequest:
    """Best-serving AP and its RSS at every point (handover planning)."""

    digest: str
    points: Sequence[Sequence[float]]


@dataclass(frozen=True)
class CoverageRequest:
    """Per-AP coverage fractions above a service threshold."""

    digest: str
    threshold_dbm: float


@dataclass(frozen=True)
class DarkRegionsRequest:
    """Lattice points no AP serves above the threshold (§I planning)."""

    digest: str
    threshold_dbm: float
    #: Cap on returned points (0 = all); the fraction is always exact.
    max_points: int = 0

    def __post_init__(self) -> None:
        if self.max_points < 0:
            raise ValueError(
                f"max_points must be >= 0 (0 = no cap), got {self.max_points}"
            )


# ----------------------------------------------------------------------
# typed responses
# ----------------------------------------------------------------------
def _format_values(values: np.ndarray) -> str:
    """Compact JSON for a 2-D float array, 9-decimal fixed point.

    Fixed-point formatting perturbs each value by ≤ 5e-10 dB — inside
    the 1e-9 served-vs-direct pin — and beats the stdlib encoder's
    shortest-repr float algorithm by ~2x, which matters at thousands
    of query responses per second.  Non-finite values fall back to the
    stdlib encoder (fixed point cannot spell them).
    """
    array = np.asarray(values, dtype=float)
    if not np.isfinite(array).all():
        return json.dumps(np.round(array, 9).tolist())
    rows = array.tolist()
    if not rows:
        return "[]"
    return (
        "[["
        + "],[".join(",".join([f"{v:.9f}" for v in row]) for row in rows)
        + "]]"
    )


@dataclass
class QueryResponse:
    """Answer to a :class:`QueryRequest`."""

    digest: str
    macs: List[str]
    #: ``(n_points, n_macs)`` interpolated RSS (dBm).
    values: np.ndarray

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form.

        Values are rounded to 9 decimals (≤ 5e-10 dB perturbation,
        inside the 1e-9 served-vs-direct pin): the shorter reprs cut
        the JSON-encode cost and payload size of the serving hot path.
        """
        return {
            "digest": self.digest,
            "macs": list(self.macs),
            "values": np.round(self.values, 9).tolist(),
        }

    def to_json(self) -> str:
        """Wire JSON, using the fast fixed-point value encoder."""
        return (
            f'{{"digest": {json.dumps(self.digest)}, '
            f'"macs": {json.dumps(list(self.macs))}, '
            f'"values": {_format_values(self.values)}}}'
        )


@dataclass
class StrongestApResponse:
    """Answer to a :class:`StrongestApRequest`."""

    digest: str
    macs: List[str]
    rss_dbm: np.ndarray

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form."""
        return {
            "digest": self.digest,
            "macs": list(self.macs),
            "rss_dbm": self.rss_dbm.tolist(),
        }

    def to_json(self) -> str:
        """Wire JSON (stdlib encoding of :meth:`to_dict`)."""
        return json.dumps(self.to_dict())


@dataclass
class CoverageResponse:
    """Answer to a :class:`CoverageRequest`."""

    digest: str
    threshold_dbm: float
    by_mac: Dict[str, float]
    dark_fraction: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form."""
        return {
            "digest": self.digest,
            "threshold_dbm": self.threshold_dbm,
            "by_mac": dict(self.by_mac),
            "dark_fraction": self.dark_fraction,
        }

    def to_json(self) -> str:
        """Wire JSON (stdlib encoding of :meth:`to_dict`)."""
        return json.dumps(self.to_dict())


@dataclass
class DarkRegionsResponse:
    """Answer to a :class:`DarkRegionsRequest`."""

    digest: str
    threshold_dbm: float
    dark_fraction: float
    points: np.ndarray
    truncated: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form."""
        return {
            "digest": self.digest,
            "threshold_dbm": self.threshold_dbm,
            "dark_fraction": self.dark_fraction,
            "points": self.points.tolist(),
            "truncated": self.truncated,
        }

    def to_json(self) -> str:
        """Wire JSON (stdlib encoding of :meth:`to_dict`)."""
        return json.dumps(self.to_dict())


#: Wire names of the request types (the HTTP body's ``type`` field).
_REQUEST_TYPES = {
    "query": QueryRequest,
    "strongest_ap": StrongestApRequest,
    "coverage": CoverageRequest,
    "dark_regions": DarkRegionsRequest,
}


def request_from_dict(digest: str, data: Dict[str, object]):
    """Build the typed request a JSON body describes.

    ``data`` carries a ``type`` key naming the request shape plus its
    parameters; ``digest`` comes from the URL.  Raises ``ValueError``
    on unknown types or parameters.
    """
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    kind = data.get("type", "query")
    cls = _REQUEST_TYPES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown request type {kind!r}; choose from {sorted(_REQUEST_TYPES)}"
        )
    params = {k: v for k, v in data.items() if k != "type"}
    params.pop("digest", None)  # the URL owns the digest
    try:
        return cls(digest=digest, **params)
    except TypeError as exc:
        raise ValueError(f"bad {kind!r} request: {exc}") from None


def requests_from_list(items) -> List:
    """Typed requests for a ``POST /v1/batch`` body.

    ``items`` is a list of request objects, each carrying its own
    ``digest`` alongside the ``type`` and parameters that
    :func:`request_from_dict` understands.  Raises ``ValueError`` on
    malformed envelopes so the HTTP layer can answer 400.
    """
    if not isinstance(items, list) or not items:
        raise ValueError("batch body must be a non-empty JSON array of requests")
    requests = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"batch item {index} must be a JSON object")
        digest = item.get("digest")
        if not isinstance(digest, str) or not digest:
            raise ValueError(f"batch item {index} is missing its 'digest'")
        payload = {k: v for k, v in item.items() if k != "digest"}
        requests.append(request_from_dict(digest, payload))
    return requests


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class RemService:
    """Thread-safe serving facade over an artifact store.

    Loaded artifacts live in an LRU bounded by ``capacity``; every
    request type dispatches through :meth:`handle` to a vectorized
    reduction on the artifact's REM.  The service is safe to hammer
    from many threads: the LRU is lock-protected and the reductions
    only read the (effectively immutable) loaded tensors.
    """

    def __init__(self, store: ArtifactStore, capacity: int = 4, mmap: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.store = store
        self.capacity = int(capacity)
        #: Load artifacts as read-only memory maps, so concurrent
        #: worker processes share one page-cache copy (the cluster
        #: workers run with ``mmap=True``).
        self.mmap = bool(mmap)
        self._lock = threading.RLock()
        self._cache: "OrderedDict[str, RemArtifact]" = OrderedDict()
        self._stats = {"hits": 0, "misses": 0, "evictions": 0, "peak_size": 0}

    # ------------------------------------------------------------------
    def artifact(self, digest: str) -> RemArtifact:
        """The loaded artifact for ``digest`` (LRU-cached)."""
        with self._lock:
            cached = self._cache.get(digest)
            if cached is not None:
                self._cache.move_to_end(digest)
                self._stats["hits"] += 1
                return cached
            artifact = self.store.load(digest, mmap=self.mmap)
            self._stats["misses"] += 1
            self._insert(digest, artifact)
            return artifact

    def _insert(self, digest: str, artifact: RemArtifact) -> None:
        self._cache[digest] = artifact
        self._cache.move_to_end(digest)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self._stats["evictions"] += 1
        self._stats["peak_size"] = max(self._stats["peak_size"], len(self._cache))

    def cache_info(self) -> Dict[str, int]:
        """LRU statistics (size, capacity, hits, misses, evictions)."""
        with self._lock:
            return {
                "size": len(self._cache),
                "capacity": self.capacity,
                **self._stats,
            }

    # ------------------------------------------------------------------
    def submit(self, spec: RemJobSpec) -> RemArtifact:
        """Run (or fetch) a job through the store and prime the LRU.

        A spec whose artifact is already stored resolves through
        :meth:`artifact`, so an ``mmap=True`` service caches the memory
        map and not a private heap copy; the caller gets it back with
        ``cache_hit=True``.  A fresh build enters the LRU as a copy
        stripped of the in-memory toolchain result (campaign log,
        fitted predictor, ...): serving only ever reads the map
        tensors, and a long-lived server must not retain one whole
        build state per cached artifact.
        """
        from .jobs import run_job

        digest = spec.digest()
        try:
            return replace(self.artifact(digest), cache_hit=True)
        except KeyError:
            pass
        artifact = run_job(spec, self.store)
        with self._lock:
            self._insert(artifact.digest, replace(artifact, result=None))
        return artifact

    def artifacts(self) -> List[Dict[str, object]]:
        """Sidecar records of everything the store holds."""
        return self.store.list()

    def artifact_count(self) -> int:
        """Stored-artifact count, O(1) amortized (liveness probes)."""
        return self.store.count()

    # ------------------------------------------------------------------
    def _handler(self, request):
        """The reduction that answers ``request``'s type."""
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            raise TypeError(f"unsupported request {type(request).__name__}")
        return handler

    def handle(self, request):
        """Dispatch any typed request to its reduction."""
        handler = self._handler(request)
        return handler(self, request, self.artifact(request.digest))

    def handle_many(self, requests: Sequence) -> List:
        """Answer a heterogeneous batch of typed requests in order.

        The cross-request batch primitive behind ``POST /v1/batch``:
        one HTTP+JSON round trip amortized over many reductions.  Items
        are grouped by digest and each digest is looked up once: the
        digests already in the LRU first (oldest first, so the batch
        keeps their recency order), then the absent ones.  A group
        holds its artifact only while its own items run, so a batch
        keeps no more maps alive than the LRU does.  Answers and
        errors are those of the per-item loop: responses come back in
        request order, and a failing batch raises the error of its
        first failing item.
        """
        responses: List = [None] * len(requests)
        # (index, error) of the earliest failing item so far.
        failed: Optional[Tuple[int, Exception]] = None
        groups: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            try:
                self._handler(request)
            except TypeError as exc:
                failed = (index, exc)
                break
            groups.setdefault(request.digest, []).append(index)
        with self._lock:
            cached = [d for d in self._cache if d in groups]
            order = cached + [d for d in groups if d not in self._cache]

        for digest in order:
            indices = groups[digest]
            if failed is not None and indices[0] > failed[0]:
                continue  # the per-item loop would have stopped earlier
            try:
                artifact = self.artifact(digest)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                failed = (indices[0], exc)
                continue
            for index in indices:
                if failed is not None and index > failed[0]:
                    break
                request = requests[index]
                try:
                    responses[index] = self._handler(request)(self, request, artifact)
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    failed = (index, exc)
                    break
            # Drop the reference before the next lookup can evict it.
            del artifact
        if failed is not None:
            raise failed[1]
        return responses

    # Each reduction answers one request from its resolved artifact.
    def query(self, request: QueryRequest, artifact: RemArtifact) -> QueryResponse:
        """Batched trilinear RSS lookup (≡ ``rem.query_many``)."""
        rem = artifact.rem
        if request.macs is not None:
            macs = list(request.macs)
            values = rem.query_many(request.points, macs)
        else:
            # Let query_many take its cached all-APs fast path instead
            # of re-validating an explicit (identical) MAC list.
            macs = list(rem.macs)
            values = rem.query_many(request.points)
        return QueryResponse(digest=request.digest, macs=macs, values=values)

    def strongest_ap(
        self, request: StrongestApRequest, artifact: RemArtifact
    ) -> StrongestApResponse:
        """Best-serving AP per point (≡ ``rem.strongest_ap_many``)."""
        rem = artifact.rem
        macs, rss = rem.strongest_ap_many(request.points)
        return StrongestApResponse(digest=request.digest, macs=macs, rss_dbm=rss)

    def coverage(
        self, request: CoverageRequest, artifact: RemArtifact
    ) -> CoverageResponse:
        """Per-AP coverage + dark fraction (≡ the REM reductions)."""
        rem = artifact.rem
        return CoverageResponse(
            digest=request.digest,
            threshold_dbm=float(request.threshold_dbm),
            by_mac=rem.coverage_by_mac(float(request.threshold_dbm)),
            dark_fraction=rem.dark_fraction(float(request.threshold_dbm)),
        )

    def dark_regions(
        self, request: DarkRegionsRequest, artifact: RemArtifact
    ) -> DarkRegionsResponse:
        """Unserved lattice points (≡ ``rem.dark_points``)."""
        rem = artifact.rem
        threshold = float(request.threshold_dbm)
        points = rem.dark_points(threshold)
        truncated = False
        if request.max_points and len(points) > request.max_points:
            points = points[: int(request.max_points)]
            truncated = True
        return DarkRegionsResponse(
            digest=request.digest,
            threshold_dbm=threshold,
            dark_fraction=rem.dark_fraction(threshold),
            points=points,
            truncated=truncated,
        )

    _HANDLERS = {
        QueryRequest: query,
        StrongestApRequest: strongest_ap,
        CoverageRequest: coverage,
        DarkRegionsRequest: dark_regions,
    }
