"""``repro.serve`` — build once, persist, serve many.

The unified job/artifact API over the whole toolchain:

* :class:`RemJobSpec` (:mod:`~repro.serve.spec`) — one JSON record
  naming a complete, reproducible REM build; its canonical-JSON
  SHA-256 is the job digest;
* :func:`run_job` (:mod:`~repro.serve.jobs`) — the single build
  facade: spec in, :class:`RemArtifact` out, cache hit when the spec's
  digest is already stored;
* :class:`RemArtifact` / :class:`ArtifactStore`
  (:mod:`~repro.serve.artifact`) — the persisted product (REM +
  uncertainty tensors as mmap-able ``.npy`` files, spec + provenance
  as a JSON sidecar) under a content-addressed store;
* :class:`JobSetSpec` / :class:`JobSetRunner`
  (:mod:`~repro.serve.jobset`) — the campaign factory: a cartesian
  sweep grid expanded into job specs and fanned out over worker
  processes, resumable against the store (``repro jobs sweep``);
* :class:`RemService` (:mod:`~repro.serve.service`) — thread-safe LRU
  serving layer answering typed query/strongest-AP/coverage/dark-region
  requests as vectorized REM reductions;
* :func:`create_server` (:mod:`~repro.serve.http`) — the stdlib
  JSON/HTTP front end (``repro serve`` on the CLI);
* :class:`RemCluster` (:mod:`~repro.serve.cluster`) — pre-forked
  multi-process serving over one ``SO_REUSEPORT`` address with
  shared-page-cache artifacts (``repro serve --workers N``);
* :mod:`~repro.serve.loadgen` — the keep-alive/pipelined load
  generator behind ``benchmarks/bench_loadgen.py``.
"""

from .artifact import ArtifactStore, RemArtifact
from .cluster import RemCluster, process_rss_bytes
from .http import RemHttpServer, create_server
from .jobs import run_job
from .jobset import (
    JobRecord,
    JobSetProgress,
    JobSetResult,
    JobSetRunner,
    JobSetSpec,
    run_jobset,
)
from .service import (
    CoverageRequest,
    CoverageResponse,
    DarkRegionsRequest,
    DarkRegionsResponse,
    QueryRequest,
    QueryResponse,
    RemService,
    StrongestApRequest,
    StrongestApResponse,
    request_from_dict,
    requests_from_list,
)
from .spec import PREDICTOR_FACTORIES, RemJobSpec

__all__ = [
    "RemJobSpec",
    "PREDICTOR_FACTORIES",
    "run_job",
    "RemArtifact",
    "ArtifactStore",
    "JobSetSpec",
    "JobSetRunner",
    "JobSetResult",
    "JobRecord",
    "JobSetProgress",
    "run_jobset",
    "RemService",
    "QueryRequest",
    "QueryResponse",
    "StrongestApRequest",
    "StrongestApResponse",
    "CoverageRequest",
    "CoverageResponse",
    "DarkRegionsRequest",
    "DarkRegionsResponse",
    "request_from_dict",
    "requests_from_list",
    "RemHttpServer",
    "RemCluster",
    "process_rss_bytes",
    "create_server",
]
