"""The campaign factory: spec grids, parallel fan-out, resumable sweeps.

One :class:`~repro.serve.spec.RemJobSpec` names one build; a
:class:`JobSetSpec` names a whole *campaign* — the cartesian grid over
scenario templates × seeds × predictors × acquisition modes ×
resolutions — and expands it deterministically into concrete job
specs.  Like a job spec, a job set round-trips through JSON and hashes
into a digest of its own, so a sweep is as reproducible (and as
content-addressable) as a single build.

The :class:`JobSetRunner` fans the grid out over a pool of worker
processes (one per core by default, spawn-safe: workers re-import the
package and rebuild their own :class:`~repro.serve.ArtifactStore`
handle) and is **resumable by construction**: every finished job lives
in the content-addressed store under its digest, so a crashed,
SIGKILL-ed or Ctrl-C-ed sweep simply restarts and skips everything
already built.  Per-job robustness comes from three knobs:

* ``timeout_s`` — a worker stuck past the deadline is killed and
  replaced, the job is recorded as failed;
* a ``failed.json`` ledger in the store root capturing the spec,
  error and traceback of every failure (rewritten atomically after
  each one, so a crashed sweep keeps its ledger);
* ``max_failures`` — a circuit breaker: once more than this many jobs
  have failed the sweep stops dispatching and marks the remainder
  ``skipped``.

Progress (including an ETA extrapolated from completed builds) is
reported through an optional callback after every job settles.  The
CLI verbs ``repro jobs sweep`` and ``repro report`` sit on top.
"""

from __future__ import annotations

import itertools
import json
import ctypes
import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field, fields
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Tuple

from .artifact import ArtifactStore
from .jobs import run_job
from .spec import PREDICTOR_FACTORIES, RemJobSpec

__all__ = [
    "JobSetSpec",
    "JobSetRunner",
    "JobSetResult",
    "JobRecord",
    "JobSetProgress",
    "run_jobset",
    "FAILED_LEDGER",
]

#: Grid axes in expansion order; each maps to the RemJobSpec field it
#: overrides per cell.
_AXES = (
    ("scenarios", "scenario"),
    ("seeds", "seed"),
    ("predictors", "predictor"),
    ("acquisitions", "acquisition"),
    ("resolutions", "resolution_m"),
)

#: File name of the per-sweep failure ledger inside the store root.
FAILED_LEDGER = "failed.json"

#: Test/ops hook: seconds every job execution sleeps before building
#: (read from the environment in the worker, so kill/timeout behavior
#: can be exercised deterministically).
_DELAY_ENV = "REPRO_JOBSET_DELAY_S"


@dataclass(frozen=True)
class JobSetSpec:
    """A cartesian sweep grid over :class:`RemJobSpec` fields.

    Every combination of the five axes becomes one job; ``base``
    carries the non-axis spec fields shared by every cell (active
    tunables, preprocessing knobs, dtype, ...).  Two conveniences keep
    arbitrary grids valid without per-cell surgery:

    * ``tune`` (from ``base``) only applies to cells it is legal for —
      the k-NN predictor with no explicit hyperparameters; every other
      cell runs untuned.  When ``base`` omits ``tune``, all cells run
      untuned so predictors compare at fixed hyperparameters.
    * ``active`` tunables and ``hyperparameters`` attach only to the
      cells they describe (``acquisition == "active"`` respectively
      ``predictor == "knn"``-family members that accept them) — see
      :meth:`jobs`.
    """

    scenarios: Tuple[str, ...] = ("condo",)
    seeds: Tuple[int, ...] = (63,)
    predictors: Tuple[str, ...] = ("knn",)
    acquisitions: Tuple[str, ...] = ("lattice",)
    resolutions: Tuple[float, ...] = (0.25,)
    #: Shared non-axis :class:`RemJobSpec` fields for every cell.
    base: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "predictors", tuple(self.predictors))
        object.__setattr__(self, "acquisitions", tuple(self.acquisitions))
        object.__setattr__(
            self, "resolutions", tuple(float(r) for r in self.resolutions)
        )
        object.__setattr__(self, "base", dict(self.base))
        for axis, _ in _AXES:
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"job-set axis {axis!r} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"job-set axis {axis!r} has duplicates: {values}")
        spec_fields = {f.name for f in fields(RemJobSpec)}
        axis_fields = {spec_field for _, spec_field in _AXES}
        bad = sorted(set(self.base) - (spec_fields - axis_fields))
        if bad:
            raise ValueError(
                f"base may not carry {bad}; grid axes own "
                f"{sorted(axis_fields)} and all keys must be RemJobSpec fields"
            )
        unknown = sorted(set(self.predictors) - set(PREDICTOR_FACTORIES))
        if unknown:
            raise ValueError(
                f"unknown predictor(s) {unknown}; "
                f"choose from {sorted(PREDICTOR_FACTORIES)}"
            )
        # Expand eagerly: a typo'd scenario / invalid field combination
        # is a spec error at the API boundary, not a failed sweep cell.
        self.jobs()

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of grid cells (jobs) the spec expands to."""
        total = 1
        for axis, _ in _AXES:
            total *= len(getattr(self, axis))
        return total

    def jobs(self) -> List[RemJobSpec]:
        """The grid, expanded deterministically (axis-product order)."""
        specs = []
        axis_values = [getattr(self, axis) for axis, _ in _AXES]
        for cell in itertools.product(*axis_values):
            params = dict(self.base)
            for (_, spec_field), value in zip(_AXES, cell):
                params[spec_field] = value
            # tune is only legal for the untouched k-NN family; active
            # tunables only for active cells.  Dropping them elsewhere
            # keeps one base valid across a heterogeneous grid.
            if params.get("predictor") != "knn" or params.get("hyperparameters"):
                params["tune"] = False
            else:
                params.setdefault("tune", False)
            if params.get("acquisition") not in ("active", "fleet"):
                params.pop("active", None)
            if params.get("acquisition") != "fleet":
                params.pop("fleet", None)
            specs.append(RemJobSpec.from_dict(params))
        return specs

    # ------------------------------------------------------------------
    # JSON round-trip and content addressing (mirrors RemJobSpec)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-compatible dict with every field explicit."""
        return {
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "predictors": list(self.predictors),
            "acquisitions": list(self.acquisitions),
            "resolutions": list(self.resolutions),
            "base": dict(self.base),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSetSpec":
        """Inverse of :meth:`to_dict` (unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown job-set field(s) {unknown}; choose from {sorted(known)}"
            )
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Human-friendly JSON form."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "JobSetSpec":
        """Parse a job-set spec from JSON text."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a job-set spec must be a JSON object")
        return cls.from_dict(data)

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form — the sweep's identity."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class JobRecord:
    """Outcome of one grid cell."""

    digest: str
    spec: Dict[str, object]
    #: ``built`` (fresh build), ``cached`` (already in the store —
    #: a resume hit), ``failed`` (error/timeout/worker death) or
    #: ``skipped`` (never dispatched: the circuit breaker tripped).
    status: str
    wall_s: float = 0.0
    error: Optional[str] = None


@dataclass(frozen=True)
class JobSetProgress:
    """One progress tick, delivered after every job settles."""

    total: int
    done: int
    built: int
    cached: int
    failed: int
    elapsed_s: float
    #: Remaining wall-clock estimate from the mean build time so far:
    #: ``None`` until the first fresh build lands, ``0.0`` once every
    #: job has settled (notably the all-cache-hit sweep, which never
    #: sees a build to extrapolate from).
    eta_s: Optional[float]
    #: The job that just settled.
    digest: str
    status: str


@dataclass
class JobSetResult:
    """Everything one sweep produced (or skipped)."""

    jobset_digest: str
    records: List[JobRecord]
    elapsed_s: float
    #: True when the ``max_failures`` circuit breaker tripped (or the
    #: sweep was interrupted) before every job was dispatched.
    aborted: bool = False

    def _count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    @property
    def built(self) -> int:
        """Jobs built fresh by this run."""
        return self._count("built")

    @property
    def cached(self) -> int:
        """Jobs already in the store (resume cache hits)."""
        return self._count("cached")

    @property
    def failed(self) -> int:
        """Jobs that errored, timed out, or lost their worker."""
        return self._count("failed")

    @property
    def skipped(self) -> int:
        """Jobs never dispatched (circuit breaker tripped)."""
        return self._count("skipped")

    def summary(self) -> Dict[str, object]:
        """JSON-ready headline record of the sweep."""
        return {
            "jobset_digest": self.jobset_digest,
            "total": len(self.records),
            "built": self.built,
            "cached": self.cached,
            "failed": self.failed,
            "skipped": self.skipped,
            "aborted": self.aborted,
            "elapsed_s": self.elapsed_s,
        }


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
try:  # glibc only; other allocators keep their own rules
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # pragma: no cover - non-glibc
    _malloc_trim = None


def _execute_job(spec_dict: Dict[str, object], store: ArtifactStore) -> Dict:
    """Run one job against the store; returns the result payload."""
    delay = float(os.environ.get(_DELAY_ENV, "0") or 0.0)
    if delay > 0:
        time.sleep(delay)
    start = time.perf_counter()
    spec = RemJobSpec.from_dict(spec_dict)
    artifact = run_job(spec, store)
    result = {
        "digest": artifact.digest,
        "cache_hit": artifact.cache_hit,
        "wall_s": time.perf_counter() - start,
    }
    del artifact
    _return_free_heap()
    return result


def _return_free_heap() -> None:
    """Hand the pages of a finished job's freed memory back to the OS.

    One process runs job after job.  glibc serves a build's mid-sized
    arrays (the per-MAC k-NN gathers, the online builder's scoring
    blocks) from the heap once its dynamic mmap threshold has risen,
    and a free there only shrinks the heap from the top, so freed
    blocks below a live one stay resident.  How much of one job's
    memory the next job started with then depended on allocation
    order: 16 or 55 MB after the same sweep cell, and a 22 MB higher
    peak in the next one.  ``malloc_trim`` returns every free page.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _worker_main(conn, store_root: str, cache_dir: Optional[str] = None) -> None:
    """Worker-process loop: recv job dicts, build, send results.

    Spawn-safe by construction — everything arrives through the pipe
    or the picklable arguments, and the store handle is rebuilt here.
    Each worker keeps its own process-level scenario/campaign LRU (so
    sweep cells sharing a world fly it once per worker) and points the
    on-disk field tier at a directory shared under the store root, so
    derived arrays (ground-truth fields) are memory-mapped across the
    pool instead of recomputed.
    """
    if cache_dir:
        from ..radio.scenario_cache import configure_default_cache

        configure_default_cache(disk_root=cache_dir)
    store = ArtifactStore(store_root)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died: exit quietly
            return
        if message[0] == "stop":
            return
        _, spec_dict = message
        start = time.perf_counter()
        try:
            payload = _execute_job(spec_dict, store)
            conn.send(("done", payload))
        except BaseException as exc:  # noqa: BLE001 - ledger wants everything
            conn.send(
                (
                    "fail",
                    {
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                        "wall_s": time.perf_counter() - start,
                    },
                )
            )


class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(self, ctx, store_root: str, cache_dir: Optional[str] = None):
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, store_root, cache_dir),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: The in-flight (digest, spec_dict, started_at) or None.
        self.current: Optional[Tuple[str, Dict[str, object], float]] = None

    @property
    def busy(self) -> bool:
        return self.current is not None

    def dispatch(self, digest: str, spec_dict: Dict[str, object]) -> None:
        self.conn.send(("job", spec_dict))
        self.current = (digest, spec_dict, time.monotonic())

    def deadline_exceeded(self, timeout_s: Optional[float]) -> bool:
        if timeout_s is None or self.current is None:
            return False
        return time.monotonic() - self.current[2] > timeout_s

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        self.process.join(timeout=5.0)
        self.conn.close()

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.kill()
        else:
            self.conn.close()


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class JobSetRunner:
    """Fan a :class:`JobSetSpec` out over worker processes.

    Parameters
    ----------
    store:
        The content-addressed artifact store shared by every worker.
        It doubles as the resume journal: cells whose digest is
        already present are recorded as ``cached`` without dispatch.
    workers:
        Worker-process count; ``None`` = one per core, ``0`` = run
        inline in this process (serial — no subprocesses, and
        ``timeout_s`` cannot interrupt a running build).
    timeout_s:
        Per-job wall-clock budget.  A worker past it is SIGKILL-ed and
        replaced; the job is recorded as failed.
    max_failures:
        Circuit breaker: once failures exceed this count the sweep
        stops dispatching and marks the remaining cells ``skipped``
        (``None`` = never trip).
    progress:
        Callback invoked with a :class:`JobSetProgress` after every
        job settles (cache hits included).
    start_method:
        ``multiprocessing`` start method (``"spawn"`` by default —
        the safe-everywhere choice; ``"fork"`` starts faster where
        available).
    """

    def __init__(
        self,
        store: ArtifactStore,
        workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
        max_failures: Optional[int] = None,
        progress: Optional[Callable[[JobSetProgress], None]] = None,
        start_method: str = "spawn",
    ):
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if max_failures is not None and max_failures < 0:
            raise ValueError("max_failures must be >= 0")
        self.store = store
        self.workers = workers
        self.timeout_s = timeout_s
        self.max_failures = max_failures
        self.progress = progress
        self.start_method = start_method
        self._workers: List[_Worker] = []

    # -- bookkeeping ---------------------------------------------------
    def _start_run(self, jobset: JobSetSpec) -> None:
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._failures: List[Dict[str, object]] = []
        self._build_wall_sum = 0.0
        self._t0 = time.perf_counter()
        self._total = jobset.count
        ledger = self.store.root / FAILED_LEDGER
        if ledger.exists():
            ledger.unlink()

    def _settle(
        self,
        digest: str,
        spec_dict: Dict[str, object],
        status: str,
        wall_s: float = 0.0,
        error: Optional[str] = None,
    ) -> None:
        if digest not in self._records:
            self._order.append(digest)
        self._records[digest] = JobRecord(
            digest=digest, spec=spec_dict, status=status, wall_s=wall_s, error=error
        )
        if status == "built":
            self._build_wall_sum += wall_s
        if self.progress is not None and status != "skipped":
            built = sum(1 for r in self._records.values() if r.status == "built")
            cached = sum(1 for r in self._records.values() if r.status == "cached")
            failed = sum(1 for r in self._records.values() if r.status == "failed")
            done = built + cached + failed
            remaining = self._total - done
            eta = None
            if remaining == 0:
                # Nothing left — in particular the all-cache-hit sweep,
                # where no build ever lands to extrapolate a rate from:
                # the only honest ETA is zero, not "unknown".
                eta = 0.0
            elif built:
                parallelism = max(1, len(self._workers)) if self._workers else 1
                eta = (self._build_wall_sum / built) * remaining / parallelism
            self.progress(
                JobSetProgress(
                    total=self._total,
                    done=done,
                    built=built,
                    cached=cached,
                    failed=failed,
                    elapsed_s=time.perf_counter() - self._t0,
                    eta_s=eta,
                    digest=digest,
                    status=status,
                )
            )

    def _record_failure(
        self,
        digest: str,
        spec_dict: Dict[str, object],
        error: str,
        wall_s: float,
        trace: Optional[str] = None,
    ) -> None:
        self._settle(digest, spec_dict, "failed", wall_s=wall_s, error=error)
        self._failures.append(
            {
                "digest": digest,
                "spec": spec_dict,
                "error": error,
                "traceback": trace,
                "wall_s": wall_s,
            }
        )
        self._write_ledger()

    def _write_ledger(self) -> None:
        """Atomically (re)write ``failed.json`` in the store root."""
        ledger = self.store.root / FAILED_LEDGER
        tmp = ledger.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"failures": self._failures}, indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, ledger)

    def _tripped(self) -> bool:
        return (
            self.max_failures is not None
            and len(self._failures) > self.max_failures
        )

    # -- execution -----------------------------------------------------
    def run(self, jobset: JobSetSpec) -> JobSetResult:
        """Execute (or resume) the sweep; returns the per-job records."""
        self._start_run(jobset)
        pending: List[Tuple[str, Dict[str, object]]] = []
        existing = set(self.store.digests())
        for spec in jobset.jobs():
            digest = spec.digest()
            if digest in self._records:
                continue  # distinct cells, identical job: run once
            if digest in existing:
                self._settle(digest, spec.to_dict(), "cached")
            else:
                self._records[digest] = JobRecord(
                    digest=digest, spec=spec.to_dict(), status="skipped"
                )
                self._order.append(digest)
                pending.append((digest, spec.to_dict()))

        aborted = False
        if pending:
            n_workers = self.workers
            if n_workers is None:
                n_workers = os.cpu_count() or 1
            n_workers = min(n_workers, len(pending))
            try:
                if n_workers == 0:
                    aborted = self._run_inline(pending)
                else:
                    aborted = self._run_pool(pending, n_workers)
            finally:
                for worker in self._workers:
                    worker.kill()
                self._workers = []

        records = [self._records[d] for d in self._order]
        return JobSetResult(
            jobset_digest=jobset.digest(),
            records=records,
            elapsed_s=time.perf_counter() - self._t0,
            aborted=aborted,
        )

    def _run_inline(self, pending) -> bool:
        """Serial in-process execution (``workers=0``)."""
        for index, (digest, spec_dict) in enumerate(pending):
            if self._tripped():
                return True
            start = time.perf_counter()
            try:
                payload = _execute_job(spec_dict, self.store)
            except Exception as exc:  # noqa: BLE001 - ledger wants everything
                self._record_failure(
                    digest,
                    spec_dict,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - start,
                    traceback.format_exc(),
                )
            else:
                status = "cached" if payload["cache_hit"] else "built"
                self._settle(digest, spec_dict, status, wall_s=payload["wall_s"])
        return self._tripped()

    def _spawn_worker(self, ctx) -> _Worker:
        return _Worker(
            ctx, str(self.store.root), cache_dir=str(self.store.root / "scenario_cache")
        )

    def _run_pool(self, pending, n_workers: int) -> bool:
        """Parallel execution over ``n_workers`` worker processes."""
        ctx = get_context(self.start_method)
        queue = list(pending)
        self._workers = [self._spawn_worker(ctx) for _ in range(n_workers)]
        in_flight = 0

        def dispatch_all() -> int:
            count = 0
            if self._tripped():
                return 0
            for worker in self._workers:
                if not queue:
                    break
                if not worker.busy and worker.process.is_alive():
                    digest, spec_dict = queue.pop(0)
                    worker.dispatch(digest, spec_dict)
                    count += 1
            return count

        in_flight += dispatch_all()
        while in_flight:
            conns = [w.conn for w in self._workers if w.busy]
            tick = 0.05 if self.timeout_s is not None else 0.5
            ready = connection_wait(conns, timeout=tick)
            for conn in ready:
                worker = next(w for w in self._workers if w.conn is conn)
                digest, spec_dict, started = worker.current
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    # The worker died under us (SIGKILL, OOM, crash):
                    # record the in-flight job and replace the worker.
                    exitcode = worker.process.exitcode
                    worker.kill()
                    self._workers.remove(worker)
                    self._record_failure(
                        digest,
                        spec_dict,
                        f"worker died (exitcode {exitcode})",
                        time.monotonic() - started,
                    )
                    in_flight -= 1
                    if queue and not self._tripped():
                        self._workers.append(self._spawn_worker(ctx))
                    continue
                worker.current = None
                in_flight -= 1
                if kind == "done":
                    status = "cached" if payload["cache_hit"] else "built"
                    self._settle(
                        digest, spec_dict, status, wall_s=payload["wall_s"]
                    )
                else:
                    self._record_failure(
                        digest,
                        spec_dict,
                        payload["error"],
                        payload["wall_s"],
                        payload.get("traceback"),
                    )
            # Enforce per-job deadlines on whoever is still busy.
            for worker in list(self._workers):
                if worker.busy and worker.deadline_exceeded(self.timeout_s):
                    digest, spec_dict, started = worker.current
                    worker.kill()
                    self._workers.remove(worker)
                    self._record_failure(
                        digest,
                        spec_dict,
                        f"timeout after {self.timeout_s:g}s (worker killed)",
                        time.monotonic() - started,
                    )
                    in_flight -= 1
                    if queue and not self._tripped():
                        self._workers.append(self._spawn_worker(ctx))
            in_flight += dispatch_all()

        for worker in self._workers:
            worker.stop()
        self._workers = []
        return self._tripped() and bool(queue)


def run_jobset(
    jobset: JobSetSpec, store: ArtifactStore, **runner_kwargs
) -> JobSetResult:
    """One-call sweep: ``JobSetRunner(store, **kwargs).run(jobset)``."""
    return JobSetRunner(store, **runner_kwargs).run(jobset)
