"""The ``serve_mixed`` workload: a 1-worker ``RemCluster`` under seeded
mixed traffic.

Set-up builds a working set of :data:`WORKING_SET` artifacts through
``run_job`` from one flown campaign (more than the worker's LRU holds),
starts the cluster and warms its LRU and the page cache.  The traffic
is mostly 1-point ``/query`` on one hot artifact, some 16-item mixed
``/v1/batch`` requests over the whole working set, and a few cache-hit
``POST /v1/jobs`` resubmits.  One process sends it over at most
``nproc`` keep-alive connections (:func:`drive`), either closed-loop or
open-loop on a seeded Poisson schedule, where each request is timed
from when it was due.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
import zlib
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from common import P99_LIMIT_MS, REDUCE_KINDS, percentile
from spans import Tracer

CAPACITY = 4  # the worker's loaded-artifact LRU
#: Working-set predictors: one campaign, five artifacts (> CAPACITY).
WORKING_SET = (
    ("knn", {}),
    ("knn", {"n_neighbors": 8, "weights": "uniform"}),
    ("idw", {}),
    ("per_mac_knn", {}),
    ("baseline", {}),
)

# No client trace of this service exists.  The traffic figures below
# follow from what each metric must measure and from the measured
# service time of each request class; README.md gives the derivation.

#: Server time (ms) of one request of each class on one worker: closed
#: loop over one keep-alive connection, 3 x 400 requests per class, on a
#: 2-CPU x86-64 host (0.27-0.35 ms, 8.4-8.7 ms and 2.1-2.5 ms measured).
SERVICE_MS = {"query": 0.28, "batch": 8.4, "job": 2.2}
#: Request mix: every block of 50 requests holds exactly these counts in
#: a seeded order, so runs differ in order and content, not composition.
#: Batches are twice the 5% tail (10%), so ``op_p95_ms`` falls at the
#: median batch and not on the cliff between the ~0.3 ms query and the
#: ~8 ms batch latencies.  One resubmit per block (2%) is the fewest a
#: block holds.  Queries are the rest (88%), so ``op_p50_ms`` is a query.
MIX_BLOCK = {"query": 44, "batch": 5, "job": 1}
#: Four items of each reduction kind per batch, so every batch does the
#: same work and the per-kind spans compare.
BATCH_ITEMS = 16
POINTS_PER_ITEM = 4
#: Coverage and dark-region thresholds are drawn between these
#: percentiles of the hot map's strongest-AP RSS, so the dark fraction
#: they ask about runs from 0.05 to 0.95 and no answer is trivially
#: empty or full.
THRESHOLD_PERCENTILES = (5.0, 95.0)
#: Share of the mix's capacity offered at the reference rate.  The host
#: ran up to ~50% slower within hours; at 1/3 that still leaves the
#: worker half idle, so latency stays service time plus mild queueing.
UTILISATION = 1 / 3


def mix_capacity_rps() -> float:
    """Requests/s one worker serves of the mix, from :data:`SERVICE_MS`."""
    ms = sum(count * SERVICE_MS[kind] for kind, count in MIX_BLOCK.items())
    return 1e3 * sum(MIX_BLOCK.values()) / ms


#: Open-loop rates (requests/s), rounded to 50.  The reference rate runs
#: in several windows of ~1200 requests; the medians of their p50 and
#: p95 are op_p50_ms / op_p95_ms, so one window disturbed by a noisy
#: neighbour does not move the result.  The p99 (the ladder's limit) is
#: printed per window but swung 0.36 (IQR / median) between seeds on a
#: shared 2-CPU host: too unsteady to hold a regression bound.  The
#: ladder's 0.5x-4x of the reference brackets the capacity (~2.9x), so
#: its top step must miss the limit.
REFERENCE_RATE = 50 * round(mix_capacity_rps() * UTILISATION / 50)
LADDER = tuple(int(REFERENCE_RATE * m) for m in (0.5, 1, 2, 3, 4))
REFERENCE_WINDOWS = 5
#: A step whose generator ran later than this is invalid.
LAG_LIMIT_MS = 5.0
#: A server silent this long while answers are owed has hung.
IDLE_TIMEOUT_S = 30.0
WARM_REQUESTS = 300
BURST_REQUESTS = 1500
BURSTS = 9
CHECKED_REQUESTS = 40
TOLERANCE = 1e-9


def connections() -> int:
    """Keep-alive connections the load generator opens (<= nproc)."""
    return max(1, min(2, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# requests and schedules (pure functions of the seed)
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One HTTP request of the stream, pre-encoded."""

    kind: str  # "query" | "batch" | "job"
    path: str
    payload: object
    wire: bytes = field(repr=False, default=b"")

    def __post_init__(self) -> None:
        from repro.serve.loadgen import encode_request

        body = json.dumps(self.payload, separators=(",", ":")).encode()
        self.wire = encode_request(self.path, body)


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def make_stream(
    seed: int,
    tag: str,
    n: int,
    digests: Sequence[str],
    job_specs: Sequence[Dict],
    low: Sequence[float],
    high: Sequence[float],
    thresholds: Sequence[float],
) -> List[Request]:
    """``n`` requests of the mix; the same ``(seed, tag)`` gives the same stream.

    Points are uniform over the box ``low``..``high``; thresholds are
    uniform over ``thresholds`` (low, high).
    """
    rng = _rng(seed, tag)
    low, high = np.asarray(low, float), np.asarray(high, float)
    hot = digests[0]

    def points(count: int) -> list:
        return np.round(rng.uniform(low, high, (count, 3)), 4).tolist()

    def batch_item(kind: str) -> dict:
        digest = digests[int(rng.integers(len(digests)))]
        if kind in ("query", "strongest_ap"):
            return {"digest": digest, "type": kind, "points": points(POINTS_PER_ITEM)}
        threshold = round(float(rng.uniform(*thresholds)), 2)
        item = {"digest": digest, "type": kind, "threshold_dbm": threshold}
        if kind == "dark_regions":
            item["max_points"] = 16
        return item

    block = [kind for kind, count in MIX_BLOCK.items() for _ in range(count)]
    kinds = np.concatenate(
        [rng.permutation(block) for _ in range(-(-n // len(block)))]
    )[:n]
    batch_kinds = REDUCE_KINDS * (BATCH_ITEMS // len(REDUCE_KINDS))
    stream = []
    for kind in kinds:
        if kind == "query":
            stream.append(
                Request("query", f"/v1/artifacts/{hot}/query",
                        {"type": "query", "points": points(1)})
            )
        elif kind == "batch":
            stream.append(
                Request("batch", "/v1/batch",
                        [batch_item(k) for k in rng.permutation(batch_kinds)])
            )
        else:
            spec = job_specs[int(rng.integers(len(job_specs)))]
            stream.append(Request("job", "/v1/jobs", spec))
    return stream


def poisson_schedule(seed: int, tag: str, rate: float, duration_s: float) -> np.ndarray:
    """Due times (s from the step start) of a seeded Poisson arrival process."""
    rng = _rng(seed, tag)
    gaps = rng.exponential(1.0 / rate, int(rate * duration_s * 1.5) + 16)
    due = np.cumsum(gaps)
    return due[due < duration_s]


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
class _Connection:
    """A keep-alive connection: its socket, receive buffer and requests in flight."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.inflight: deque = deque()


def split_responses(buffer: bytearray):
    """Yield ``(status, body)`` per complete response, consuming ``buffer``."""
    while True:
        split = buffer.find(b"\r\n\r\n")
        if split < 0:
            return
        header = bytes(buffer[:split]).lower()
        mark = header.find(b"content-length:")
        stop = header.find(b"\r\n", mark)
        length = int(header[mark + 15 : stop if stop >= 0 else len(header)])
        total = split + 4 + length
        if len(buffer) < total:
            return
        status = int(header[9:12])
        body = bytes(buffer[split + 4 : total])
        del buffer[:total]
        yield status, body


@dataclass
class DriveResult:
    """Per-request times (s from the start) and outcomes of one drive."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    bodies: Dict[int, bytes]
    backlog: int  # requests due but unanswered when the last one fell due
    elapsed_s: float

    @property
    def latency_ms(self) -> np.ndarray:
        """Latency from when each request was due."""
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> np.ndarray:
        """How late the generator sent each request."""
        return (self.sent - self.due) * 1e3

    @property
    def failed(self) -> int:
        """Responses other than 200."""
        return int(np.sum(self.status != 200))


def drive(
    address,
    requests: Sequence[Request],
    due: Optional[np.ndarray] = None,
    n_connections: int = 1,
    window: int = 1,
    keep: Sequence[int] = (),
) -> DriveResult:
    """Send ``requests`` at their ``due`` times over keep-alive connections.

    ``due=None`` with ``window=1`` is a closed loop: each connection sends
    its next request when the previous answer arrived.  With a schedule
    and a large ``window`` requests are pipelined as they fall due (an
    open loop), up to ``window`` unanswered per connection.  The bodies
    of the request indices in ``keep`` are returned for checking.
    """
    n = len(requests)
    due = np.zeros(n) if due is None else np.asarray(due, float)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    status = np.zeros(n, dtype=int)
    bodies: Dict[int, bytes] = {}
    keep = set(keep)
    conns = [_Connection(address) for _ in range(n_connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    backlog = -1
    nxt = completed = 0
    start = time.monotonic()
    try:
        while completed < n:
            now = time.monotonic() - start
            while nxt < n and due[nxt] <= now:
                conn = min(conns, key=lambda c: len(c.inflight))
                if len(conn.inflight) >= window:
                    break
                conn.sock.sendall(requests[nxt].wire)
                sent[nxt] = time.monotonic() - start
                conn.inflight.append(nxt)
                nxt += 1
            if backlog < 0 and now >= due[-1]:
                backlog = n - completed
            room = any(len(c.inflight) < window for c in conns)
            if nxt < n and room:
                events = selector.select(max(0.0, due[nxt] - now))
            else:
                events = selector.select(IDLE_TIMEOUT_S)
                if not events:
                    raise TimeoutError(f"no response within {IDLE_TIMEOUT_S} s")
            for key, _ in events:
                conn = key.data
                chunk = conn.sock.recv(1 << 18)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buffer += chunk
                stamp = time.monotonic() - start
                for code, body in split_responses(conn.buffer):
                    index = conn.inflight.popleft()
                    done[index] = stamp
                    status[index] = code
                    if index in keep:
                        bodies[index] = body
                    completed += 1
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return DriveResult(
        due=due,
        sent=sent,
        done=done,
        status=status,
        bodies=bodies,
        backlog=max(backlog, 0),
        elapsed_s=time.monotonic() - start,
    )


def get_json(address, path: str) -> dict:
    """One ``GET`` on a fresh connection."""
    conn = _Connection(address)
    try:
        conn.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        while True:
            for _, body in split_responses(conn.buffer):
                return json.loads(body)
            chunk = conn.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed before answering")
            conn.buffer += chunk
    finally:
        conn.sock.close()


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def working_set_specs() -> list:
    """The served specs: one lattice campaign, untuned, no uncertainty map.

    They do not depend on the seed: the seed varies the traffic, and a
    seeded split moved the working set's holdout RMSE by 8% between seeds.
    """
    from repro.serve import RemJobSpec

    return [
        RemJobSpec(
            predictor=predictor,
            hyperparameters=params,
            tune=False,
            with_uncertainty=False,
        )
        for predictor, params in WORKING_SET
    ]


class ServeHandle:
    """A built working set and the running cluster that serves it."""

    def __init__(self, workdir: Path, seed: int):
        from repro.serve import ArtifactStore, RemCluster, run_job

        self.seed = seed
        self.store = ArtifactStore(Path(workdir) / "store", default_format="npy")
        specs = working_set_specs()
        self.artifacts = [run_job(spec, self.store) for spec in specs]
        self.digests = [a.digest for a in self.artifacts]
        self.job_specs = [spec.to_dict() for spec in specs]
        hot = self.artifacts[0].rem
        self.low, self.high = hot.grid.volume.min_corner, hot.grid.volume.max_corner
        strongest = hot.field_tensor(list(hot.macs)).reshape(len(hot.macs), -1).max(axis=0)
        self.thresholds = tuple(np.percentile(strongest, THRESHOLD_PERCENTILES))
        self.cluster = RemCluster(self.store.root, workers=1, capacity=CAPACITY)
        self.cluster.start()
        self.address = self.cluster.address

    def stream(self, tag: str, n: int) -> List[Request]:
        """The seeded request stream ``tag`` over this working set."""
        return make_stream(
            self.seed, tag, n, self.digests, self.job_specs, self.low, self.high,
            self.thresholds,
        )

    def warm(self) -> None:
        """Load every artifact once and run a closed-loop warm-up pass."""
        requests = [
            Request("query", f"/v1/artifacts/{d}/query",
                    {"type": "query", "points": [list(self.low)]})
            for d in reversed(self.digests)
        ] + self.stream("warm", WARM_REQUESTS)
        result = drive(self.address, requests, n_connections=connections())
        if result.failed:
            raise RuntimeError(f"{result.failed} warm-up requests failed")

    def close(self) -> None:
        """Stop the cluster and wait for its worker to exit."""
        self.cluster.stop()


def set_up(workdir: Path, seed: int) -> ServeHandle:
    """Build the working set, start the cluster, warm it."""
    handle = ServeHandle(workdir, seed)
    try:
        handle.warm()
    except BaseException:
        handle.close()
        raise
    return handle


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def ladder_step(handle: ServeHandle, rate: float, seconds: float, window: int) -> dict:
    """One open-loop window at ``rate`` requests/s.

    A reference-rate window lasts a fifth of the run's ``seconds`` (at
    least 2 s), any other step a twentieth (at least 1 s).  The answers
    to every 37th reference-rate request are kept for checking.
    """
    reference = rate == REFERENCE_RATE
    duration_s = max(2.0, seconds / 5) if reference else max(1.0, seconds / 20)
    keep_every = 37 if reference else 0
    tag = f"ladder-{rate}-{window}"
    due = poisson_schedule(handle.seed, tag, rate, duration_s)
    requests = handle.stream(tag, len(due))
    result = drive(
        handle.address, requests, due, n_connections=connections(), window=1 << 10,
        keep=range(0, len(requests), keep_every) if keep_every else (),
    )
    latency = result.latency_ms
    lag_ms = percentile(result.lag_ms, 99)
    p99 = percentile(latency, 99)
    valid = lag_ms <= LAG_LIMIT_MS
    keeps_up = result.backlog <= rate * P99_LIMIT_MS / 1e3
    return {
        "rate_rps": rate,
        "requests": len(requests),
        "p50_ms": percentile(latency, 50),
        "p95_ms": percentile(latency, 95),
        "p99_ms": p99,
        "lag_p99_ms": lag_ms,
        "backlog": result.backlog,
        "failed": result.failed,
        "valid": valid,
        "meets_limit": valid and keeps_up and p99 <= P99_LIMIT_MS and not result.failed,
        "_requests": requests,
        "_result": result,
    }


def check_response(request: Request, status: int, body: bytes, rems: Dict) -> bool:
    """A served answer ≡ the direct ``RadioEnvironmentMap`` reduction."""
    if status != 200:
        return False
    answer = json.loads(body)
    if request.kind == "job":
        return bool(answer.get("cache_hit"))
    if request.kind == "query":
        digest = request.path.split("/")[3]
        items = [dict(request.payload, digest=digest)]
        answers = [answer]
    else:
        items, answers = request.payload, answer["responses"]
    return len(items) == len(answers) and all(
        _matches(item, got, rems[item["digest"]]) for item, got in zip(items, answers)
    )


def _close(got, expected) -> bool:
    got, expected = np.asarray(got, float), np.asarray(expected, float)
    return got.shape == expected.shape and bool(
        np.all(np.abs(got - expected) <= TOLERANCE)
    )


def _matches(item: dict, got: dict, rem) -> bool:
    kind = item["type"]
    if kind == "query":
        return got["macs"] == list(rem.macs) and _close(
            got["values"], rem.query_many(item["points"])
        )
    if kind == "strongest_ap":
        macs, rss = rem.strongest_ap_many(item["points"])
        return list(got["macs"]) == list(macs) and _close(got["rss_dbm"], rss)
    threshold = item["threshold_dbm"]
    if not _close(got["dark_fraction"], rem.dark_fraction(threshold)):
        return False
    if kind == "coverage":
        expected = rem.coverage_by_mac(threshold)
        return set(got["by_mac"]) == set(expected) and all(
            _close(got["by_mac"][mac], value) for mac, value in expected.items()
        )
    expected = rem.dark_points(threshold)[: item["max_points"]]
    return _close(np.reshape(got["points"], (-1, 3)), expected)


# ----------------------------------------------------------------------
# in-process replay (the traced run's per-layer view)
# ----------------------------------------------------------------------
def replay(store, requests: Sequence[Request], tracer: Optional[Tracer] = None):
    """Answer ``requests`` in-process through the server's own handler.

    The raw request bytes go through ``repro.serve.http``'s handler
    (``handle_one_request`` → ``do_POST``) over in-memory streams, with
    the worker's capacity and ``mmap=True``, so the header parse, the
    routing, ``json.loads``, ``request_from_dict`` /
    ``requests_from_list``, ``RemService.handle`` / ``handle_many`` /
    ``submit`` and ``to_json`` are all the program's code.  Returns the
    wall seconds of the pass and the number of non-200 answers.
    """
    import io
    from types import SimpleNamespace

    from repro.serve.http import _Handler
    from repro.serve.service import RemService

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    handler = _Handler.__new__(_Handler)
    handler.server = SimpleNamespace(
        service=RemService(store, capacity=CAPACITY, mmap=True), draining=False
    )
    handler.client_address = ("127.0.0.1", 0)
    handler.rfile = io.BytesIO(b"".join(request.wire for request in requests))
    handler.wfile = io.BytesIO()
    if tracer is not None:
        from layers import install_serve_layers

        install_serve_layers(tracer)
    start = time.perf_counter()
    try:
        with span("replay"):
            for _ in requests:
                handler.handle_one_request()
    finally:
        if tracer is not None:
            tracer.restore()
    seconds = time.perf_counter() - start
    answers = list(split_responses(bytearray(handler.wfile.getvalue())))
    if tracer is not None:
        tracer.count("serve.service.encode.bytes", sum(len(body) for _, body in answers))
    return seconds, len(requests) - sum(status == 200 for status, _ in answers)
