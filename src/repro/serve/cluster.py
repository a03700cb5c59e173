"""Pre-forked multi-process REM serving: the GIL-escape tier.

A single :class:`~repro.serve.http.RemHttpServer` tops out when its
numpy reductions serialize on the GIL (threads buy ~nothing past one
core).  :class:`RemCluster` runs N **worker processes**, each hosting
the unchanged handler stack over a shared address:

* with ``SO_REUSEPORT`` (Linux; the default when available) every
  worker binds its own listening socket to the same port and the
  kernel balances incoming connections across them;
* otherwise the parent binds **one** listener and forks workers that
  inherit it, accepting from the shared queue (the classic pre-fork
  shape).

Workers open artifacts through ``np.load(mmap_mode="r")``
(``RemService(..., mmap=True)``), so all N processes page the same
physical copy of each map out of the page cache — memory stays flat as
the worker count grows.

The parent is a **supervisor**: it spawns workers, waits for each to
report ready, respawns any that die, and on SIGTERM/SIGINT drains
them gracefully (stop accepting, finish in-flight requests, exit 0).

::

    cluster = RemCluster(store_root, workers=4, port=8000)
    cluster.start()               # returns once every worker is ready
    ...                           # traffic against cluster.address
    cluster.stop()                # graceful drain

``repro serve --workers N`` is the CLI face of this module.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from .artifact import ArtifactStore
from .http import RemHttpServer
from .service import RemService

__all__ = ["RemCluster", "process_rss_bytes"]


def _reuse_port_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


def process_rss_bytes(pid: Optional[int] = None) -> Optional[int]:
    """Resident-set size of ``pid`` (default: this process) in bytes.

    Reads ``/proc/<pid>/status`` (Linux); returns ``None`` where that
    interface is missing.  The load harness uses this to verify that
    mmap-backed workers keep per-worker RSS flat as the cluster grows.
    """
    path = f"/proc/{os.getpid() if pid is None else pid}/status"
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def _release_free_heap() -> None:
    """Return the free heap pages this process holds to the OS.

    A worker forked after an in-process build inherits the supervisor's
    freed-but-resident heap: glibc keeps freed memory mapped below its
    trim threshold, and numpy's huge-page advice can back it with 2 MB
    pages that copy-on-write duplicates whole.  Without the trim, a
    worker's RSS depends on the supervisor's allocation history rather
    than on what it serves.  ``malloc_trim`` is glibc's; elsewhere this
    is a no-op.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


class _WorkerServer(RemHttpServer):
    """The per-worker server: drains in-flight requests on close."""

    # Graceful drain joins the per-connection handler threads, so they
    # must be tracked (non-daemon) and joined on server_close().
    daemon_threads = False
    block_on_close = True
    # Idle keep-alive connections would otherwise pin their handler
    # thread forever and make drain unbounded.
    handler_timeout: Optional[float] = 5.0


def _worker_main(
    store_root: str,
    capacity: int,
    address: Tuple[str, int],
    listener: Optional[socket.socket],
    reuse_port: bool,
    handler_timeout: float,
    ready_queue,
) -> None:
    """One pre-forked worker: serve until SIGTERM, then drain and exit.

    Runs ``serve_forever`` on a thread so the main thread can sit on a
    signal-triggered event and call the (blocking) ``shutdown`` safely.
    """
    _release_free_heap()
    service = RemService(
        ArtifactStore(store_root), capacity=capacity, mmap=True
    )
    server = _WorkerServer(
        service, address, listener=listener, reuse_port=reuse_port
    )
    server.handler_timeout = handler_timeout

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ready_queue.put(("ready", os.getpid()))
    stop.wait()
    # Graceful drain: stop accepting, let in-flight handlers finish
    # (server_close joins them), close keep-alive connections.
    server.draining = True
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class RemCluster:
    """Supervisor for N pre-forked REM-serving worker processes.

    Parameters
    ----------
    store_root:
        Artifact-store directory every worker opens (read-mostly;
        workers load with ``mmap=True``).
    workers:
        Worker-process count (>= 1).
    host, port:
        Bind address; ``port=0`` resolves an ephemeral port before the
        workers spawn.
    capacity:
        Per-worker loaded-artifact LRU capacity.
    reuse_port:
        ``True`` forces ``SO_REUSEPORT`` per-worker sockets, ``False``
        forces the inherited-listener fork fallback, ``None`` (default)
        picks ``SO_REUSEPORT`` when the platform has it.
    handler_timeout:
        Per-connection idle timeout inside workers (bounds drain).
    """

    #: Seconds between supervisor liveness sweeps over the workers.
    MONITOR_INTERVAL_S = 0.2

    def __init__(
        self,
        store_root,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = 4,
        reuse_port: Optional[bool] = None,
        handler_timeout: float = 5.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if reuse_port is None:
            reuse_port = _reuse_port_available()
        elif reuse_port and not _reuse_port_available():
            raise OSError("SO_REUSEPORT is not available on this platform")
        self.store_root = str(store_root)
        self.workers = int(workers)
        self.capacity = int(capacity)
        self.reuse_port = bool(reuse_port)
        self.handler_timeout = float(handler_timeout)
        self._requested_address = (host, int(port))
        self.address: Optional[Tuple[str, int]] = None
        self._ctx = multiprocessing.get_context("fork")
        self._listener: Optional[socket.socket] = None
        self._processes: List = []
        self._ready_queue = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._respawns = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, ready_timeout: float = 30.0) -> "RemCluster":
        """Spawn the workers; returns once every worker reported ready.

        Resolves :attr:`address` first, so callers can aim traffic the
        moment this returns.
        """
        if self._processes:
            raise RuntimeError("cluster already started")
        self._stopping.clear()
        host, port = self._requested_address
        if self.reuse_port:
            # Reserve the port with a probe socket so an ephemeral
            # request (port=0) resolves before workers bind their own
            # SO_REUSEPORT sockets; the probe closes once they have.
            probe = self._bind_socket(host, port)
            self.address = probe.getsockname()[:2]
            self._listener = probe
        else:
            # Fork fallback: one shared listener, inherited by workers.
            listener = self._bind_socket(host, port, reuse_port=False)
            listener.listen(128)
            self.address = listener.getsockname()[:2]
            self._listener = listener
        self._ready_queue = self._ctx.SimpleQueue()
        for _ in range(self.workers):
            self._spawn_worker()
        self._await_ready(self.workers, ready_timeout)
        if self.reuse_port:
            # Workers own their sockets now; drop the probe so the
            # kernel only balances accepts across live workers.
            self._listener.close()
            self._listener = None
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
        self._monitor.start()
        return self

    def _bind_socket(
        self, host: str, port: int, reuse_port: Optional[bool] = None
    ) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.reuse_port if reuse_port is None else reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        return sock

    def _spawn_worker(self) -> None:
        listener = None if self.reuse_port else self._listener
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.store_root,
                self.capacity,
                self.address,
                listener,
                self.reuse_port,
                self.handler_timeout,
                self._ready_queue,
            ),
            daemon=False,
        )
        process.start()
        self._processes.append(process)

    def _await_ready(self, count: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        ready = 0
        while ready < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop(graceful=False)
                raise TimeoutError(
                    f"only {ready}/{count} workers ready within {timeout}s"
                )
            # SimpleQueue has no timeout; poll the underlying pipe.
            if self._ready_queue._reader.poll(min(remaining, 0.5)):
                self._ready_queue.get()
                ready += 1

    def _monitor_loop(self) -> None:
        """Respawn workers that die while the cluster is running."""
        while not self._stopping.wait(self.MONITOR_INTERVAL_S):
            with self._lock:
                if self._stopping.is_set():
                    return
                for index, process in enumerate(self._processes):
                    if process.is_alive():
                        continue
                    process.join()
                    self._respawns += 1
                    listener = None if self.reuse_port else self._listener
                    fresh = self._ctx.Process(
                        target=_worker_main,
                        args=(
                            self.store_root,
                            self.capacity,
                            self.address,
                            listener,
                            self.reuse_port,
                            self.handler_timeout,
                            self._ready_queue,
                        ),
                        daemon=False,
                    )
                    fresh.start()
                    self._processes[index] = fresh

    # ------------------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes."""
        with self._lock:
            return [p.pid for p in self._processes if p.is_alive()]

    @property
    def respawns(self) -> int:
        """How many dead workers the supervisor has replaced."""
        return self._respawns

    def worker_rss(self) -> Dict[int, Optional[int]]:
        """Per-worker RSS in bytes (``None`` where /proc is missing)."""
        return {pid: process_rss_bytes(pid) for pid in self.worker_pids()}

    def stop(self, graceful: bool = True, timeout: float = 10.0) -> List[int]:
        """Stop the cluster; returns the workers' exit codes.

        ``graceful`` sends SIGTERM (workers drain in-flight requests
        and exit 0); workers still alive after ``timeout`` — and all
        workers when ``graceful=False`` — are killed.
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        with self._lock:
            processes = list(self._processes)
        if graceful:
            for process in processes:
                if process.is_alive():
                    process.terminate()  # SIGTERM -> worker drain
            deadline = time.monotonic() + timeout
            for process in processes:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        exit_codes = [process.exitcode for process in processes]
        with self._lock:
            self._processes = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        return exit_codes

    def run_forever(self) -> None:
        """Block until SIGTERM/SIGINT, then drain and return (the CLI).

        Installs parent signal handlers, so call it from the main
        thread only.
        """
        done = threading.Event()
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, lambda *_: done.set())
        try:
            done.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop(graceful=True)

    def __enter__(self) -> "RemCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(graceful=True)
