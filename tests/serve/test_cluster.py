"""RemCluster: worker lifecycle, graceful drain, cluster ≡ single-process."""

import ctypes
import json
import os
import signal
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.serve import ArtifactStore, RemCluster, RemService, process_rss_bytes
from repro.serve.cluster import _release_free_heap

from tests.serve.conftest import make_artifact

HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")

#: Forks whole HTTP worker processes; run via `pytest -m slow`.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def cluster_store(tmp_path_factory):
    """A store with two mmap-able artifacts for cluster workers."""
    store = ArtifactStore(tmp_path_factory.mktemp("cluster-store"))
    artifacts = [make_artifact(seed) for seed in (71, 72)]
    for artifact in artifacts:
        store.save(artifact)
    return store, artifacts


def get_json(address, path, timeout=10):
    host, port = address
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=timeout
    ) as resp:
        return resp.status, json.load(resp)


def post_json(address, path, payload, timeout=30):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.load(resp)


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.mark.parametrize(
    "reuse_port",
    [
        pytest.param(
            True,
            id="reuseport",
            marks=pytest.mark.skipif(
                not HAS_REUSEPORT, reason="no SO_REUSEPORT"
            ),
        ),
        pytest.param(False, id="inherited-listener"),
    ],
)
class TestLifecycle:
    def test_graceful_sigterm_drain_exits_zero(self, cluster_store, reuse_port):
        store, artifacts = cluster_store
        cluster = RemCluster(store.root, workers=2, reuse_port=reuse_port)
        cluster.start()
        try:
            assert len(cluster.worker_pids()) == 2
            status, payload = get_json(cluster.address, "/healthz")
            assert status == 200
            assert payload["artifacts"] == len(artifacts)
        finally:
            exit_codes = cluster.stop(graceful=True)
        # SIGTERM -> drain -> clean exit for every worker.
        assert exit_codes == [0, 0]

    def test_dead_worker_is_respawned(self, cluster_store, reuse_port):
        store, _ = cluster_store
        with RemCluster(store.root, workers=2, reuse_port=reuse_port) as cluster:
            before = set(cluster.worker_pids())
            victim = sorted(before)[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_until(
                lambda: cluster.respawns >= 1
                and len(cluster.worker_pids()) == 2
                and victim not in cluster.worker_pids()
            )
            # The replacement serves traffic like any other worker.
            status, payload = get_json(cluster.address, "/healthz")
            assert status == 200 and payload["status"] == "ok"

    def test_concurrent_mixed_traffic_matches_single_process(
        self, cluster_store, reuse_port
    ):
        store, artifacts = cluster_store
        single = RemService(store, capacity=4)
        rng = np.random.default_rng(9)
        points = rng.uniform((0, 0, 0), (4, 3, 2), size=(8, 3)).tolist()
        requests = []
        for artifact in artifacts:
            requests.append(
                ("query", {"type": "query", "points": points}, artifact)
            )
            requests.append(
                ("coverage", {"type": "coverage", "threshold_dbm": -70.0}, artifact)
            )
            requests.append(
                ("strongest_ap", {"type": "strongest_ap", "points": points}, artifact)
            )
        with RemCluster(store.root, workers=2, reuse_port=reuse_port) as cluster:
            results = [None] * (len(requests) * 4)
            errors = []

            def drive(slot, kind, payload, artifact):
                # One retry absorbs transient connect/reset hiccups on a
                # loaded box; the equivalence assertions stay strict.
                for attempt in (0, 1):
                    try:
                        results[slot] = post_json(
                            cluster.address,
                            f"/v1/artifacts/{artifact.digest}/query",
                            payload,
                        )
                        return
                    except Exception as exc:  # noqa: BLE001 - asserted below
                        if attempt:
                            errors.append(exc)
                        else:
                            time.sleep(0.2)

            threads = [
                threading.Thread(
                    target=drive, args=(i, *requests[i % len(requests)])
                )
                for i in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            from repro.serve.service import request_from_dict

            for slot, (status, served) in enumerate(results):
                kind, payload, artifact = requests[slot % len(requests)]
                assert status == 200
                expected = single.handle(
                    request_from_dict(artifact.digest, payload)
                ).to_dict()
                if kind == "query":
                    np.testing.assert_allclose(
                        np.asarray(served["values"]),
                        np.asarray(expected["values"]),
                        atol=1e-9,
                    )
                    assert served["macs"] == expected["macs"]
                else:
                    assert served == expected


class TestWorkerHeap:
    @pytest.mark.skipif(
        process_rss_bytes() is None
        or not hasattr(ctypes.CDLL(None), "malloc_trim"),
        reason="needs /proc and glibc",
    )
    def test_release_free_heap_returns_freed_pages(self):
        # 64 KiB blocks come from the heap, below glibc's mmap threshold;
        # the block allocated last pins the heap top, so free() alone
        # keeps the freed pages resident.
        blocks = [np.ones(8192) for _ in range(800)]
        pin = np.ones(8192)
        del blocks
        before = process_rss_bytes()
        _release_free_heap()
        assert before - process_rss_bytes() > 20 * 2**20
        assert pin.sum() == 8192


class TestSupervisor:
    def test_requires_at_least_one_worker(self, cluster_store):
        store, _ = cluster_store
        with pytest.raises(ValueError):
            RemCluster(store.root, workers=0)

    def test_double_start_rejected(self, cluster_store):
        store, _ = cluster_store
        with RemCluster(store.root, workers=1, reuse_port=False) as cluster:
            with pytest.raises(RuntimeError):
                cluster.start()

    def test_worker_rss_is_reported(self, cluster_store):
        store, _ = cluster_store
        if process_rss_bytes() is None:
            pytest.skip("no /proc on this platform")
        with RemCluster(store.root, workers=1, reuse_port=False) as cluster:
            rss = cluster.worker_rss()
            assert len(rss) == 1
            assert all(value > 0 for value in rss.values())

    def test_batch_endpoint_through_cluster(self, cluster_store):
        store, artifacts = cluster_store
        single = RemService(store, capacity=4)
        from repro.serve.service import requests_from_list

        body = [
            {"digest": artifacts[0].digest, "type": "coverage", "threshold_dbm": -65.0},
            {"digest": artifacts[1].digest, "type": "dark_regions", "threshold_dbm": -60.0},
        ]
        expected = [
            r.to_dict() for r in single.handle_many(requests_from_list(body))
        ]
        with RemCluster(store.root, workers=2, reuse_port=False) as cluster:
            status, payload = post_json(cluster.address, "/v1/batch", body)
        assert status == 200
        assert payload["responses"] == expected
