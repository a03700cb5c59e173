"""RemService: served answers ≡ direct REM calls, LRU behavior."""

import numpy as np
import pytest

from repro.serve import (
    CoverageRequest,
    DarkRegionsRequest,
    QueryRequest,
    RemService,
    StrongestApRequest,
    request_from_dict,
)

from tests.serve.conftest import assert_mappable


@pytest.fixture()
def service(seeded_store):
    return RemService(seeded_store, capacity=2)


def probe_points(rem, n=40, seed=3):
    """Random probe points spanning (and slightly exceeding) the volume."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(rem.grid.volume.min_corner) - 0.2
    hi = np.asarray(rem.grid.volume.max_corner) + 0.2
    return rng.uniform(lo, hi, size=(n, 3))


class TestEquivalence:
    def test_query_matches_direct(self, service, artifacts):
        artifact = artifacts[0]
        points = probe_points(artifact.rem)
        response = service.handle(QueryRequest(artifact.digest, points))
        direct = artifact.rem.query_many(points)
        assert response.macs == list(artifact.rem.macs)
        np.testing.assert_allclose(response.values, direct, atol=1e-9)

    def test_query_mac_subset(self, service, artifacts):
        artifact = artifacts[0]
        macs = list(artifact.rem.macs[:2])
        points = probe_points(artifact.rem, n=7)
        response = service.handle(QueryRequest(artifact.digest, points, macs))
        np.testing.assert_allclose(
            response.values, artifact.rem.query_many(points, macs), atol=1e-9
        )

    def test_strongest_ap_matches_direct(self, service, artifacts):
        artifact = artifacts[1]
        points = probe_points(artifact.rem)
        response = service.handle(StrongestApRequest(artifact.digest, points))
        macs, rss = artifact.rem.strongest_ap_many(points)
        assert response.macs == macs
        np.testing.assert_allclose(response.rss_dbm, rss, atol=1e-9)

    def test_coverage_matches_direct(self, service, artifacts):
        artifact = artifacts[2]
        response = service.handle(CoverageRequest(artifact.digest, -70.0))
        assert response.by_mac == artifact.rem.coverage_by_mac(-70.0)
        assert response.dark_fraction == artifact.rem.dark_fraction(-70.0)

    def test_dark_regions_matches_direct(self, service, artifacts):
        artifact = artifacts[0]
        response = service.handle(DarkRegionsRequest(artifact.digest, -55.0))
        np.testing.assert_array_equal(
            response.points, artifact.rem.dark_points(-55.0)
        )
        assert not response.truncated

    def test_dark_regions_truncation(self, service, artifacts):
        artifact = artifacts[0]
        full = artifact.rem.dark_points(-55.0)
        if len(full) < 2:
            pytest.skip("synthetic map has no dark region to truncate")
        response = service.handle(
            DarkRegionsRequest(artifact.digest, -55.0, max_points=1)
        )
        assert response.truncated
        assert len(response.points) == 1
        # The exact fraction is preserved even when points are capped.
        assert response.dark_fraction == artifact.rem.dark_fraction(-55.0)


class TestBatching:
    def test_handle_many_matches_scalar(self, service, artifacts):
        requests = [
            QueryRequest(artifacts[0].digest, probe_points(artifacts[0].rem, n=5)),
            CoverageRequest(artifacts[1].digest, -70.0),
            StrongestApRequest(artifacts[2].digest, probe_points(artifacts[2].rem, n=5)),
        ]
        batched = service.handle_many(requests)
        assert len(batched) == len(requests)
        for request, response in zip(requests, batched):
            assert response.to_dict() == service.handle(request).to_dict()

    def test_requests_from_list_round_trip(self, service, artifacts):
        from repro.serve import requests_from_list

        body = [
            {"digest": artifacts[0].digest, "type": "coverage", "threshold_dbm": -70.0},
            {"digest": artifacts[1].digest, "points": [[1.0, 1.0, 1.0]]},
        ]
        requests = requests_from_list(body)
        assert isinstance(requests[0], CoverageRequest)
        assert isinstance(requests[1], QueryRequest)
        assert [r.digest for r in requests] == [b["digest"] for b in body]

    def test_requests_from_list_rejects_bad_envelopes(self):
        from repro.serve import requests_from_list

        for bad in ([], {"digest": "d"}, [42], [{"type": "query"}]):
            with pytest.raises(ValueError):
                requests_from_list(bad)


class TestGroupedBatch:
    """handle_many looks each digest up once and answers like handle."""

    @pytest.fixture()
    def mapped(self, seeded_store):
        # Three stored digests over a capacity-2 LRU: a batch naming all
        # of them cannot keep every map cached.
        return RemService(seeded_store, capacity=2, mmap=True)

    def seeded_batch(self, artifacts, seed, n=24):
        rng = np.random.default_rng(seed)
        requests = []
        for _ in range(n):
            artifact = artifacts[int(rng.integers(len(artifacts)))]
            points = probe_points(artifact.rem, n=4, seed=int(rng.integers(1 << 30)))
            threshold = float(np.round(rng.uniform(-80.0, -50.0), 2))
            kind = int(rng.integers(4))
            if kind == 0:
                requests.append(QueryRequest(artifact.digest, points))
            elif kind == 1:
                requests.append(StrongestApRequest(artifact.digest, points))
            elif kind == 2:
                requests.append(CoverageRequest(artifact.digest, threshold))
            else:
                requests.append(
                    DarkRegionsRequest(artifact.digest, threshold, max_points=16)
                )
        return requests

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bytes_match_per_item_answers(self, mapped, seeded_store, artifacts, seed):
        per_item = RemService(seeded_store, capacity=2, mmap=True)
        for round_ in range(3):
            requests = self.seeded_batch(artifacts, seed * 10 + round_)
            with mapped._lock:
                absent = {r.digest for r in requests} - set(mapped._cache)
            before = mapped.cache_info()["misses"]
            batched = mapped.handle_many(requests)
            info = mapped.cache_info()
            assert info["misses"] - before <= len(absent)
            assert info["peak_size"] <= mapped.capacity
            assert [r.to_json() for r in batched] == [
                per_item.handle(r).to_json() for r in requests
            ]

    def test_one_lookup_per_digest(self, mapped, artifacts):
        requests = self.seeded_batch(artifacts, seed=9, n=32)
        digests = {r.digest for r in requests}
        mapped.handle_many(requests)
        info = mapped.cache_info()
        assert info["hits"] + info["misses"] == len(digests)
        assert info["misses"] == len(digests)  # a cold LRU misses each once

    def test_cached_digests_resolve_first(self, mapped, artifacts):
        a, b, c = (artifact.digest for artifact in artifacts)
        point = [[1.0, 1.0, 1.0]]
        mapped.handle(QueryRequest(a, point))
        mapped.handle(QueryRequest(b, point))
        # c is absent: resolving it first would evict a, then reload it.
        mapped.handle_many(
            [QueryRequest(c, point), QueryRequest(a, point), QueryRequest(b, point)]
        )
        info = mapped.cache_info()
        assert (info["misses"], info["evictions"]) == (3, 1)
        assert list(mapped._cache) == [b, c]

    def test_threads_share_one_service(self, mapped, seeded_store, artifacts):
        import sys
        import threading

        batches = [self.seeded_batch(artifacts, seed=40 + i, n=12) for i in range(8)]
        eager = RemService(seeded_store, capacity=3)
        expected = [[r.to_json() for r in eager.handle_many(b)] for b in batches]
        got = [None] * len(batches)
        errors = []

        def work(i):
            try:
                for _ in range(3):
                    got[i] = [r.to_json() for r in mapped.handle_many(batches[i])]
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(len(batches))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == expected
        assert mapped.cache_info()["peak_size"] <= mapped.capacity

    def test_unknown_digest_raises(self, mapped, artifacts):
        requests = self.seeded_batch(artifacts, seed=5, n=6)
        requests.insert(3, CoverageRequest("0" * 64, -70.0))
        with pytest.raises(KeyError):
            mapped.handle_many(requests)

    def test_first_failing_item_wins(self, mapped, artifacts):
        digest = artifacts[0].digest
        bad_points = QueryRequest(digest, [[1.0, 1.0]])  # ValueError
        unknown = CoverageRequest("0" * 64, -70.0)  # KeyError
        with pytest.raises(ValueError):
            mapped.handle_many([bad_points, unknown])
        with pytest.raises(KeyError):
            mapped.handle_many([unknown, bad_points])
        # The cached digest's group runs first and fails at item 1; the
        # absent digest's item 2 (an unknown MAC) would fail too, later.
        other = artifacts[1].digest
        point = [[1.0, 1.0, 1.0]]
        mapped.handle(QueryRequest(digest, point))
        with pytest.raises(ValueError):
            mapped.handle_many([
                QueryRequest(other, point),
                bad_points,
                QueryRequest(other, point, macs=["no:such:mac"]),
            ])
        with pytest.raises(TypeError):
            mapped.handle_many([object(), unknown])
        with pytest.raises(KeyError):
            mapped.handle_many([unknown, object()])


class TestMmapService:
    def test_mmap_service_matches_eager(self, tmp_path, artifacts):
        from repro.serve import ArtifactStore

        store = ArtifactStore(tmp_path)
        for artifact in artifacts:
            store.save(artifact)
        eager = RemService(store, capacity=4)
        mapped = RemService(store, capacity=4, mmap=True)
        points = probe_points(artifacts[0].rem, n=16)
        for artifact in artifacts:
            np.testing.assert_allclose(
                mapped.handle(QueryRequest(artifact.digest, points)).values,
                eager.handle(QueryRequest(artifact.digest, points)).values,
                atol=1e-9,
            )


class TestFloat32Serving:
    def test_float32_artifact_served_within_tolerance(self, tmp_path, artifacts):
        from repro.serve import ArtifactStore

        store = ArtifactStore(tmp_path)
        full = artifacts[0]
        half = full.astype("float32")
        store.save(half)
        service = RemService(store, capacity=2, mmap=True)
        points = probe_points(full.rem, n=32)
        served = service.handle(QueryRequest(half.digest, points)).values
        np.testing.assert_allclose(
            served, full.rem.query_many(points), atol=1e-3
        )


class TestLru:
    def test_capacity_bound_and_eviction(self, service, artifacts):
        point = [[1.0, 1.0, 1.0]]
        for artifact in artifacts:  # 3 artifacts through a capacity-2 LRU
            service.handle(QueryRequest(artifact.digest, point))
        info = service.cache_info()
        assert info["size"] == 2
        assert info["peak_size"] <= 2
        assert info["evictions"] == 1

    def test_hits_do_not_reload(self, service, artifacts):
        point = [[0.5, 0.5, 0.5]]
        digest = artifacts[0].digest
        service.handle(QueryRequest(digest, point))
        misses = service.cache_info()["misses"]
        service.handle(QueryRequest(digest, point))
        info = service.cache_info()
        assert info["misses"] == misses
        assert info["hits"] >= 1

    def test_unknown_digest_raises(self, service):
        with pytest.raises(KeyError):
            service.handle(QueryRequest("0" * 64, [[0, 0, 0]]))

    def test_capacity_must_be_positive(self, seeded_store):
        with pytest.raises(ValueError):
            RemService(seeded_store, capacity=0)

    def test_submit_does_not_retain_the_build_state(self, tmp_path, tiny_spec):
        # A long-lived server must not pin one whole ToolchainResult
        # (campaign log, fitted predictor, ...) per cached artifact.
        from repro.serve import ArtifactStore

        service = RemService(ArtifactStore(tmp_path), capacity=2)
        built = service.submit(tiny_spec)
        assert built.result is not None  # the caller still gets it
        assert service.artifact(built.digest).result is None
        assert_mappable(service.store, built.digest)

    def test_resubmit_caches_the_memory_map(self, tmp_path, tiny_spec):
        from repro.serve import ArtifactStore

        store = ArtifactStore(tmp_path)
        built = RemService(store).submit(tiny_spec)
        service = RemService(store, capacity=2, mmap=True)
        again = service.submit(tiny_spec)
        assert again.cache_hit and again.result is None
        assert again.content_hash() == built.content_hash()
        cached = service.artifact(built.digest)
        assert isinstance(cached.rem._stack, np.memmap)
        assert not cached.cache_hit  # the hit flag is the caller's copy only
        assert service.cache_info()["misses"] == 1


class TestRequestValidation:
    def test_negative_max_points_rejected(self):
        with pytest.raises(ValueError, match="max_points"):
            DarkRegionsRequest("d" * 64, -60.0, max_points=-1)

    def test_negative_max_points_rejected_from_wire(self):
        with pytest.raises(ValueError, match="max_points"):
            request_from_dict(
                "d" * 64,
                {"type": "dark_regions", "threshold_dbm": -60.0, "max_points": -1},
            )


class TestWireFormat:
    def test_request_from_dict_dispatch(self):
        request = request_from_dict(
            "d" * 64, {"type": "coverage", "threshold_dbm": -70.0}
        )
        assert isinstance(request, CoverageRequest)
        assert request.digest == "d" * 64

    def test_default_type_is_query(self):
        request = request_from_dict("d" * 64, {"points": [[0, 0, 0]]})
        assert isinstance(request, QueryRequest)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown request type"):
            request_from_dict("d" * 64, {"type": "teleport"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="bad 'query' request"):
            request_from_dict("d" * 64, {"type": "query", "warp": 1})

    def test_responses_serialize_to_json_types(self, service, artifacts):
        import json

        artifact = artifacts[0]
        points = [[1.0, 1.0, 1.0]]
        for request in (
            QueryRequest(artifact.digest, points),
            StrongestApRequest(artifact.digest, points),
            CoverageRequest(artifact.digest, -70.0),
            DarkRegionsRequest(artifact.digest, -55.0, max_points=3),
        ):
            payload = service.handle(request).to_dict()
            json.dumps(payload)  # must not raise

    def test_to_json_matches_to_dict(self, service, artifacts):
        # The fast wire serializer may differ from to_dict only by the
        # fixed-point value formatting, which stays inside the 1e-9 pin.
        import json

        artifact = artifacts[0]
        points = probe_points(artifact.rem, n=6)
        for request in (
            QueryRequest(artifact.digest, points),
            StrongestApRequest(artifact.digest, points),
            CoverageRequest(artifact.digest, -70.0),
            DarkRegionsRequest(artifact.digest, -55.0, max_points=3),
        ):
            response = service.handle(request)
            wire = json.loads(response.to_json())
            reference = response.to_dict()
            if "values" in wire:
                np.testing.assert_allclose(
                    np.asarray(wire.pop("values")),
                    np.asarray(reference.pop("values")),
                    atol=1e-9,
                )
            assert wire == reference

    def test_query_to_json_edge_shapes(self):
        # Zero-point and non-finite payloads must stay parseable JSON.
        import json

        from repro.serve.service import QueryResponse

        empty = QueryResponse(digest="d" * 64, macs=["a"], values=np.empty((0, 1)))
        assert json.loads(empty.to_json())["values"] == []
        weird = QueryResponse(
            digest="d" * 64, macs=["a"], values=np.array([[np.nan]])
        )
        parsed = json.loads(weird.to_json())  # stdlib fallback path
        assert np.isnan(parsed["values"][0][0])
