"""The JSON/HTTP front end: routes, payloads, errors, job submission."""

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import ArtifactStore, RemService, create_server


@pytest.fixture(scope="module")
def http_store(tmp_path_factory, artifacts):
    """A module-private store (job POSTs below mutate it)."""
    store = ArtifactStore(tmp_path_factory.mktemp("http-store"))
    for artifact in artifacts:
        store.save(artifact)
    return store


@pytest.fixture(scope="module")
def server(http_store):
    """A live server on an ephemeral port, torn down after the module."""
    service = RemService(http_store, capacity=2)
    httpd = create_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def error_envelope(excinfo):
    """Parse the `{"error": {"code", "message"}}` body of an HTTPError."""
    payload = json.loads(excinfo.value.read())
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"code", "message"}
    return payload["error"]


def get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as resp:
        return resp.status, json.load(resp)


def post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.load(resp)


class TestRoutes:
    def test_healthz(self, server, artifacts):
        status, payload = get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["artifacts"] == len(artifacts)
        assert payload["cache"]["capacity"] == 2

    def test_list_artifacts(self, server, artifacts):
        status, payload = get(server, "/v1/artifacts")
        assert status == 200
        digests = {record["digest"] for record in payload["artifacts"]}
        assert digests == {a.digest for a in artifacts}

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v2/nothing")
        assert excinfo.value.code == 404
        error = error_envelope(excinfo)
        assert error["code"] == "not_found"
        assert "/v2/nothing" in error["message"]


class TestQueries:
    def test_query_equals_direct(self, server, artifacts):
        artifact = artifacts[0]
        points = [[1.0, 1.0, 1.0], [2.5, 0.5, 1.5]]
        status, payload = post(
            server,
            f"/v1/artifacts/{artifact.digest}/query",
            {"type": "query", "points": points},
        )
        assert status == 200
        direct = artifact.rem.query_many(points)
        np.testing.assert_allclose(
            np.asarray(payload["values"]), direct, atol=1e-9
        )
        assert payload["macs"] == list(artifact.rem.macs)

    def test_coverage_over_http(self, server, artifacts):
        artifact = artifacts[1]
        status, payload = post(
            server,
            f"/v1/artifacts/{artifact.digest}/query",
            {"type": "coverage", "threshold_dbm": -70.0},
        )
        assert status == 200
        assert payload["by_mac"] == artifact.rem.coverage_by_mac(-70.0)

    def test_unknown_digest_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(
                server,
                "/v1/artifacts/" + "0" * 64 + "/query",
                {"type": "query", "points": [[0, 0, 0]]},
            )
        assert excinfo.value.code == 404
        assert error_envelope(excinfo)["code"] == "not_found"

    def test_bad_request_type_422(self, server, artifacts):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(
                server,
                f"/v1/artifacts/{artifacts[0].digest}/query",
                {"type": "teleport"},
            )
        assert excinfo.value.code == 422
        error = error_envelope(excinfo)
        assert error["code"] == "invalid_spec"
        assert "teleport" in error["message"]

    def test_negative_max_points_422(self, server, artifacts):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(
                server,
                f"/v1/artifacts/{artifacts[0].digest}/query",
                {"type": "dark_regions", "threshold_dbm": -60.0, "max_points": -1},
            )
        assert excinfo.value.code == 422
        assert error_envelope(excinfo)["code"] == "invalid_spec"

    def test_unknown_scenario_spec_422(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/jobs", {"scenario": "nope"})
        assert excinfo.value.code == 422
        assert error_envelope(excinfo)["code"] == "invalid_spec"

    def test_empty_body_400(self, server, artifacts):
        request = urllib.request.Request(
            _url(server, f"/v1/artifacts/{artifacts[0].digest}/query"),
            data=b"",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        error = error_envelope(excinfo)
        assert error["code"] == "malformed_json"
        assert "empty" in error["message"]

    def test_undecodable_body_400(self, server, artifacts):
        request = urllib.request.Request(
            _url(server, f"/v1/artifacts/{artifacts[0].digest}/query"),
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert error_envelope(excinfo)["code"] == "malformed_json"

    @pytest.mark.parametrize("length", ["abc", "1.5", "2x", "1_0", "+2", "0x2"])
    def test_non_integer_content_length_400(self, server, artifacts, length):
        status, head, error = raw_post(
            server, f"/v1/artifacts/{artifacts[0].digest}/query", length
        )
        assert status == 400
        assert error["code"] == "malformed_json"
        assert "Content-Length" in error["message"]
        assert b"Connection: close" in head

    def test_negative_content_length_400_without_hanging(self, server, artifacts):
        # Keep-alive request whose client never closes its side: a read
        # of the "rest of the stream" would block until the timeout.
        status, head, error = raw_post(
            server, f"/v1/artifacts/{artifacts[0].digest}/query", "-1"
        )
        assert status == 400
        assert error["code"] == "malformed_json"
        assert b"Connection: close" in head


def raw_post(server, path, content_length, body=b'{"type": "query"}'):
    """POST over a raw keep-alive socket with a verbatim Content-Length.

    Returns ``(status, head bytes, error dict)``; the server must close
    the connection after answering, so reading runs to EOF.
    """
    host, port = server.server_address[:2]
    request = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), head, json.loads(payload)["error"]


class TestBatch:
    def test_batch_mixed_requests_match_direct(self, server, artifacts):
        first, second = artifacts[0], artifacts[1]
        points = [[1.0, 1.0, 1.0], [2.5, 0.5, 1.5]]
        status, payload = post(
            server,
            "/v1/batch",
            [
                {"digest": first.digest, "type": "query", "points": points},
                {
                    "digest": second.digest,
                    "type": "coverage",
                    "threshold_dbm": -70.0,
                },
            ],
        )
        assert status == 200
        responses = payload["responses"]
        assert len(responses) == 2
        np.testing.assert_allclose(
            np.asarray(responses[0]["values"]),
            first.rem.query_many(points),
            atol=1e-9,
        )
        assert responses[1]["by_mac"] == second.rem.coverage_by_mac(-70.0)

    def test_batch_empty_array_422(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/batch", [])
        assert excinfo.value.code == 422
        assert error_envelope(excinfo)["code"] == "invalid_spec"

    def test_batch_item_without_digest_422(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/batch", [{"type": "coverage", "threshold_dbm": -70}])
        assert excinfo.value.code == 422
        assert error_envelope(excinfo)["code"] == "invalid_spec"

    def test_batch_unknown_digest_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(
                server,
                "/v1/batch",
                [{"digest": "0" * 64, "type": "query", "points": [[0, 0, 0]]}],
            )
        assert excinfo.value.code == 404
        assert error_envelope(excinfo)["code"] == "not_found"


class TestJobs:
    def test_post_job_builds_then_hits_cache(self, server, tiny_spec):
        status, first = post(server, "/v1/jobs", tiny_spec.to_dict())
        assert status == 201
        assert first["digest"] == tiny_spec.digest()
        assert first["cache_hit"] is False
        assert first["provenance"]["samples"] > 0

        # Re-submitting the same spec answers the stored artifact: a
        # plain 200, never a second 201 "created".
        status, second = post(server, "/v1/jobs", tiny_spec.to_dict())
        assert status == 200
        assert second["cache_hit"] is True
        assert second["content_hash"] == first["content_hash"]

    def test_bad_spec_422(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/jobs", {"acquisition": "psychic"})
        assert excinfo.value.code == 422
        error = error_envelope(excinfo)
        assert error["code"] == "invalid_spec"
        assert "psychic" in error["message"]
