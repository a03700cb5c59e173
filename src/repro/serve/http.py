"""Stdlib JSON/HTTP front end over :class:`~repro.serve.RemService`.

A :class:`ThreadingHTTPServer` (one thread per connection, no
third-party dependencies) exposing the serving API:

* ``GET  /healthz`` — liveness plus store/LRU statistics (the artifact
  count comes from the store's cached counter, so probes stay O(1));
* ``GET  /v1/artifacts`` — sidecar records of every stored artifact;
* ``POST /v1/jobs`` — body is a :class:`~repro.serve.RemJobSpec` JSON;
  builds the artifact (201) or answers the stored one (200 on a cache
  hit) and returns its record;
* ``POST /v1/artifacts/<digest>/query`` — body is a typed request
  (``{"type": "query" | "strongest_ap" | "coverage" | "dark_regions",
  ...}``) whose point payloads are batched: hundreds of points amortize
  one HTTP+JSON round trip;
* ``POST /v1/batch`` — body is a JSON array of typed requests, each
  carrying its own ``digest``; answers
  ``{"responses": [...]}`` in order — the cross-request batch shape.

Errors share one envelope: ``{"error": {"code": <slug>, "message":
<human>}}`` with 400 ``malformed_json`` (body empty or not JSON), 404
``not_found`` (unknown digest or route), 422 ``invalid_spec``
(well-formed JSON describing an invalid spec/request) and 500
``internal`` (anything else).

The handler keeps connections alive (HTTP/1.1), disables Nagle's
algorithm and buffers each response into a single ``send`` — without
those, a keep-alive round trip on Linux stalls ~40 ms in the delayed-ACK
/ Nagle interaction, which is the difference between ~20 and ~4000
round trips/s per connection.

Use :func:`create_server` and drive ``serve_forever`` yourself (the
CLI's single-process ``repro serve`` does exactly that;
:mod:`~repro.serve.cluster` runs one such server per worker process).
"""

from __future__ import annotations

import json
import socket
import socketserver
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .service import RemService, request_from_dict, requests_from_list
from .spec import RemJobSpec

__all__ = ["RemHttpServer", "create_server"]


class RemHttpServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`RemService`.

    ``listener`` adopts an already-bound, already-listening socket
    instead of binding a fresh one (the cluster's inherited-listener
    fork path); ``reuse_port`` binds with ``SO_REUSEPORT`` so several
    worker processes can share one address and let the kernel balance
    accepts across them.
    """

    daemon_threads = True
    #: Listen backlog: the socketserver default (5) drops bursts of
    #: simultaneous connects that a load generator routinely produces.
    request_queue_size = 128
    #: Per-connection socket timeout handed to handlers (``None`` =
    #: block forever).  Cluster workers set a finite value so graceful
    #: drain is bounded by idle keep-alive connections.
    handler_timeout: Optional[float] = None
    #: When True, handlers close their connection after the in-flight
    #: response — flipped by the cluster worker's drain sequence.
    draining = False

    def __init__(
        self,
        service: RemService,
        address: Tuple[str, int],
        listener: Optional[socket.socket] = None,
        reuse_port: bool = False,
    ):
        self._reuse_port = reuse_port
        if listener is None:
            super().__init__(address, _Handler)
        else:
            socketserver.BaseServer.__init__(
                self, listener.getsockname()[:2], _Handler
            )
            self.socket = listener
            self.server_address = listener.getsockname()[:2]
        self.service = service

    def server_bind(self) -> None:
        """Bind, optionally with ``SO_REUSEPORT`` (see class docstring)."""
        if self._reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
                raise OSError("SO_REUSEPORT is not available on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _LeanHeaders(dict):
    """Case-insensitive header lookup over lowercased keys."""

    def get(self, name, default=None):
        """Lookup by header name, any case."""
        return dict.get(self, name.lower(), default)


#: Reason phrases for the status codes this API emits.
_PHRASES = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


class _MalformedBody(ValueError):
    """A request body that is not JSON at all (empty or undecodable).

    Distinguishes transport-level malformation (400) from a
    well-formed JSON payload describing an invalid spec/request (422).
    """


class _Handler(BaseHTTPRequestHandler):
    """Routes the fixed endpoint set onto the service."""

    server: RemHttpServer
    protocol_version = "HTTP/1.1"
    # One TCP segment per response instead of header/body trickling
    # through Nagle: send immediately, and buffer writes until the
    # per-request flush.
    disable_nagle_algorithm = True
    wbufsize = -1

    #: Date-header cache (the stdlib formats a fresh RFC-2822 string
    #: per response; at thousands of responses/s that is real time).
    _date_cache: Tuple[int, str] = (-1, "")

    # -- plumbing ------------------------------------------------------
    def setup(self) -> None:
        """Per-connection setup honoring the server's handler timeout."""
        self.timeout = self.server.handler_timeout
        super().setup()

    def handle_one_request(self) -> None:
        """One lean request/response cycle (keep-alive aware).

        Replaces the stdlib parse loop: ``email``-based header parsing
        alone costs ~100 µs/request, several times this service's
        actual per-query work.  This API only ever needs the request
        line, a flat header dict and a ``Content-Length`` body, so
        that is all that gets parsed; anything malformed falls back to
        the stdlib error responses.
        """
        self.close_connection = True
        try:
            line = self.rfile.readline(65537)
            if not line:
                return
            if len(line) > 65536:
                self.requestline = self.command = self.path = ""
                self.request_version = self.protocol_version
                self.send_error(414)
                return
            self.requestline = line.strip().decode("latin-1")
            parts = self.requestline.split()
            if len(parts) != 3:
                self.command = self.path = ""
                self.request_version = self.protocol_version
                self.send_error(400, f"bad request line {self.requestline!r}")
                return
            self.command, self.path, self.request_version = parts
            headers = _LeanHeaders()
            while True:
                field = self.rfile.readline(65537)
                if field in (b"\r\n", b"\n", b""):
                    break
                name, _, value = field.partition(b":")
                headers[name.strip().lower().decode("latin-1")] = (
                    value.strip().decode("latin-1")
                )
            self.headers = headers
            connection = (headers.get("connection") or "").lower()
            if self.request_version >= "HTTP/1.1":
                self.close_connection = connection == "close"
            else:
                self.close_connection = connection != "keep-alive"
            if (headers.get("expect") or "").lower() == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            method = getattr(self, f"do_{self.command}", None)
            if method is None:
                self.send_error(501, f"Unsupported method ({self.command!r})")
                return
            method()
            self.wfile.flush()
        except TimeoutError:
            # Idle keep-alive connection hit the handler timeout.
            self.close_connection = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (the service is the API)."""

    def date_time_string(self, timestamp=None) -> str:
        """The Date header value, cached per wall-clock second."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        now = int(time.time())
        second, value = _Handler._date_cache
        if second != now:
            value = super().date_time_string(now)
            _Handler._date_cache = (now, value)
        return value

    def _send_json(self, code: int, payload) -> None:
        self._send_body(code, json.dumps(payload).encode("utf-8"))

    def _send_body(self, code: int, body: bytes) -> None:
        if self.server.draining:
            self.close_connection = True
        connection = "close" if self.close_connection else "keep-alive"
        head = (
            f"HTTP/1.1 {code} {_PHRASES.get(code, '')}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _send_error(self, status: int, code: str, message: str) -> None:
        """The error envelope every endpoint shares.

        Body shape: ``{"error": {"code": <slug>, "message": <human>}}``
        with ``code`` one of ``malformed_json`` (400), ``invalid_spec``
        (422), ``not_found`` (404) or ``internal`` (500).
        """
        self._send_json(status, {"error": {"code": code, "message": message}})

    def _read_json(self):
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # The body's extent is unknown, so the connection cannot
            # carry another request (and rfile.read(-1) would block
            # until the client closes it).
            self.close_connection = True
            raise _MalformedBody(f"invalid Content-Length {header!r}")
        length = int(header)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _MalformedBody("empty request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _MalformedBody(f"request body is not valid JSON: {exc}") from exc

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        """GET routing: /healthz and /v1/artifacts."""
        service = self.server.service
        if self.path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "artifacts": service.artifact_count(),
                    "cache": service.cache_info(),
                },
            )
        elif self.path == "/v1/artifacts":
            self._send_json(200, {"artifacts": service.artifacts()})
        else:
            self._send_error(404, "not_found", f"no route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        """POST routing: /v1/jobs, /v1/batch, /v1/artifacts/<digest>/query."""
        service = self.server.service
        try:
            if self.path == "/v1/jobs":
                spec = RemJobSpec.from_dict(self._read_json())
                artifact = service.submit(spec)
                record = artifact.record()
                record["cache_hit"] = artifact.cache_hit
                # 201 announces a fresh build; answering a spec whose
                # artifact already existed is a plain 200.
                self._send_json(200 if artifact.cache_hit else 201, record)
                return
            if self.path == "/v1/batch":
                requests = requests_from_list(self._read_json())
                responses = service.handle_many(requests)
                body = (
                    '{"responses": ['
                    + ", ".join(r.to_json() for r in responses)
                    + "]}"
                )
                self._send_body(200, body.encode("utf-8"))
                return
            parts = [p for p in self.path.split("/") if p]
            if (
                len(parts) == 4
                and parts[:2] == ["v1", "artifacts"]
                and parts[3] == "query"
            ):
                request = request_from_dict(parts[2], self._read_json())
                response = service.handle(request)
                self._send_body(200, response.to_json().encode("utf-8"))
            else:
                self._send_error(404, "not_found", f"no route {self.path!r}")
        except _MalformedBody as exc:
            self._send_error(400, "malformed_json", str(exc))
        except KeyError as exc:
            self._send_error(404, "not_found", str(exc).strip('"'))
        except (ValueError, TypeError) as exc:
            self._send_error(422, "invalid_spec", str(exc))
        except Exception as exc:  # noqa: BLE001 - API boundary backstop
            self._send_error(500, "internal", f"{type(exc).__name__}: {exc}")


def create_server(
    service: RemService,
    host: str = "127.0.0.1",
    port: int = 8000,
    listener: Optional[socket.socket] = None,
    reuse_port: bool = False,
) -> RemHttpServer:
    """Bind a :class:`RemHttpServer` (``port=0`` picks a free port).

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()``/``server_close()`` to stop.  The bound address is
    ``server.server_address``.  ``listener``/``reuse_port`` are the
    cluster workers' socket-sharing hooks (see :class:`RemHttpServer`).
    """
    return RemHttpServer(
        service, (host, port), listener=listener, reuse_port=reuse_port
    )
