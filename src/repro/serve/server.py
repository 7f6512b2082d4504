"""HTTP front end for :class:`~repro.serve.service.ReproService`.

Stdlib only (``http.server``), threaded so a long simulation does not
block health checks.  The protocol is deliberately plain:

==========  ======  ====================================================
endpoint    method  behaviour
==========  ======  ====================================================
/healthz    GET     liveness probe: ``{"ok": true}``
/stats      GET     service counters + executor/cache statistics
/policies   GET     registered policy names
/workloads  GET     PARSEC workload names (plus engines)
/run        POST    body = spec payload; ``?stream=1`` answers with an
                    ``application/x-ndjson`` body — one line per
                    simulation event, then a final ``{"result": ...}``
                    line.  Warm cache hits stream the identical lines
                    (the event stream rides on the cached result).
/batch      POST    body = ``{"specs": [payload, ...]}``; results in
                    submission order
/traces     POST    body = ``.trc`` text (``?name=`` optional); spills
                    into the content-addressed store and returns the
                    ``SourceSpec`` dict (reference it from later runs
                    as ``{"source": "<digest>"}``)
/shutdown   POST    clean stop (the CI smoke job's exit path)
==========  ======  ====================================================

Connections are persistent HTTP/1.1 (every non-stream response
carries ``Content-Length``), so a client asking cache hits one after
another pays for one TCP handshake and one server thread, not one per
query.  A stream ends the connection instead: its end is the close, so
there is no chunked transfer encoding to hand-roll, and every
stdlib/curl client handles it.  HTTP/1.0 requests and requests sending
``Connection: close`` get one response and a close.  A connection idle
for :data:`IDLE_TIMEOUT_S` is closed.

Non-streamed ``/run`` and ``/batch`` write the service's stored answer
bytes as they are.  Malformed requests get a 400 with a JSON error; a
body over :data:`MAX_BODY_BYTES` gets a 413 before it is read.  A
response sent while request body bytes are still unread closes the
connection, so those bytes are never parsed as a next request.
"""

from __future__ import annotations

import io
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.serve.service import ReproService, ServiceError

#: Largest request body (``/traces`` uploads included) the server reads.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a persistent connection may sit idle (or stall mid-request)
#: before the server closes it and frees its thread.
IDLE_TIMEOUT_S = 60.0


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ReproService`."""

    # Idle keep-alive threads must not hold the process open on exit.
    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: ReproService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hung up or stalled is not a server fault: its
        # connection is dropped without a traceback.
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # One write per response: headers and body collect in the buffer
    # until handle_one_request flushes it.  As two small writes on a
    # persistent connection, Nagle's algorithm would hold the second
    # until the peer's delayed ACK of the first (tens of ms a hit).
    wbufsize = 1 << 16
    disable_nagle_algorithm = True

    server: ReproServer  # narrowed for the type checker

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; /stats carries the counters

    def parse_request(self) -> bool:
        self._body_read = False
        if not super().parse_request():
            return False
        if self.request_version == "HTTP/1.0":
            self.close_connection = True  # one request, as HTTP/1.0 has it
        return True

    def _close_after_response(self) -> None:
        """End the connection after this response (between headers)."""
        if not self.close_connection:
            self.send_header("Connection", "close")  # sets close_connection

    def _body_left(self) -> bool:
        """Whether request body bytes may still sit unread in the socket."""
        return "Transfer-Encoding" in self.headers or (
            not self._body_read
            and self.headers.get("Content-Length", "0") != "0")

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send_body(json.dumps(payload).encode("utf-8"), status)

    def _send_body(self, body: bytes, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._body_left():  # it would parse as the next request
            self._close_after_response()
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw) if raw.isascii() and raw.isdigit() else -1
        except ValueError:  # more digits than int() parses: over the cap
            length = MAX_BODY_BYTES + 1
        if length < 0:
            raise ServiceError(
                f"Content-Length must be a non-negative integer, got {raw!r}")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit", status=413)
        body = self.rfile.read(length) if length else b""
        self._body_read = True
        return body

    def _read_json(self) -> Any:
        raw = self._read_body()
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = urlparse(self.path).path
        service = self.server.service
        if path == "/healthz":
            self._send_json({"ok": True})
        elif path == "/stats":
            self._send_json(service.stats())
        elif path == "/policies":
            self._send_json({"policies": service.catalog()["policies"]})
        elif path == "/workloads":
            catalog = service.catalog()
            self._send_json({"workloads": catalog["workloads"],
                             "engines": catalog["engines"]})
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        service = self.server.service
        try:
            if url.path == "/run":
                payload = self._read_json()
                if query.get("stream", ["0"])[0] not in ("", "0"):
                    self._stream_run(*service.run(payload, stream=True))
                else:
                    spec = service.spec_from_payload(payload)
                    self._send_body(service.answers([spec])[0].body)
            elif url.path == "/batch":
                payload = self._read_json()
                items = (payload.get("specs", [])
                         if isinstance(payload, dict) else None)
                if not isinstance(items, list):
                    raise ServiceError(
                        'batch body must be {"specs": [payload, ...]}')
                specs = [service.spec_from_payload(item) for item in items]
                # The bytes json.dumps gives for {"results": [...]}.
                self._send_body(b'{"results": [' + b", ".join(
                    answer.body for answer in service.answers(specs)) + b"]}")
            elif url.path == "/traces":
                name = query.get("name", [None])[0]
                try:
                    text = self._read_body().decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ServiceError(
                        f"trace upload is not UTF-8 text: {exc}") from exc
                source = service.ingest(io.StringIO(text), name=name)
                self._send_json({"source": source.to_dict()})
            elif url.path == "/shutdown":
                self._send_json({"ok": True})
                self.wfile.flush()  # out before the process may exit
                # shutdown() must come from another thread — it joins
                # the serve loop this handler is running inside.
                threading.Thread(target=self.server.shutdown,
                                 daemon=True).start()
            else:
                self._send_error_json(404, f"unknown path {url.path!r}")
        except ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
        except (ConnectionError, TimeoutError):
            raise  # the client is gone or stalled: no one to answer
        except Exception as exc:  # a failed run is a 500, not a crash
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _stream_run(self, spec: Any, result: Any) -> None:
        # Everything that can fail runs before the 200 goes out; after
        # it, only writes remain.
        final = {"digest": spec.digest(), "label": spec.label(),
                 "result": result.to_dict()}
        last = json.dumps({"final": final}) + "\n"
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self._close_after_response()  # the close delimits the stream
        self.end_headers()
        events = result.events
        for line in (events.trace_lines if events is not None else ()):
            self.wfile.write((line + "\n").encode("utf-8"))
        self.wfile.write(last.encode("utf-8"))


def serve(host: str = "127.0.0.1", port: int = 8023,
          service: ReproService | None = None,
          ready: threading.Event | None = None) -> ReproServer:
    """Run a server until ``/shutdown`` (or KeyboardInterrupt).

    Binds, signals ``ready`` (tests use this to rendezvous), then
    blocks in ``serve_forever``.  Returns the (closed) server so
    callers can inspect the service afterwards.
    """
    server = ReproServer((host, port), service or ReproService())
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return server
