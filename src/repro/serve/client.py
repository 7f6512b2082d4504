"""Blocking client for a running ``repro serve`` endpoint.

``http.client`` only — the client exists so tests, the CI smoke job
and scripts can talk to the server without growing a dependency.  Each
thread keeps one persistent HTTP/1.1 connection for its requests; a
stream opens its own, which the server closes at the stream's end.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection
from typing import Any, Iterator
from urllib.parse import quote


class ServeError(RuntimeError):
    """Non-2xx response from the server, with its error message."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


class ServeClient:
    """Talks to one ``repro serve`` address; safe to share between
    threads (each thread gets its own connection)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8023,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(self, method: str, path: str,
                 body: bytes | None = None) -> tuple[int, bytes]:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
        while True:
            reused, response = conn.sock is not None, None
            try:
                try:
                    conn.request(method, path, body=body)
                except ConnectionError:
                    # A server may answer (a 413 over its body cap) and
                    # close before reading the whole body: that answer
                    # waits in the socket.  Read it; if there is none,
                    # the read fails and the error is handled below.
                    if conn.sock is None:
                        raise
                response = conn.getresponse()
                return response.status, response.read()
            except BaseException as exc:
                conn.close()  # reconnects on the next request
                # The server may have closed a reused connection (idle
                # timeout, restart) before it saw this request.  Every
                # endpoint is idempotent, so one retry on a fresh
                # connection is safe.
                if not (reused and response is None
                        and isinstance(exc, ConnectionError)):
                    raise

    def _json(self, method: str, path: str,
              payload: Any | None = None) -> Any:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        status, raw = self._request(method, path, body)
        data = json.loads(raw.decode("utf-8")) if raw else {}
        if status >= 400:
            raise ServeError(status, data.get("error", raw.decode("utf-8")))
        return data

    # ------------------------------------------------------------------
    def healthz(self) -> bool:
        return bool(self._json("GET", "/healthz").get("ok"))

    def stats(self) -> dict[str, Any]:
        return self._json("GET", "/stats")

    def policies(self) -> list[str]:
        return self._json("GET", "/policies")["policies"]

    def workloads(self) -> dict[str, list[str]]:
        return self._json("GET", "/workloads")

    def run(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Submit one spec; returns ``{digest, label, result}``."""
        return self._json("POST", "/run", payload)

    def run_stream(self, payload: dict[str, Any]) -> Iterator[dict[str, Any]]:
        """Submit one spec and yield its JSONL event stream.

        Yields each simulation event as a dict; the last yielded item
        is ``{"final": {digest, label, result}}``.
        """
        conn = self._connect()
        try:
            conn.request("POST", "/run?stream=1",
                         body=json.dumps(payload).encode("utf-8"))
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                data = json.loads(raw.decode("utf-8")) if raw else {}
                raise ServeError(response.status,
                                 data.get("error", raw.decode("utf-8")))
            for raw_line in response:
                line = raw_line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def batch(self, payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
        return self._json("POST", "/batch", {"specs": payloads})["results"]

    def upload_trace(self, text: str, name: str | None = None) -> dict[str, Any]:
        """Upload ``.trc`` text; returns the stored ``SourceSpec`` dict."""
        path = "/traces"
        if name:
            path += f"?name={quote(name)}"
        status, raw = self._request("POST", path, text.encode("utf-8"))
        data = json.loads(raw.decode("utf-8"))
        if status >= 400:
            raise ServeError(status, data.get("error", ""))
        return data["source"]

    def shutdown(self) -> None:
        self._json("POST", "/shutdown")
