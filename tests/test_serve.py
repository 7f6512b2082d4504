"""The resident service: payload translation, HTTP protocol, caching.

An in-thread :class:`ReproServer` on an ephemeral port exercises the
real HTTP stack end to end: cold runs, warm cache-hit re-queries
(byte-identical, zero simulation), JSONL event streaming, trace upload
feeding source-backed specs, the fast engines behind the same
endpoint, the fast lane for repeated queries, error mapping (malformed
requests sent as raw bytes), persistent connections, injected faults
(a client hanging up mid-stream, a full cache disk), and clean
shutdown.
"""

from __future__ import annotations

import errno
import gc
import json
import os
import socket
import sys
import threading
import time
import weakref
from http.client import HTTPConnection
from types import SimpleNamespace

import pytest

from repro.experiments.executor import ResultCache
from repro.mmu.simulator import RunResult
from repro.serve import ReproServer, ReproService, ServeClient
from repro.serve import server as server_module
from repro.serve import service as service_module
from repro.serve.client import ServeError
from repro.serve.service import ServiceError

RUN = {"workload": "dedup", "policy": "proposed", "request_scale": 0.05}


# ----------------------------------------------------------------------
# Service core (no HTTP)
# ----------------------------------------------------------------------
class TestServiceCore:
    @pytest.fixture
    def service(self, tmp_path) -> ReproService:
        return ReproService(jobs=1, trace_root=tmp_path / "traces")

    def test_payload_translation(self, service):
        spec = service.spec_from_payload(RUN)
        assert spec.workload == "dedup"
        assert spec.policy == "proposed"
        assert spec.request_scale == 0.05

    def test_unknown_fields_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown spec field"):
            service.spec_from_payload({**RUN, "polciy": "proposed"})

    def test_unknown_workload_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown workload"):
            service.spec_from_payload({"workload": "quake"})

    def test_unknown_engine_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown engine"):
            service.spec_from_payload({**RUN, "engine": "quantum"})

    def test_unknown_source_digest_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown source digest"):
            service.spec_from_payload({"source": "feedfacedeadbeef"})

    @pytest.mark.parametrize("fields, key", [
        ({"engine": "sampled", "sampling": {"rte": 8}}, "rte"),
        ({"events": {"intervl": 5}}, "intervl"),
        ({"engine": "sampled", "sampling": 5}, "sampling"),
        ({"events": 5}, "events"),
        ({"source": 5}, "source"),
        ({"source": {}}, "source"),
        ({"engine": "sampled", "sampling": {"scheme": "spatial"}}, "scheme"),
    ], ids=["sampling-typo", "events-typo", "sampling-number",
            "events-number", "source-number", "source-empty",
            "removed-scheme"])
    def test_bad_nested_fields_rejected(self, service, fields, key):
        with pytest.raises(ServiceError, match=key) as excinfo:
            service.spec_from_payload({**RUN, **fields})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("fields, key", [
        ({"policy": "nope"}, "nope"),
        ({"policy": "proposed", "policy_overrides": {"bogus": 1}}, "bogus"),
    ], ids=["unknown-policy", "unknown-override"])
    def test_bad_policy_rejected_before_running(self, service, fields, key):
        with pytest.raises(ServiceError, match=key) as excinfo:
            service.run({"workload": "ferret", **fields})
        assert excinfo.value.status == 400
        assert service.executor.stats.submitted == 0

    def test_stream_rejects_fast_engines(self, service):
        with pytest.raises(ServiceError, match="no event stream"):
            service.run({**RUN, "engine": "analytic"}, stream=True)

    def test_defaults_apply_only_when_absent(self, tmp_path):
        service = ReproService(jobs=1, trace_root=tmp_path / "t",
                               defaults={"engine": "analytic"})
        assert service.spec_from_payload(RUN).engine == "analytic"
        explicit = service.spec_from_payload({**RUN, "engine": "simulate"})
        assert explicit.engine == "simulate"

    def test_ingest_registers_source(self, service):
        lines = ["# name: up\n"] + [f"R {i % 9}\n" for i in range(100)]
        source = service.ingest(iter(lines), name="up")
        assert source.requests == 100
        assert source.unique_pages == 9
        assert service.sources[source.digest] is source
        spec = service.spec_from_payload(
            {"source": source.digest, "policy": "proposed"})
        assert spec.workload == "up"


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def endpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    service = ReproService(jobs=1, cache=ResultCache(tmp / "cache"),
                           trace_root=tmp / "traces")
    server = ReproServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(port=server.server_address[1], timeout=300)
    yield client, service
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestServeHTTP:
    def test_health_and_catalog(self, endpoint):
        client, _ = endpoint
        assert client.healthz()
        assert "proposed" in client.policies()
        catalog = client.workloads()
        assert "dedup" in catalog["workloads"]
        assert "analytic" in catalog["engines"]

    def test_cold_then_warm_identical(self, endpoint):
        client, service = endpoint
        cold = client.run(RUN)
        simulated = service.executor.stats.simulated
        warm = client.run(RUN)
        assert warm["result"] == cold["result"]
        assert warm["digest"] == cold["digest"]
        # The warm query was answered from the cache, not recomputed.
        assert service.executor.stats.simulated == simulated

    def test_streamed_events_then_final(self, endpoint):
        client, _ = endpoint
        lines = list(client.run_stream(RUN))
        *events, final = lines
        assert "final" in final
        assert final["final"]["result"]["accounting"]["read_requests"] > 0
        assert events, "stream carried no simulation events"
        assert all("event" in line or "kind" in line or line
                   for line in events)
        # Warm re-query streams the identical lines from the cache.
        assert list(client.run_stream(RUN)) == lines

    def test_trace_upload_feeds_source_runs(self, endpoint):
        client, _ = endpoint
        text = "# name: uploaded\n# page_size: 4096\n" + "".join(
            f"{'W' if i % 3 == 0 else 'R'} {i % 40}\n" for i in range(2_000))
        source = client.upload_trace(text, name="uploaded")
        assert source["requests"] == 2_000
        assert source["unique_pages"] == 40
        by_digest = client.run({"source": source["digest"],
                                "policy": "proposed"})
        by_dict = client.run({"source": source, "policy": "proposed"})
        assert by_digest["result"] == by_dict["result"]
        assert by_digest["digest"] == by_dict["digest"]
        assert by_digest["label"].startswith("uploaded@")

    def test_fast_engines_same_endpoint(self, endpoint):
        client, _ = endpoint
        analytic = client.run({**RUN, "engine": "analytic"})
        sampled = client.run({**RUN, "engine": "sampled"})
        assert analytic["result"]["accounting"]["read_requests"] > 0
        assert sampled["result"]["accounting"]["read_requests"] > 0
        assert analytic["digest"] != sampled["digest"]

    def test_batch_preserves_order(self, endpoint):
        client, _ = endpoint
        results = client.batch([
            {**RUN, "policy": "proposed"},
            {**RUN, "policy": "clock-dwf"},
        ])
        assert [r["label"] for r in results] \
            == ["dedup:proposed", "dedup:clock-dwf"]

    def test_error_mapping(self, endpoint):
        client, _ = endpoint
        with pytest.raises(ServeError) as bad_payload:
            client.run({"workload": "quake"})
        assert bad_payload.value.status == 400
        with pytest.raises(ServeError) as bad_path:
            client._json("GET", "/nope")
        assert bad_path.value.status == 404

    def test_stats_counts_runs(self, endpoint):
        client, _ = endpoint
        stats = client.stats()
        assert stats["runs"] > 0
        assert stats["executor"]["submitted"] >= stats["runs"]
        assert stats["uptime_seconds"] >= 0


def _raw(port: int, request: bytes) -> tuple[int, bytes]:
    """Send raw request bytes; return the status code and body."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def _post(path: str, body: bytes, length: str | None = None) -> bytes:
    length = str(len(body)) if length is None else length
    return (f"POST {path} HTTP/1.0\r\nContent-Length: {length}\r\n\r\n"
            .encode("ascii") + body)


class TestMalformedRequests:
    """Each malformed request is a 4xx with a JSON error, never a 500."""

    @pytest.mark.parametrize("length", ["-5", "twelve"])
    def test_bad_content_length(self, endpoint, length):
        client, _ = endpoint
        status, body = _raw(client.port, _post("/run", b"", length=length))
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_body_refused_unread(self, endpoint):
        client, _ = endpoint
        status, body = _raw(client.port, _post(
            "/traces", b"", length=str(server_module.MAX_BODY_BYTES + 1)))
        assert status == 413
        assert "limit" in json.loads(body)["error"]

    def test_non_utf8_upload(self, endpoint):
        client, _ = endpoint
        status, body = _raw(client.port, _post("/traces", b"R 1\nW \xff\n"))
        assert status == 400
        assert "UTF-8" in json.loads(body)["error"]

    @pytest.mark.parametrize("payload", [b'{"specs": 5}', b"[1, 2]"])
    def test_misshapen_batch(self, endpoint, payload):
        client, _ = endpoint
        status, body = _raw(client.port, _post("/batch", payload))
        assert status == 400
        assert "specs" in json.loads(body)["error"]


def _converse(port: int, request: bytes) -> list[tuple[int, dict, bytes]]:
    """Send raw request bytes on one socket and read until the server
    closes it; return every response as (status, headers, body)."""
    data = b""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(request)
        while chunk := sock.recv(65536):
            data += chunk
    responses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers.get("Content-Length", len(data)))
        responses.append((int(status_line.split()[1]), headers,
                          data[:length]))
        data = data[length:]
    return responses


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: repro\r\n\r\n"


class TestPersistentConnections:
    """HTTP/1.1 keep-alive for everything but streams."""

    def test_requests_share_one_connection(self, endpoint):
        client, service = endpoint
        spec = service.spec_from_payload(RUN)
        want = _expected_body(service, spec)
        conn = HTTPConnection("127.0.0.1", client.port, timeout=60)
        try:
            bodies, sockets = [], []
            for _ in range(2):
                conn.request("POST", "/run", json.dumps(RUN).encode())
                response = conn.getresponse()
                assert response.status == 200
                bodies.append(response.read())
                sockets.append(conn.sock)
        finally:
            conn.close()
        assert bodies == [want, want]
        assert sockets[0] is not None and sockets[0] is sockets[1]

    def test_keep_alive_answers_in_order(self, endpoint):
        client, _ = endpoint
        request = (b"GET /policies HTTP/1.1\r\nHost: repro\r\n\r\n"
                   + HEALTHZ + b"GET /healthz HTTP/1.1\r\nHost: repro\r\n"
                   b"Connection: close\r\n\r\n")
        responses = _converse(client.port, request)
        assert [status for status, _, _ in responses] == [200, 200, 200]
        assert "proposed" in json.loads(responses[0][2])["policies"]
        assert [json.loads(body) for _, _, body in responses[1:]] \
            == [{"ok": True}] * 2

    @pytest.mark.parametrize("request_line", [
        b"GET /healthz HTTP/1.0\r\n",
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n",
    ], ids=["http10", "http10-keep-alive", "connection-close"])
    def test_one_response_then_close(self, endpoint, request_line):
        client, _ = endpoint
        responses = _converse(client.port, request_line + b"\r\n" + HEALTHZ)
        assert [(status, body) for status, _, body in responses] \
            == [(200, b'{"ok": true}')]

    def test_stream_is_close_delimited(self, endpoint):
        client, _ = endpoint
        body = json.dumps(RUN).encode()
        (status, headers, stream), = _converse(client.port, (
            f"POST /run?stream=1 HTTP/1.1\r\nHost: repro\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body + HEALTHZ)
        assert status == 200
        assert headers["Connection"] == "close"
        assert "Content-Length" not in headers
        assert [json.loads(line) for line in stream.splitlines()] \
            == list(client.run_stream(RUN))

    @pytest.mark.parametrize("path, header, status", [
        ("/traces", f"Content-Length: {server_module.MAX_BODY_BYTES + 1}",
         413),
        ("/run", "Content-Length: ten", 400),
        ("/nope", "Content-Length: 4096", 404),
        ("/run", "Transfer-Encoding: chunked", 400),
    ], ids=["over-cap", "bad-length", "unknown-path", "chunked"])
    def test_unread_body_closes_connection(self, endpoint, path, header,
                                           status):
        # The body bytes left in the socket must not parse as a request.
        client, _ = endpoint
        request = (f"POST {path} HTTP/1.1\r\nHost: repro\r\n"
                   f"{header}\r\n\r\n").encode()
        (got, headers, body), = _converse(
            client.port, request + b"R 1\n" * 1024 + HEALTHZ)
        assert got == status
        assert headers["Connection"] == "close"
        assert "error" in json.loads(body)


class _HangsUp:
    """A handler's writer whose peer disconnects at the ``n``-th write."""

    def __init__(self, inner, n: int) -> None:
        self.inner, self.left = inner, n

    def write(self, data: bytes) -> int:
        self.left -= 1
        if self.left <= 0:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return self.inner.write(data)

    def flush(self) -> None:
        if self.left <= 0:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.inner.flush()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TestClientDisconnects:
    def test_hang_up_mid_stream(self, endpoint, monkeypatch, capsys):
        client, service = endpoint
        payload = {**RUN, "request_scale": 0.02}
        setup = server_module._Handler.setup
        writers = []

        def hanging_setup(handler) -> None:
            setup(handler)
            handler.wfile = _HangsUp(handler.wfile, 3)  # headers, 1 line
            writers.append(handler.wfile)

        with monkeypatch.context() as patch:
            patch.setattr(server_module._Handler, "setup", hanging_setup)
            cut = list(client.run_stream(payload))
        assert len(cut) == 1 and "final" not in cut[0]
        assert [writer.left for writer in writers] == [0]  # no 500 tried
        assert capsys.readouterr().err == ""
        assert client.healthz()
        simulated = service.executor.stats.simulated
        full = list(client.run_stream(payload))
        assert full[0] == cut[0] and "final" in full[-1]
        assert service.executor.stats.simulated == simulated  # a cache hit


class TestClientConnections:
    def test_threads_share_a_client(self, endpoint):
        client, service = endpoint
        payloads = [RUN, {**RUN, "engine": "analytic"}]
        wants = [_expected_body(service, service.spec_from_payload(p))
                 for p in payloads]
        bad: list = []

        def hammer(payload: dict, want: bytes) -> None:
            body = json.dumps(payload).encode()
            for _ in range(50):
                try:
                    reply = client._request("POST", "/run", body)
                except Exception as exc:  # recorded, not lost with the thread
                    reply = exc
                if reply != (200, want):
                    bad.append(reply)

        threads = [threading.Thread(target=hammer, args=pair)
                   for pair in zip(payloads, wants)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []

    def test_retries_a_connection_closed_while_idle(self, endpoint,
                                                    monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.1)
        client = ServeClient(port=endpoint[0].port, timeout=60)
        first = client.run(RUN)
        stale = client._local.conn.sock
        time.sleep(0.5)  # the server closes the idle connection
        assert client.run(RUN) == first
        assert client._local.conn.sock is not stale

    @pytest.mark.parametrize("reused", [False, True])
    def test_oversized_upload_reads_the_413(self, endpoint, monkeypatch,
                                            reused):
        # The server answers 413 and closes without reading the body, so
        # sending a body far over the cap fails part-way; the answer
        # waiting in the socket is what the client must report, without
        # sending the body again.
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 1000)
        client = ServeClient(port=endpoint[0].port, timeout=60)
        if reused:
            assert client.healthz()
        sent: list[str] = []
        real = HTTPConnection.request

        def counting(conn, method, url, *args, **kwargs):
            sent.append(url)
            return real(conn, method, url, *args, **kwargs)

        monkeypatch.setattr(HTTPConnection, "request", counting)
        with pytest.raises(ServeError) as raised:
            client.upload_trace("R 0x1\n" * ((4 << 20) // 6), name="huge")
        assert raised.value.status == 413
        assert sent == ["/traces?name=huge"]


class TestFullDisk:
    def test_run_answers_when_the_cache_cannot_write(self, tmp_path,
                                                     monkeypatch):
        service = ReproService(jobs=1, cache=ResultCache(tmp_path / "cache"),
                               trace_root=tmp_path / "traces")
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setattr(os, "replace", _no_space)
            client = ServeClient(port=server.server_address[1], timeout=300)
            spec = service.spec_from_payload(RUN)
            status, body = client._request("POST", "/run",
                                           json.dumps(RUN).encode())
            assert status == 200
            assert body == json.dumps({
                "digest": spec.digest(), "label": spec.label(),
                "result": spec.execute().to_dict()}).encode("utf-8")
            assert client.stats()["executor"]["cache_write_errors"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert list((tmp_path / "cache").iterdir()) == []


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _expected_body(service: ReproService, spec) -> bytes:
    """What the executor path encodes for ``spec`` (a warm cache read)."""
    result = service.executor.submit([spec])[0]
    return json.dumps({"digest": spec.digest(), "label": spec.label(),
                       "result": result.to_dict()}).encode("utf-8")


class TestFastLane:
    def _payloads(self, client):
        text = "# name: lane\n" + "".join(
            f"{'W' if i % 4 == 0 else 'R'} {i % 30}\n" for i in range(1_000))
        source = client.upload_trace(text, name="lane")
        return [RUN, {**RUN, "engine": "analytic"},
                {**RUN, "engine": "sampled"},
                {"source": source["digest"], "policy": "proposed"}]

    def test_bodies_match_executor_path(self, endpoint):
        client, service = endpoint
        payloads = self._payloads(client)
        specs = [service.spec_from_payload(p) for p in payloads]
        expected = [_expected_body(service, spec) for spec in specs]
        for payload, want in zip(payloads, expected):
            for _ in range(2):  # a miss or hit, then surely a hit
                status, body = client._request(
                    "POST", "/run", json.dumps(payload).encode("utf-8"))
                assert status == 200
                assert body == want
        hits = service.fast_lane.hits
        status, body = client._request(
            "POST", "/batch", json.dumps({"specs": payloads}).encode())
        assert status == 200
        assert body == json.dumps({"results": [
            json.loads(want) for want in expected]}).encode("utf-8")
        assert service.fast_lane.hits == hits + len(payloads)

    def test_hit_skips_lock_and_codecs_miss_waits(self, endpoint,
                                                  monkeypatch):
        client, service = endpoint
        request = json.dumps({**RUN, "policy": "clock-dwf"}).encode()
        _, warm = client._request("POST", "/run", request)

        def boom(*args, **kwargs):
            raise AssertionError("fast-lane hit touched a slow path")

        for owner, name in ((RunResult, "to_dict"), (RunResult, "from_dict"),
                            (ResultCache, "get")):
            monkeypatch.setattr(owner, name, boom)
        # No response encoding (the spec digest still uses json.dumps).
        no_dumps = SimpleNamespace(dumps=boom, loads=json.loads,
                                   JSONDecodeError=json.JSONDecodeError)
        for module in (server_module, service_module):
            monkeypatch.setattr(module, "json", no_dumps)
        replies: dict[str, tuple[int, bytes]] = {}

        def ask(key: str, body: bytes) -> None:
            replies[key] = client._request("POST", "/run", body)

        with service._lock:
            hit = threading.Thread(target=ask, args=("hit", request))
            hit.start()
            hit.join(timeout=30)
            assert not hit.is_alive(), "hit waited on the service lock"
            miss = threading.Thread(target=ask, args=(
                "miss", b'{"workload": "dedup", "request_scale": 0.04}'))
            miss.start()
            miss.join(timeout=0.5)
            assert miss.is_alive(), "miss ran without the service lock"
            monkeypatch.undo()
        miss.join(timeout=300)
        assert not miss.is_alive()
        assert replies["hit"] == (200, warm)
        assert replies["miss"][0] == 200

    def test_stats_count_lane_hits(self, endpoint):
        client, service = endpoint
        client.run(RUN)
        before = client.stats()
        client.run(RUN)
        after = client.stats()
        assert after["fast_lane"]["hits"] == before["fast_lane"]["hits"] + 1
        assert after["runs"] == before["runs"] + 1
        for key in ("submitted", "cache_hits"):
            assert after["executor"][key] == before["executor"][key] + 1
        assert after["executor"]["simulated"] \
            == before["executor"]["simulated"]


class TestFastLaneService:
    def test_no_cache_recomputes(self, tmp_path):
        service = ReproService(jobs=1, trace_root=tmp_path / "traces")
        service.run(RUN)
        service.run(RUN)
        assert service.executor.stats.simulated == 2
        assert not service.fast_lane.entries
        assert service.stats()["runs"] == 2

    def test_events_dir_repersists(self, tmp_path):
        service = ReproService(jobs=1, cache=ResultCache(tmp_path / "cache"),
                               trace_root=tmp_path / "traces",
                               events_dir=tmp_path / "events")
        payload = {**RUN, "events": True}
        spec, _ = service.run(payload)
        target = (tmp_path / "events"
                  / f"dedup-proposed-{spec.digest()}.jsonl")
        first = target.read_text("utf-8")
        target.unlink()
        service.run(payload)
        assert target.read_text("utf-8") == first
        assert service.executor.stats.cache_hits == 1
        assert not service.fast_lane.entries
        # A spec without events still takes the lane.
        service.run(RUN)
        assert len(service.fast_lane.entries) == 1

    def test_budget_evicts_oldest(self, tmp_path, monkeypatch):
        service = ReproService(jobs=1, cache=ResultCache(tmp_path / "cache"),
                               trace_root=tmp_path / "traces")
        specs = [service.spec_from_payload(
            {**RUN, "engine": "analytic", "policy": policy})
            for policy in ("proposed", "clock-dwf", "dram-only")]
        sizes = [len(answer.body) for answer in service.answers(specs[:1])]
        monkeypatch.setattr(service_module, "FAST_LANE_BYTES",
                            2 * sizes[0] + 64)
        service.fast_lane = service_module.FastLane()
        for spec in specs:
            service.answers([spec])
        lane = service.fast_lane
        assert list(lane.entries) == [s.digest() for s in specs[1:]]
        assert lane.bytes == sum(len(a.body) for a in lane.entries.values())
        assert lane.bytes <= service_module.FAST_LANE_BYTES

    def test_concurrent_puts_and_hits_keep_accounts(self, monkeypatch):
        monkeypatch.setattr(service_module, "FAST_LANE_BYTES", 4_000)
        lane = service_module.FastLane()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def hammer(worker: int) -> None:
            for i in range(300):
                key = f"{worker}-{i % 40}"
                lane.put(key, service_module.Answer(b"x" * (50 + i % 7),
                                                    None))
                lane.entries.get(f"{(worker + 1) % 8}-{i % 40}")
                lane.count_hits(1)

        try:
            threads = [threading.Thread(target=hammer, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lane.bytes == sum(len(a.body) for a in lane.entries.values())
        assert lane.bytes <= 4_000
        assert lane.hits == 8 * 300


class TestServeShutdown:
    def test_shutdown_endpoint_stops_server(self, tmp_path):
        service = ReproService(jobs=1, trace_root=tmp_path / "traces")
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(port=server.server_address[1], timeout=60)
        assert client.healthz()
        client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


class TestEventPersistence:
    def test_events_dir_persists_streamed_runs(self, tmp_path):
        service = ReproService(jobs=1, trace_root=tmp_path / "traces",
                               events_dir=tmp_path / "events")
        spec, result = service.run(RUN, stream=True)
        target = (tmp_path / "events"
                  / f"dedup-proposed-{spec.digest()}.jsonl")
        assert target.is_file()
        lines = target.read_text("utf-8").splitlines()
        assert lines == list(result.events.trace_lines)
        for line in lines:
            json.loads(line)

    def test_streamed_summaries_do_not_outlive_requests(self, tmp_path):
        # A resident service must not keep any run's event stream once
        # the request that asked for it is answered.
        service = ReproService(jobs=1, trace_root=tmp_path / "traces")
        summaries = []
        for seed in (1, 2, 3):
            _, result = service.run(
                {**RUN, "request_scale": 0.001, "seed": seed}, stream=True)
            assert result.events.trace_lines
            summaries.append(weakref.ref(result.events))
            del result
        gc.collect()
        assert [ref() for ref in summaries] == [None, None, None]
