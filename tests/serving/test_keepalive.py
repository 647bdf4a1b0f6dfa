"""Keep-alive latency: no Nagle stall, and a window paid only for real stragglers.

Two small writes per response (headers, then body) on a keep-alive
connection meet Nagle's algorithm and the client's delayed ACK, putting
every request at >= 40 ms.  The bounds below sit well under that, so they
hold on a slow runner and still catch the stall.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import sys
import threading
import time

import pytest

from repro.engine import EngineConfig
from repro.graph.generators import zipf_labeled_graph
from repro.obs.metrics import MetricsRegistry
from repro.serving import EstimateScheduler, SessionRegistry, make_server
from repro.serving.artifacts import make_artifact_server

CONFIG = EngineConfig(max_length=2, bucket_count=8)
PATHS = ["1/2", "2", "3/3", "1", "2/1", "3", "1/1", "2/2"]
BODY = json.dumps({"graph": "g", "paths": PATHS}).encode("utf-8")
HEADERS = {"Content-Type": "application/json"}
#: Median bound for a sequential keep-alive request; the stall is >= 40 ms.
STALL_FREE_MEDIAN_SECONDS = 0.020


def _registry() -> SessionRegistry:
    registry = SessionRegistry(default_config=CONFIG)
    registry.register(
        "g", graph=zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="g")
    )
    registry.get("g")  # built up front: no request pays the build
    return registry


@pytest.fixture()
def serve():
    """Start an estimation server with the given options; closed on teardown."""
    started = []

    def start(**options):
        server = make_server(_registry(), port=0, **options)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def _connect(server) -> http.client.HTTPConnection:
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


def _estimate(conn: http.client.HTTPConnection) -> dict:
    conn.request("POST", "/v1/estimate", body=BODY, headers=HEADERS)
    response = conn.getresponse()
    assert response.status == 200
    return json.loads(response.read())


def _stats(server) -> dict:
    conn = _connect(server)
    try:
        conn.request("GET", "/v1/stats")
        return json.loads(conn.getresponse().read())["scheduler"]
    finally:
        conn.close()


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        time.sleep(0.005)


class TestTransport:
    def test_sequential_keepalive_requests_do_not_stall(self, serve):
        server = serve()
        conn = _connect(server)
        try:
            _estimate(conn)  # connection set up, caches warm
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                document = _estimate(conn)
                latencies.append(time.perf_counter() - started)
                assert document["count"] == len(PATHS)
        finally:
            conn.close()
        assert statistics.median(latencies) < STALL_FREE_MEDIAN_SECONDS

    def test_http09_request_gets_the_bare_body(self, serve):
        # HTTP/0.9 has no status line or headers: the single write is the
        # body alone, and the server closes the connection after it.
        server = serve()
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert json.loads(reply)["status"] == "ok"

    def test_artifact_server_keepalive_does_not_stall(self, tmp_path):
        (tmp_path / "histogram-abc.json").write_text('{"buckets": []}')
        server = make_artifact_server(tmp_path, port=0, metrics=MetricsRegistry())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", "/v1/artifacts/histogram-abc.json")
                response = conn.getresponse()
                assert response.read() == b'{"buckets": []}'
                latencies.append(time.perf_counter() - started)
            # HEAD still answers with headers only, advertising the GET size.
            conn.request("HEAD", "/v1/artifacts/histogram-abc.json")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Content-Length"] == str(len('{"buckets": []}'))
            assert response.read() == b""
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert statistics.median(latencies) < STALL_FREE_MEDIAN_SECONDS


class TestWindow:
    def test_lone_request_does_not_wait_out_the_window(self, serve):
        server = serve(window_seconds=1.0)
        conn = _connect(server)
        try:
            started = time.perf_counter()
            _estimate(conn)
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.5
        assert _stats(server)["batches_total"] == 1

    def test_requests_in_flight_together_share_one_batch(self, serve):
        server = serve(window_seconds=1.0)
        host, port = server.server_address[:2]
        # Request A: headers and half the body, so its handler is in flight
        # but has not submitted yet.
        held = socket.create_connection((host, port), timeout=30)
        half = len(BODY) // 2
        held.sendall(
            (
                "POST /v1/estimate HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(BODY)}\r\n\r\n"
            ).encode("ascii")
            + BODY[:half]
        )
        _wait_until(lambda: server.scheduler.inflight == 1)
        # Request B arrives complete; the worker must hold it for A.
        answers = []
        conn = _connect(server)
        other = threading.Thread(target=lambda: answers.append(_estimate(conn)))
        other.start()
        _wait_until(lambda: server.scheduler.inflight == 2)
        time.sleep(0.05)  # let B reach the worker
        held.sendall(BODY[half:])
        reply = http.client.HTTPResponse(held)
        reply.begin()
        document = json.loads(reply.read())
        held.close()
        other.join(timeout=30)
        conn.close()
        assert reply.status == 200 and document["count"] == len(PATHS)
        assert answers and answers[0]["count"] == len(PATHS)
        stats = _stats(server)
        assert stats["batches_total"] == 1
        assert stats["mean_coalesced_requests"] == 2

    def test_inflight_count_balances_under_concurrent_clients(self, serve):
        server = serve(window_seconds=0.05)
        clients, rounds = 8, 20
        errors: list[BaseException] = []

        def client() -> None:
            conn = _connect(server)
            try:
                for _ in range(rounds):
                    assert _estimate(conn)["count"] == len(PATHS)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                conn.close()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # A lost update would leave the count above zero for good.
        _wait_until(lambda: server.scheduler.inflight == 0)
        assert _stats(server)["requests_total"] == clients * rounds

    def test_scheduler_without_front_end_waits_out_its_window(self):
        registry = _registry()
        window = 0.2
        with EstimateScheduler(registry, window_seconds=window) as scheduler:
            started = time.perf_counter()
            scheduler.submit_many("g", PATHS).result(timeout=30)
            elapsed = time.perf_counter() - started
        assert elapsed >= window * 0.9
        assert scheduler.stats.snapshot()["wait_seconds_max"] >= window * 0.9
