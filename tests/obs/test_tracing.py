"""Tracing: span capture, context propagation, the store, JSON logs."""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.request

import pytest

from repro.engine import EngineConfig
from repro.graph.generators import zipf_labeled_graph
from repro.obs import tracing
from repro.obs.tracing import Trace, TraceStore, activate, current_trace, new_request_id
from repro.serving import SessionRegistry, make_server

CONFIG = EngineConfig(max_length=2, bucket_count=8)


class TestTrace:
    def test_request_id_minted_when_absent(self):
        trace = Trace()
        assert len(trace.request_id) == 32

    def test_span_context_manager_records(self):
        trace = Trace("rid", route="GET /x")
        with trace.span("step", detail=1):
            pass
        spans = trace.spans()
        assert [span.name for span in spans] == ["step"]
        assert spans[0].attrs == {"detail": 1}
        assert spans[0].seconds >= 0.0

    def test_finish_is_idempotent(self):
        trace = Trace()
        first = trace.finish(200)
        second = trace.finish(500)
        assert trace.status == 200
        assert first == second == trace.seconds

    def test_as_row_shape(self):
        trace = Trace("rid", route="POST /estimate")
        trace.add_span("a", 0.5)
        trace.finish(200)
        row = trace.as_row()
        assert row["request_id"] == "rid"
        assert row["route"] == "POST /estimate"
        assert row["status"] == 200
        assert row["spans"] == [{"name": "a", "seconds": 0.5}]


class TestContextPropagation:
    def test_module_span_is_noop_without_active_trace(self):
        assert current_trace() is None
        with tracing.span("ignored"):
            pass  # nothing to assert beyond "does not raise"

    def test_activate_scopes_the_trace(self):
        trace = Trace()
        with activate(trace):
            assert current_trace() is trace
            with tracing.span("inner", tag="x"):
                pass
            with activate(None):
                assert current_trace() is None
        assert current_trace() is None
        assert [span.name for span in trace.spans()] == ["inner"]

    def test_explicit_handoff_across_threads(self):
        # The scheduler pattern: capture on submit, re-activate on the worker.
        trace = Trace()
        with activate(trace):
            captured = current_trace()

        def worker() -> None:
            with activate(captured):
                with tracing.span("worker.step"):
                    pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert [span.name for span in trace.spans()] == ["worker.step"]


class TestTraceStore:
    def _finished(self, seconds: float, request_id: str) -> Trace:
        trace = Trace(request_id)
        trace.finish(200)
        trace.seconds = seconds
        return trace

    def test_windows_and_find(self):
        store = TraceStore(slowest=2, recent=3)
        for index in range(5):
            store.record(self._finished(float(index), f"r{index}"))
        snapshot = store.snapshot()
        assert store.recorded() == 5
        assert [row["request_id"] for row in snapshot["recent"]] == ["r4", "r3", "r2"]
        assert [row["request_id"] for row in snapshot["slowest"]] == ["r4", "r3"]
        assert store.find("r4") is not None
        assert store.find("r0") is None

    def test_size_validation(self):
        with pytest.raises(ValueError):
            TraceStore(slowest=0)


class TestJsonLogs:
    def test_emit_trace_is_one_json_line(self, capsys):
        tracing.configure_logging(json_lines=True, level="info")
        try:
            trace = Trace("deadbeef", route="POST /estimate")
            trace.add_span("session.histogram", 0.01, kind="v-optimal")
            trace.finish(200)
            tracing.emit_trace(trace)
        finally:
            logger = logging.getLogger("repro")
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_obs", False):
                    logger.removeHandler(handler)
            logger.propagate = True
        line = capsys.readouterr().err.strip().splitlines()[-1]
        document = json.loads(line)
        assert document["request_id"] == "deadbeef"
        assert document["status"] == 200
        assert document["spans"][0]["name"] == "session.histogram"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            tracing.configure_logging(level="chatty")


@pytest.fixture()
def server():
    registry = SessionRegistry(default_config=CONFIG)
    registry.register(
        "g", graph=zipf_labeled_graph(30, 100, 3, skew=1.0, seed=7, name="g")
    )
    server = make_server(registry, port=0, window_seconds=0.005)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


class TestEndToEndPropagation:
    def test_one_request_id_spans_http_scheduler_and_registry(self, server):
        host, port = server.server_address[:2]
        request_id = new_request_id()
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/estimate",
            data=json.dumps({"graph": "g", "paths": ["1/2", "2"]}).encode(),
            headers={"Content-Type": "application/json", "X-Request-Id": request_id},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"] == request_id
            json.loads(response.read())
        trace = server.traces.find(request_id)
        assert trace is not None
        names = {span.name for span in trace.spans()}
        # The cold first request crosses every layer: HTTP enqueue, the
        # scheduler's wait/batch spans, and the registry build it triggered.
        assert "scheduler.enqueue" in names
        assert "scheduler.wait" in names
        assert "scheduler.estimate_batch" in names
        assert "registry.build" in names

    def test_http_layer_spans_account_for_the_request(self, server):
        host, port = server.server_address[:2]
        server.registry.get("g")
        request_id = new_request_id()
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/estimate",
            data=json.dumps({"graph": "g", "paths": ["1/2", "2"]}).encode(),
            headers={"Content-Type": "application/json", "X-Request-Id": request_id},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            json.loads(response.read())
        trace = server.traces.find(request_id)
        assert trace is not None
        # The trace is retained before the response leaves; the write's own
        # span joins it once the write returns.
        deadline = time.perf_counter() + 10
        while "socket.write" not in {span.name for span in trace.spans()}:
            assert time.perf_counter() < deadline, "socket.write span never landed"
            time.sleep(0.001)
        spans = {span.name: span for span in trace.spans()}
        order = [span.name for span in trace.spans()]
        for name in ("http.read", "json.decode", "json.encode"):
            assert name in spans
        # Read and decode come before the scheduler; encode and write after.
        assert order.index("json.decode") < order.index("scheduler.enqueue")
        assert order.index("scheduler.estimate_batch") < order.index("json.encode")
        assert order[-1] == "socket.write"
        assert spans["http.read"].attrs["bytes"] == len(request.data)
        # The trace is sealed just before the write, so every other layer
        # fits inside its duration.
        sealed = [span.seconds for span in trace.spans() if span.name != "socket.write"]
        assert sum(sealed) <= trace.seconds

    def test_scrape_routes_are_not_traced(self, server):
        host, port = server.server_address[:2]
        before = server.traces.recorded()
        with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30):
            pass
        assert server.traces.recorded() == before

    def test_kill_switch_disables_request_tracing(self, server):
        host, port = server.server_address[:2]
        before = server.traces.recorded()
        request_id = new_request_id()
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/estimate",
            data=json.dumps({"graph": "g", "paths": ["1/2"]}).encode(),
            headers={"Content-Type": "application/json", "X-Request-Id": request_id},
        )
        tracing.set_tracing_enabled(False)
        try:
            assert not tracing.tracing_enabled()
            with urllib.request.urlopen(request, timeout=30) as response:
                # The id is still echoed (correlation survives), but no
                # trace is created or retained.
                assert response.headers["X-Request-Id"] == request_id
                json.loads(response.read())
        finally:
            tracing.set_tracing_enabled(True)
        assert server.traces.recorded() == before
        assert server.traces.find(request_id) is None
