"""Serving workloads: the real ``repro serve`` CLI over keep-alive sockets.

A run is a few rounds, each on a fresh ``repro serve --warm --workers 1``
with an empty cache: the launch until ``/v1/readyz`` answers is one
``setup_s`` sample, then closed-loop clients drive a slice of the timed
window (every connection sends its next request only after the previous
reply has been read in full, as an optimizer waiting on each estimate
does), then come warm starts, cold rebuilds and updates.  Every reply is
compared byte for byte with the in-process ``estimate_batch`` answer for
the same paths."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from perfbench import inputs
from perfbench.hostspeed import ScaledTimes, cpu_seconds, split_cpus
from perfbench.layers import (
    Checks,
    build_probes,
    check_oracle,
    check_same_session,
    delta_probe,
    estimate_probes,
    peak_rss_mb,
    seeded,
    session_stage_seconds,
    timed_update,
)
from perfbench.spans import SpanRecorder
from repro.engine import EngineConfig, EstimationSession
from repro.estimation.errors import mean_error_rate
from repro.graph.io import read_edge_list, write_edge_list
from repro.serving.registry import SessionRegistry
from repro.serving.scheduler import EstimateScheduler

#: name -> graph, engine flags, load shape.  ``backend`` is passed to the
#: server only when set; the sparse graph uses the matrix kernel so one cold
#: start takes about a second instead of ten.  Each of the ``rounds`` is one
#: fresh server (one ``setup_s`` sample and one ``server_rss_mb`` sample)
#: that rebuilds its session cold ``cold_rebuilds`` times, applies the same
#: ``deltas`` updates, and re-checks ``recheck`` pool bodies after each step.
WORKLOADS = {
    "point-dense": {
        "graph": "moreno",
        "max_length": 4,
        "storage": "dense",
        "backend": None,
        "connections": 2,
        "paths_per_request": 8,
        "pool": 512,
        "rounds": 3,
        "cold_rebuilds": 3,
        "deltas": 3,
        "recheck": 4,
    },
    "bulk-sparse": {
        "graph": "bulk",
        "max_length": 6,
        "storage": "sparse",
        "backend": "matrix",
        "connections": 1,
        "paths_per_request": 4096,
        "pool": 16,
        "rounds": 3,
        "cold_rebuilds": 3,
        "deltas": 2,
        "recheck": 1,
    },
}

#: Evict + warm round trips per round; ``warm_start_s`` is their mean.
WARM_STARTS = 15
#: Seconds of unmeasured traffic before the timed window opens.
WARMUP_SECONDS = 0.5
#: Seconds of closed-loop traffic between two host-speed probes.
BURST_SECONDS = 0.5
#: Paths per graph checked against the BFS oracle.
ORACLE_PATHS = 32
GRAPH_NAME = "g"


class Server:
    """One ``repro serve`` process with its own log file and empty cache."""

    def __init__(self, root: Path, work: Path, edge_list: Path, spec: dict, launch: int, cpu: Optional[int]) -> None:
        self.cache = work / f"cache-{launch}"
        self.log_path = work / f"server-{launch}.log"
        flags = [
            "--graph", f"{GRAPH_NAME}={{edge_list}}",
            "--host", "127.0.0.1", "--port", "0", "--workers", "1",
            "-k", str(spec["max_length"]), "--storage", spec["storage"],
            "--cache-dir", "{cache_dir}", "--warm",
        ]
        if spec["backend"]:
            flags += ["--backend", spec["backend"]]
        #: The exact flags, with the run's own paths left as placeholders.
        self.flags = ["serve", *flags]
        self.argv = [sys.executable, "-m", "repro", "serve"] + [
            flag.format(edge_list=edge_list, cache_dir=self.cache) for flag in flags
        ]
        self.root = root
        self.cpu = cpu
        self.port = 0
        self.process: Optional[subprocess.Popen] = None
        self.setup_s = 0.0

    def start(self, timeout: float = 90.0) -> None:
        """Launch and block until ``/v1/readyz`` answers 200."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        started = time.perf_counter()
        with self.log_path.open("wb") as log:
            self.process = subprocess.Popen(
                self.argv, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                preexec_fn=None if self.cpu is None else lambda: os.sched_setaffinity(0, {self.cpu}),
            )
        deadline = started + timeout
        pattern = re.compile(rb"on http://127\.0\.0\.1:(\d+)")
        while not self.port:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            self._alive_or_raise(deadline)
            time.sleep(0.005)
        while True:
            try:
                status, _ = self.request("GET", "/v1/readyz")
                if status == 200:
                    break
            except OSError:
                pass
            self._alive_or_raise(deadline)
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def _alive_or_raise(self, deadline: float) -> None:
        if self.process.poll() is not None or time.perf_counter() > deadline:
            tail = self.log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"repro serve did not become ready:\n{tail}")

    def request(self, method: str, path: str, document: Optional[dict] = None) -> tuple[int, bytes]:
        """One management request on a fresh connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = json.dumps(document).encode("utf-8") if document is not None else None
            conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """``/v1/metrics`` as ``series -> value``."""
        _, text = self.request("GET", "/v1/metrics")
        out = {}
        for line in text.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                out[series] = float(value)
        return out

    def cache_bytes(self) -> int:
        """Bytes of every file in the server's cache directory."""
        return sum(p.stat().st_size for p in self.cache.rglob("*") if p.is_file())

    def stop(self) -> Optional[int]:
        """SIGTERM, wait for the drain, and return the exit code."""
        if self.process is None or self.process.poll() is not None:
            return None if self.process is None else self.process.returncode
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return None


def closed_loop(
    server: "Server",
    pool: list[tuple[list[str], bytes]],
    expected: list[bytes],
    *,
    connections: int,
    warmup: float,
    seconds: float,
    checks: Checks,
    rec: SpanRecorder,
    alternate_trace: bool,
    times: ScaledTimes,
) -> tuple[list[tuple[float, bool]], float]:
    """Run the keep-alive closed loop; return ``(latency_s, traced)`` in the window
    and the window's wall seconds.

    Traffic runs in bursts of :data:`BURST_SECONDS`, with the host-speed
    probe between them, while the clients are idle; each untraced latency of
    a burst after the warm-up goes into ``times`` with that burst's speed and
    CPU seconds.  Every reply is checked; failures and mismatches count
    toward ``checks`` whether or not they are in the window.  With
    ``alternate_trace`` every other request runs under spans.
    """
    headers = {"Content-Type": "application/json"}
    conns = [http.client.HTTPConnection("127.0.0.1", server.port, timeout=60) for _ in range(connections)]
    next_body = [slot * len(pool) // connections for slot in range(connections)]
    sent = [0] * connections
    outcomes = [[0, 0] for _ in range(connections)]
    mismatches: list[str] = []

    def client(slot: int, burst_end: float, out: list[tuple[float, bool]]) -> None:
        while time.perf_counter() < burst_end:
            traced = rec.enabled and (not alternate_trace or sent[slot] % 2 == 1)
            body_index = next_body[slot] % len(pool)
            conn = conns[slot]
            ok = False
            t0 = time.perf_counter()
            try:
                if traced:
                    with rec.span("client.request", op_id=f"c{slot}-{sent[slot]}"):
                        with rec.span("http.request"):
                            conn.request("POST", "/v1/estimate", body=pool[body_index][1], headers=headers)
                        with rec.span("http.getresponse"):
                            response = conn.getresponse()
                        with rec.span("http.read"):
                            data = response.read()
                else:
                    conn.request("POST", "/v1/estimate", body=pool[body_index][1], headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                t1 = time.perf_counter()
                ok = response.status == 200 and (
                    data == expected[body_index]
                    or json.loads(data).get("estimates") == json.loads(expected[body_index])["estimates"]
                )
                if not ok and len(mismatches) < 5:
                    mismatches.append(f"body {body_index}: status {response.status}")
            except (OSError, http.client.HTTPException, ValueError) as exc:
                t1 = time.perf_counter()
                if len(mismatches) < 5:
                    mismatches.append(f"body {body_index}: {exc!r}")
                conn.close()
                conns[slot] = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            outcomes[slot][0] += 1
            outcomes[slot][1] += 0 if ok else 1
            if ok:
                out.append((t1 - t0, traced))
            next_body[slot] += 1
            sent[slot] += 1

    window: list[tuple[float, bool]] = []
    window_seconds = 0.0
    window_start = time.perf_counter() + warmup
    window_end = window_start + seconds
    try:
        while time.perf_counter() < window_end:
            measuring = time.perf_counter() >= window_start
            speed, cpu = times.speed(), cpu_seconds(server.process.pid)
            started = time.perf_counter()
            burst_end = min(started + BURST_SECONDS, window_end if measuring else window_start)
            outs: list[list[tuple[float, bool]]] = [[] for _ in range(connections)]
            threads = [threading.Thread(target=client, args=(slot, burst_end, outs[slot])) for slot in range(connections)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            cpu = cpu_seconds(server.process.pid) - cpu
            speed = (speed + times.speed()) / 2
            if measuring:
                burst = [item for out in outs for item in out]
                window += burst
                window_seconds += wall
                times.add([lat for lat, traced in burst if not traced], speed, cpu, busy=sum(lat for lat, _ in burst))
    finally:
        for conn in conns:
            conn.close()
    checks.tally(sum(o[0] for o in outcomes), sum(o[1] for o in outcomes), mismatches)
    return window, window_seconds


def expected_body(estimates: list[float]) -> bytes:
    """The exact reply ``repro serve`` sends for ``estimates``."""
    return json.dumps({"graph": GRAPH_NAME, "count": len(estimates), "estimates": estimates}).encode("utf-8")


def check_bodies(checks: Checks, server: Server, bodies, want: list[list[float]], label: str) -> None:
    """Served estimates for ``bodies`` equal ``want``, element by element."""
    for (_, body), estimates in zip(bodies, want):
        try:
            status, data = server.request("POST", "/v1/estimate", json.loads(body))
            ok = status == 200 and json.loads(data)["estimates"] == estimates
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            ok = False
        checks.record(ok, f"{label}: served estimates differ from the in-process session")


def replay(rec: SpanRecorder, edge_list: Path, config: EngineConfig, backend, work: Path, pool, expected, checks: Checks):
    """Replay the request bodies in-process through the server's own layers.

    ``json.loads`` → ``EstimateScheduler.submit_many(...).result()`` on a
    ``SessionRegistry`` built like the server's → ``json.dumps``, each under
    its own span, so the server-side split needs no tracing in the server.
    """
    registry = SessionRegistry(cache_dir=work / "replay-cache", backend=backend, default_config=config)
    registry.register(GRAPH_NAME, path=edge_list)
    registry.get(GRAPH_NAME)
    scheduler = EstimateScheduler(registry)
    try:
        for n, (_, body) in enumerate(pool):
            with rec.span("replay.request", op_id=f"replay-{n}"):
                with rec.span("json.loads"):
                    document = json.loads(body)
                with rec.span("scheduler.submit_many"):
                    estimates = scheduler.submit_many(document["graph"], document["paths"]).result(timeout=60)
                with rec.span("json.dumps"):
                    out = json.dumps({"graph": GRAPH_NAME, "count": len(estimates), "estimates": estimates}).encode("utf-8")
            checks.record(out == expected[n], f"replay body {n} differs from the in-process estimate")
    finally:
        scheduler.close()
    return {
        "serving.http.json_decode_ms": rec.mean_seconds("json.loads") * 1e3,
        "serving.http.json_encode_ms": rec.mean_seconds("json.dumps") * 1e3,
        "serving.scheduler.replay_ms": rec.mean_seconds("scheduler.submit_many") * 1e3,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path, rec: SpanRecorder) -> dict:
    """Run one serving workload; return metrics, layer table rows and info."""
    spec = WORKLOADS[name]
    checks = Checks()
    _, server_cpu = split_cpus()
    config = EngineConfig(max_length=spec["max_length"], storage=spec["storage"])
    backend = spec["backend"]

    # Inputs: the graph's edge list, the seeded request pool and deltas.
    generate_times = []
    for _ in range(3):
        started = time.perf_counter()
        graph = inputs.make_graph(spec["graph"])
        generate_times.append(time.perf_counter() - started)
    edge_list = work / "graph.tsv"
    write_edge_list(graph, edge_list)
    reference = EstimationSession.build(read_edge_list(edge_list), config, backend=backend)
    pool = inputs.request_pool(
        reference.catalog, GRAPH_NAME, spec["pool"], spec["paths_per_request"], seeded(seed, name + ":requests")
    )
    pool_estimates = [reference.estimate_batch(paths).tolist() for paths, _ in pool]
    expected = [expected_body(estimates) for estimates in pool_estimates]
    deltas, mirror = inputs.delta_sequence(read_edge_list(edge_list), spec["deltas"], seeded(seed, name + ":deltas"))
    oracle_paths = inputs.sample_paths(reference.catalog, ORACLE_PATHS, seeded(seed, name + ":oracle"))
    input_digest = inputs.digest(edge_list.read_bytes(), [body for _, body in pool], inputs.delta_documents(deltas))
    check_oracle(checks, name, read_edge_list(edge_list), reference, oracle_paths)
    truth = [inputs.true_selectivities(reference.catalog, paths) for paths, _ in pool]
    error = mean_error_rate(
        (estimate, float(true)) for estimates, trues in zip(pool_estimates, truth) for estimate, true in zip(estimates, trues)
    )

    updated_cold = EstimationSession.build(mirror, config, backend=backend)
    recheck = pool[: spec["recheck"]]
    recheck_updated = [updated_cold.estimate_batch(paths).tolist() for paths, _ in recheck]

    # Each round is one fresh server: a cold launch, a slice of the timed
    # window, warm starts, then the updates.  Spreading every kind of
    # measurement over the whole run keeps one slow stretch of the host
    # from landing on a single metric.
    setup, cold, warm, updates, latency = (ScaledTimes(server_cpu) for _ in range(5))
    launch_builds, artifact, rss, window, window_seconds = [], [], [], [], 0.0
    counters: dict[str, float] = {}
    for round_no in range(spec["rounds"]):
        server = Server(root, work, edge_list, spec, round_no, server_cpu)
        try:
            speed, own_cpu = setup.speed(), cpu_seconds()
            server.start()
            # The server's CPU seconds since launch, plus ours while waiting.
            launch_cpu = cpu_seconds(server.process.pid) - own_cpu
            setup.add([server.setup_s], (speed + setup.speed()) / 2, launch_cpu)
            _, stats = server.request("GET", "/v1/stats")
            registry = json.loads(stats)["registry"]
            checks.record(registry["builds"] == 1, "the warm launch did not build exactly once")
            launch_builds.append(registry["build_seconds_total"])

            before = server.metrics()
            burst_window, burst_seconds = closed_loop(
                server, pool, expected,
                connections=spec["connections"], warmup=WARMUP_SECONDS, seconds=seconds / spec["rounds"],
                checks=checks, rec=rec, alternate_trace=trace, times=latency,
            )
            window += burst_window
            window_seconds += burst_seconds
            for series, value in server.metrics().items():
                counters[series] = counters.get(series, 0.0) + value - before.get(series, 0.0)
            rss.append(peak_rss_mb(server.process.pid))

            for _ in range(WARM_STARTS):
                status, _ = server.request("POST", "/v1/evict", {"graph": GRAPH_NAME})
                checks.record(status == 200, "evict failed")
                with warm.measure(server.process.pid):
                    status, data = server.request("POST", "/v1/warm", {"graph": GRAPH_NAME})
                ok = status == 200 and json.loads(data)["stats"]["catalog_from_cache"] is True
                checks.record(ok, "warm start did not load the catalog from the cache")
            check_bodies(checks, server, recheck, pool_estimates, "after warm start")

            # A cold build inside the running server: the same evict + warm,
            # with the artifact cache emptied first.
            for _ in range(spec["cold_rebuilds"]):
                status, _ = server.request("POST", "/v1/evict", {"graph": GRAPH_NAME})
                checks.record(status == 200, "evict failed")
                for artifact_file in server.cache.iterdir():
                    artifact_file.unlink()
                with cold.measure(server.process.pid):
                    status, data = server.request("POST", "/v1/warm", {"graph": GRAPH_NAME})
                ok = status == 200 and json.loads(data)["stats"]["catalog_from_cache"] is False
                checks.record(ok, "cold rebuild did not rebuild the catalog")
                artifact.append(server.cache_bytes())
            check_bodies(checks, server, recheck, pool_estimates, "after cold rebuild")

            for delta in deltas:
                with updates.measure(server.process.pid):
                    status, _ = server.request("POST", "/v1/update", {"graph": GRAPH_NAME, **delta.to_dict()})
                checks.record(status == 200, "update failed")
            check_bodies(checks, server, recheck, recheck_updated, "after updates")
            code = server.stop()
            checks.record(code == 0, f"repro serve exited with {code} after SIGTERM")
        finally:
            server.stop()
    checks.record(bool(window), "no request completed inside the timed window")

    # In a traced run every other request ran under spans; the latency
    # figures come from the others, throughput from all of them.
    latencies = sorted(latency.raw())
    count = len(latencies)
    throughput = len(window) / window_seconds
    metrics = {
        "throughput_rps": spec["connections"] / latency.mean(),
        "paths_per_s": spec["connections"] * spec["paths_per_request"] / latency.mean(),
        "ok_share": 1.0 - checks.failed / checks.attempted,
        "setup_s": setup.mean(),
        "server_rss_mb": statistics.median(rss),
        "cold_build_s": cold.mean(),
        "warm_start_s": warm.mean(),
        "update_s": updates.mean(),
        "artifact_bytes": float(statistics.median(artifact)),
        "mean_error_rate": error,
    }
    raw = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "throughput_rps": throughput,
        "paths_per_s": throughput * spec["paths_per_request"],
        "setup_s": statistics.median(setup.raw()),
        "cold_build_s": statistics.median(cold.raw()),
        "warm_start_s": statistics.median(warm.raw()),
        "update_s": statistics.median(updates.raw()),
    }
    info = {
        "serve_flags": server.flags,
        "inputs_digest": input_digest,
        "graph": inputs.GRAPHS[spec["graph"]][1],
        "domain": reference.domain_size,
        "catalog_nnz": reference.catalog.nnz,
        "samples": {
            "latency": count,
            "launches": len(setup.samples),
            "cold_rebuilds": len(cold.samples),
            "warm_starts": len(warm.samples),
            "updates": len(updates.samples),
        },
        "scaling": {kind: times.summary() for kind, times in
                    [("latency", latency), ("setup", setup), ("cold", cold), ("warm", warm), ("update", updates)]},
        "paths_per_request": spec["paths_per_request"],
        "load": f"{spec['connections']} keep-alive connection(s), {spec['paths_per_request']} paths/request, closed loop",
    }
    layers: dict[str, float] = {}
    if trace:
        layers = serving_layers(rec, window, counters, launch_builds)
        layers["graph.generate_s"] = statistics.median(generate_times)
        layers.update(replay(rec, edge_list, config, backend, work, pool, expected, checks))
        batches = [paths for paths, _ in pool]
        layers.update(estimate_probes(rec, reference, batches))
        probe = build_probes(rec, read_edge_list(edge_list), config, backend=backend, work_dir=work)
        layers.update(probe)
        layers.update(session_stage_seconds(reference))
        # The same deltas, applied in-process, split the update cost and
        # check the patched catalog against a cold build.
        chain, unaccounted, delta_layers = reference, [], []
        for delta in deltas:
            old_catalog = chain.catalog
            chain, _, missing = timed_update(chain, delta, backend=backend)
            unaccounted.append(missing)
            delta_layers.append(delta_probe(rec, old_catalog, chain.graph, delta, backend=backend))
        check_same_session(checks, "after updates", chain, updated_cold, oracle_paths)
        layers["engine.session.update_unaccounted_s"] = statistics.mean(unaccounted)
        for key in ("paths.delta_s", "paths.delta_subtree_fraction"):
            layers[key] = statistics.mean(d[key] for d in delta_layers)
        metrics["ok_share"] = 1.0 - checks.failed / checks.attempted
    return {"metrics": metrics, "raw": raw, "layers": layers, "checks": checks, "info": info}


def serving_layers(rec, window, counters: dict[str, float], launch_builds) -> dict[str, float]:
    """Layer figures for the HTTP, scheduler and registry layers.

    ``counters`` holds how much each ``/v1/metrics`` series grew during the
    timed windows, summed over the rounds.
    """
    def grew(base: str, labels: str = "") -> float:
        if labels:
            return counters.get(f"{base}{{{labels}}}", 0.0)
        return sum(v for k, v in counters.items() if k == base or k.startswith(base + "{"))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    traced = [latency for latency, was_traced in window if was_traced]
    untraced = [latency for latency, was_traced in window if not was_traced]
    route = 'route="/estimate"'
    handler_ms = ratio(grew("repro_http_request_seconds_sum", route), grew("repro_http_request_seconds_count", route)) * 1e3
    mean_ms = statistics.mean(traced + untraced) * 1e3
    batches = grew("repro_scheduler_batch_seconds_count")
    return {
        "serving.http.client_send_ms": rec.mean_seconds("http.request") * 1e3,
        "serving.http.client_wait_ms": rec.mean_seconds("http.getresponse") * 1e3,
        "serving.http.client_read_ms": rec.mean_seconds("http.read") * 1e3,
        "serving.http.client_mean_ms": mean_ms,
        "serving.http.handler_ms": handler_ms,
        "serving.http.transport_ms": mean_ms - handler_ms,
        "serving.scheduler.wait_ms": ratio(grew("repro_scheduler_wait_seconds_sum"), grew("repro_scheduler_wait_seconds_count")) * 1e3,
        "serving.scheduler.batch_ms": ratio(grew("repro_scheduler_batch_seconds_sum"), batches) * 1e3,
        "serving.scheduler.batch_paths": ratio(grew("repro_scheduler_batch_paths_sum"), batches),
        "serving.scheduler.coalesced_requests": ratio(grew("repro_scheduler_batch_requests_sum"), batches),
        "serving.scheduler.rejected": grew("repro_scheduler_rejected_total"),
        "serving.scheduler.errors": grew("repro_scheduler_errors_total"),
        "serving.registry.builds": grew("repro_registry_build_seconds_count"),
        "serving.registry.build_s": statistics.median(launch_builds),
        "obs.trace_overhead": ratio(statistics.median(traced), statistics.median(untraced)),
        "obs.traced_p50_ms": statistics.median(traced) * 1e3,
        "obs.untraced_p50_ms": statistics.median(untraced) * 1e3,
    }
