"""The ``build-update`` workload: the engine's write side, in-process.

A run is a few rounds.  Each round builds a three-graph zoo cold with
``EstimationSession.build`` on a fresh empty ``ArtifactCache``.  Each graph
is dominated by a different layer: the Erdős–Rényi graph by the catalog,
the dbpedia stand-in by the dense histogram, and the bulk graph by the
sparse histogram path.  The round then applies seeded 50-edge deltas with
``EstimationSession.update`` to a ring graph until its share of the run's
time is used up, with one warm rebuild of the zoo from the round's cache
after each delta.

One closed-loop operation here is one delta: the writer applies it and then
asks the refreshed session for the seeded sample's estimates, so
``latency_*``, ``throughput_rps`` and ``paths_per_s`` describe that loop."""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from perfbench import inputs
from perfbench.hostspeed import ScaledTimes, cpu_seconds, host_speed, split_cpus
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
    sum_into,
    timed_update,
)
from perfbench.spans import SpanRecorder
from repro.engine import EngineConfig, EstimationSession
from repro.engine.cache import ArtifactCache
from repro.estimation.errors import mean_error_rate

#: The zoo: graph name -> (engine config, catalog backend).  Defaults apart
#: from ``k``, except that the bulk graph is built with the matrix kernel,
#: as the bulk-sparse server builds it: the serial default takes ~10 s
#: there, too long to repeat within a run.
ZOO = {
    "er": (EngineConfig(max_length=4), None),
    "dbpedia": (EngineConfig(max_length=3), None),
    "bulk": (EngineConfig(max_length=6), "matrix"),
}
RING_CONFIG = EngineConfig(max_length=3)
#: (label_count, layer_size) of the ring graph, for schema-following deltas.
RING_LAYERS = (40, 200)

#: Graph generations per run; ``setup_s`` sums each graph's mean.
GENERATIONS = 5
#: Rounds per run: each builds the zoo cold on its own empty cache, then
#: applies deltas until its share of ``--seconds`` is used up.
ROUNDS = 3
#: Deltas applied per round at least, and per run at most.
MIN_DELTAS, MAX_DELTAS = 2, 60
#: Paths per graph in the accuracy / estimate sample and the oracle sample.
SAMPLE_PATHS, ORACLE_PATHS = 2048, 24


def _warm_zoo(rec: SpanRecorder, graphs: dict, cache: ArtifactCache, checks: Checks, repeat: int, times: dict) -> dict:
    """Rebuild every zoo graph from the warm cache, timing each into ``times``."""
    sessions = {}
    for graph, (config, backend) in ZOO.items():
        with rec.span("engine.EstimationSession.build", op_id=f"warm{repeat}-{graph}"), times[graph].measure():
            sessions[graph] = EstimationSession.build(graphs[graph], config, cache_dir=cache, backend=backend)
        stats = sessions[graph].stats
        checks.record(
            stats.catalog_from_cache and stats.histogram_from_cache,
            f"{graph}: warm rebuild did not load from the cache",
        )
    return sessions


def _cold_zoo(rec: SpanRecorder, graphs: dict, cache: ArtifactCache, round_no: int, times: dict) -> dict:
    """Build every zoo graph on an empty cache, timing each into ``times``."""
    sessions = {}
    for graph, (config, backend) in ZOO.items():
        with rec.span("engine.EstimationSession.build", op_id=f"cold{round_no}-{graph}"), times[graph].measure():
            sessions[graph] = EstimationSession.build(graphs[graph], config, cache_dir=cache, backend=backend)
    return sessions


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path, rec: SpanRecorder) -> dict:
    """Run the build-update workload; return metrics, layer rows and info."""
    checks = Checks()
    names = [*ZOO, "ring"]
    # The work and its probes run on one CPU (the second one stays idle).
    split_cpus()

    generate = {graph: ScaledTimes() for graph in names}
    for _ in range(GENERATIONS):
        graphs = {}
        for graph in names:
            with generate[graph].measure():
                graphs[graph] = inputs.make_graph(graph)

    ring = EstimationSession.build(graphs["ring"], RING_CONFIG, cache_dir=ArtifactCache(work / "ring-cache"))
    mirror = graphs["ring"].copy()
    delta_rng = seeded(seed, f"{name}:deltas")
    samples, errors, session = {}, [], ring
    cold_times, warm_times = {graph: ScaledTimes() for graph in ZOO}, {graph: ScaledTimes() for graph in ZOO}
    ops, updates, traced_ops = ScaledTimes(), ScaledTimes(), []
    artifact_bytes, unaccounted, delta_layers, deltas = [], [], [], []
    applied_total = 0
    measure_start = time.perf_counter()
    for round_no in range(ROUNDS):
        cache = ArtifactCache(work / f"cache-{round_no}")
        built = _cold_zoo(rec, graphs, cache, round_no, cold_times)
        artifact_bytes.append(cache.total_bytes())
        if round_no == 0:
            cold = built
            for graph, built_session in [*cold.items(), ("ring", ring)]:
                sample = inputs.sample_paths(built_session.catalog, SAMPLE_PATHS, seeded(seed, f"{name}:{graph}:sample"))
                samples[graph] = sample
                truth = inputs.true_selectivities(built_session.catalog, sample).tolist()
                errors.append(mean_error_rate(zip(built_session.estimate_batch(sample).tolist(), truth)))

        round_deadline = measure_start + seconds * (round_no + 1) / ROUNDS
        applied = 0
        while applied_total < MAX_DELTAS and (applied < MIN_DELTAS or time.perf_counter() < round_deadline):
            delta = inputs.make_delta(mirror, delta_rng, ring_layers=RING_LAYERS)
            delta.apply(mirror)
            deltas.append(delta)
            old_catalog = session.catalog
            traced = trace and applied_total % 2 == 1
            speed, cpu = host_speed(), cpu_seconds()
            started = time.perf_counter()
            if traced:
                with rec.span("engine.EstimationSession.update", op_id=f"update-{applied_total}"):
                    session, wall, missing = timed_update(session, delta)
                    with rec.span("engine.EstimationSession.estimate_batch"):
                        session.estimate_batch(samples["ring"])
            else:
                session, wall, missing = timed_update(session, delta)
                session.estimate_batch(samples["ring"])
            op_wall = time.perf_counter() - started
            cpu = cpu_seconds() - cpu
            speed = (speed + host_speed()) / 2
            if traced:
                traced_ops.append(op_wall)
            else:
                ops.add([op_wall], speed, cpu)
            updates.add([wall], speed, cpu * wall / op_wall)
            unaccounted.append(missing)
            applied += 1
            applied_total += 1
            if applied_total == 1:
                first_cold = EstimationSession.build(mirror.copy(), RING_CONFIG)
                check_same_session(checks, "after the first delta", session, first_cold, samples["ring"])
            if trace:
                delta_layers.append(delta_probe(rec, old_catalog, session.graph, delta, backend=None))
            # One warm rebuild of the zoo per delta spreads the warm samples
            # over the round instead of one short stretch of it.
            warm = _warm_zoo(rec, graphs, cache, checks, applied_total, warm_times)
        for graph in ZOO:
            check_same_session(checks, f"{graph} warm start, round {round_no}", warm[graph], built[graph], samples[graph])
    measured = time.perf_counter() - measure_start

    check_same_session(checks, "after the last delta", session, EstimationSession.build(mirror.copy(), RING_CONFIG), samples["ring"])
    for graph, built in [*cold.items(), ("ring", ring)]:
        oracle = inputs.sample_paths(built.catalog, ORACLE_PATHS, seeded(seed, f"{name}:{graph}:oracle"))
        check_oracle(checks, graph, inputs.make_graph(graph), built, oracle)

    latencies = sorted(ops.raw())
    metrics = {
        "throughput_rps": 1.0 / ops.mean(),
        "paths_per_s": len(samples["ring"]) / ops.mean(),
        "ok_share": 1.0 - checks.failed / checks.attempted,
        "setup_s": sum(generate[graph].mean() for graph in names),
        "server_rss_mb": peak_rss_mb(),
        "cold_build_s": sum(cold_times[graph].mean() for graph in ZOO),
        "warm_start_s": sum(warm_times[graph].mean() for graph in ZOO),
        "update_s": updates.mean(),
        "artifact_bytes": float(statistics.median(artifact_bytes)),
        "mean_error_rate": statistics.mean(errors),
    }
    raw = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "throughput_rps": len(latencies) / sum(latencies),
        "paths_per_s": len(latencies) * len(samples["ring"]) / sum(latencies),
        "setup_s": sum(statistics.median(generate[graph].raw()) for graph in names),
        "cold_build_s": sum(statistics.median(cold_times[graph].raw()) for graph in ZOO),
        "warm_start_s": sum(statistics.median(warm_times[graph].raw()) for graph in ZOO),
        "update_s": statistics.median(updates.raw()),
    }
    info = {
        # How many deltas run depends on timing, so only the first ones
        # (always applied) enter the digest.
        "inputs_digest": inputs.digest(
            [built.stats.graph_digest for built in [*cold.values(), ring]],
            samples,
            inputs.delta_documents(deltas[:MIN_DELTAS]),
        ),
        "graphs": {graph: inputs.GRAPHS[graph][1] for graph in names},
        "samples": {
            "latency": len(latencies),
            "deltas": len(updates.samples),
            "cold_builds": len(cold_times["er"].samples),
            "warm_starts": len(warm_times["er"].samples),
            "generations": GENERATIONS,
        },
        "scaling": {"ops": ops.summary(), "cold_er": cold_times["er"].summary(), "updates": updates.summary()},
        "measured_s": measured,
        "load": "one in-process writer, closed loop: update then estimate the sample",
    }
    layers: dict[str, float] = {}
    if trace:
        layers["graph.generate_s"] = sum(statistics.median(generate[g].raw()) for g in ZOO)
        for graph, (config, backend) in ZOO.items():
            sum_into(layers, session_stage_seconds(cold[graph]))
            sum_into(layers, build_probes(rec, graphs[graph], config, backend=backend, work_dir=work))
        probes = [estimate_probes(rec, cold[g], [samples[g][i : i + 256] for i in range(0, SAMPLE_PATHS, 256)]) for g in ZOO]
        layers.update({key: statistics.mean(p[key] for p in probes) for key in probes[0]})
        layers["engine.session.update_unaccounted_s"] = statistics.mean(unaccounted)
        for key in ("paths.delta_s", "paths.delta_subtree_fraction"):
            layers[key] = statistics.mean(d[key] for d in delta_layers)
        layers["obs.trace_overhead"] = statistics.median(traced_ops) / statistics.median(latencies)
        layers["obs.traced_p50_ms"] = statistics.median(traced_ops) * 1e3
        layers["obs.untraced_p50_ms"] = statistics.median(latencies) * 1e3
    return {"metrics": metrics, "raw": raw, "layers": layers, "checks": checks, "info": info}
