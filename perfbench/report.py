"""Human-readable output: run header, end-to-end metrics, per-layer table.

Everything here goes to standard output *before* the final JSON line.
"""

from __future__ import annotations

import json

#: Per-layer rows: metric -> (end-to-end metric it should move, on which
#: workload, and which end-to-end figure its share is taken of).  ``share``
#: names a key of :func:`_bases`; per-path microsecond rows are scaled to
#: one request first.
LAYER_ROWS = [
    ("serving.http.client_send_ms", "throughput_rps (bulk-sparse: large body)", "request"),
    ("serving.http.client_wait_ms", "throughput_rps (bulk-sparse: server work)", "request"),
    ("serving.http.client_read_ms", "throughput_rps (point-dense: body held back)", "request"),
    ("serving.http.handler_ms", "throughput_rps (bulk-sparse)", "request"),
    ("serving.http.transport_ms", "throughput_rps (point-dense); flat on bulk-sparse", "request"),
    ("serving.http.json_decode_ms", "paths_per_s (bulk-sparse)", "request"),
    ("serving.http.json_encode_ms", "paths_per_s (bulk-sparse)", "request"),
    ("serving.scheduler.replay_ms", "throughput_rps (point-dense)", "request"),
    ("serving.scheduler.wait_ms", "throughput_rps (point-dense)", "request"),
    ("serving.scheduler.batch_ms", "throughput_rps (bulk-sparse)", "request"),
    ("serving.scheduler.batch_paths", "throughput_rps (point-dense)", None),
    ("serving.scheduler.coalesced_requests", "throughput_rps (point-dense)", None),
    ("serving.scheduler.rejected", "ok_share (all)", None),
    ("serving.scheduler.errors", "ok_share (all)", None),
    ("serving.registry.builds", "setup_s (serving); must be 0 in the timed phase", None),
    ("serving.registry.build_s", "setup_s (serving)", "setup"),
    ("engine.session.estimate_batch_us", "paths_per_s (bulk-sparse); flat on point-dense", "request_path"),
    ("paths.parse_us", "paths_per_s (bulk-sparse)", "request_path"),
    ("ordering.rank_us", "paths_per_s (bulk-sparse)", "request_path"),
    ("histogram.lookup_us", "nothing (predicted flat)", "request_path"),
    ("engine.session.fingerprint_s", "cold_build_s, warm_start_s", "cold"),
    ("engine.session.catalog_s", "cold_build_s", "cold"),
    ("engine.session.positions_s", "cold_build_s", "cold"),
    ("engine.session.histogram_s", "cold_build_s", "cold"),
    ("engine.session.update_unaccounted_s", "update_s", "update"),
    ("paths.catalog_s", "cold_build_s", "cold"),
    ("paths.catalog_nnz", "cold_build_s", None),
    ("paths.delta_s", "update_s", "update"),
    ("paths.delta_subtree_fraction", "update_s", None),
    ("ordering.make_s", "cold_build_s", "cold"),
    ("ordering.domain_rank_s", "cold_build_s", "cold"),
    ("histogram.build_s", "cold_build_s (dominates dbpedia)", "cold"),
    ("engine.cache.store_s", "cold_build_s", "cold"),
    ("engine.cache.load_s", "warm_start_s", "warm"),
    ("engine.cache.bytes", "artifact_bytes", None),
    ("graph.generate_s", "setup_s (build-update)", "setup"),
    ("graph.fingerprint_s", "warm_start_s", "warm"),
    ("graph.matrices_s", "cold_build_s", "cold"),
    ("obs.trace_overhead", "none (traced p50 / untraced p50)", None),
    ("obs.traced_p50_ms", "none (numerator of trace_overhead)", None),
    ("obs.untraced_p50_ms", "none (denominator of trace_overhead)", None),
]


def print_header(args, result: dict) -> None:
    """Workload, seed, exact inputs digest and sample counts."""
    print(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in result["info"].items():
        print(f"  {key}: {json.dumps(value) if not isinstance(value, str) else value}")


def print_end_to_end(spec: dict, result: dict) -> None:
    """Every end-to-end metric by name, with its unit (plus failed_share)."""
    metrics = result["metrics"]
    checks = result["checks"]
    print(f"-- end to end ({result['info']['samples']})")
    for metric in spec["end_to_end"]:
        value = metrics.get(metric["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:<18} {shown:>14} {metric['unit']}")
    share = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"  {'failed_share':<18} {share:>14.6g} ratio ({checks.failed} of {checks.attempted} operations)")
    print("-- wall clock as measured, medians (not scaled, not in the JSON)")
    for name, value in result["raw"].items():
        print(f"  {name:<18} {value:>14.6g}")


def _bases(result: dict) -> dict:
    # Layer rows are wall-clock times, so shares are of wall-clock medians.
    metrics, layers = result["raw"], result["layers"]
    per_request = layers.get("serving.http.client_mean_ms")
    paths = result["info"].get("paths_per_request")
    return {
        "request": per_request,
        "request_path": (per_request * 1e3 / paths) if per_request and paths else None,
        "setup": metrics["setup_s"],
        "cold": metrics["cold_build_s"],
        "warm": metrics["warm_start_s"],
        "update": metrics["update_s"],
    }


def print_layer_table(workload: str, result: dict, rec) -> None:
    """One row per layer metric: value, what it should move, share of e2e."""
    layers = result["layers"]
    bases = _bases(result)
    print(f"-- per layer ({workload}); share = layer value / the end-to-end figure it belongs to")
    print(f"  {'layer metric':<38} {'value':>12}  {'share':>7}  moves")
    for name, moves, base in LAYER_ROWS:
        if name not in layers:
            continue
        value = layers[name]
        denominator = bases.get(base) if base else None
        share = f"{value / denominator:7.1%}" if denominator else "      -"
        print(f"  {name:<38} {value:>12.6g}  {share}  {moves}")
    sums = []
    if bases["request"]:
        client = sum(layers[f"serving.http.client_{p}_ms"] for p in ("send", "wait", "read"))
        sums.append(("client send + wait + read", client, bases["request"], "ms, mean request"))
        replay = sum(layers[k] for k in ("serving.http.json_decode_ms", "serving.scheduler.replay_ms", "serving.http.json_encode_ms"))
        sums.append(("in-process decode + scheduler + encode", replay, layers["serving.http.handler_ms"], "ms, server handler"))
    stages = sum(layers[f"engine.session.{s}_s"] for s in ("fingerprint", "catalog", "positions", "histogram"))
    sums.append(("session stages (in-process cold build)", stages, bases["cold"], "s, cold_build_s"))
    print("  layer sums vs the end-to-end figure:")
    for label, total, whole, unit in sums:
        print(f"    {label:<40} {total:10.6g} of {whole:10.6g} {unit} ({total / whole:.1%})")
    self_times = rec.self_times()
    if self_times:
        print("  span self time (count, total s, self s):")
        for name, (count, total, own) in sorted(self_times.items(), key=lambda kv: -kv[1][2])[:20]:
            print(f"    {name:<44} {count:6d} {total:10.4f} {own:10.4f}")
