"""Correctness checks and per-layer probes shared by every workload.

The probes call each module's public functions from outside, under the
recorder's spans, so a layer's cost is measured without touching the code
under test.  The checks compare the engine with independent references: the
BFS oracle, a cold build of the same graph, and in-process estimates.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from perfbench.spans import SpanRecorder, timed
from repro.engine import EngineConfig, EstimationSession, graph_digest
from repro.engine.cache import ArtifactCache
from repro.graph.delta import GraphDelta, affected_first_labels
from repro.graph.digraph import LabeledDiGraph
from repro.graph.matrices import LabelMatrixStore
from repro.histogram.builder import build_histogram, domain_frequencies
from repro.ordering.registry import make_ordering
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import update_selectivity_nonzeros, update_selectivity_vector
from repro.paths.evaluation import BFSPathEvaluator
from repro.paths.index import paths_to_domain_indices


class Checks:
    """Counts checked operations; every mismatch is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        """Count one operation, failed unless ``ok``."""
        self.tally(1, 0 if ok else 1, [] if ok else [what])

    def tally(self, attempted: int, failed: int, notes: Sequence[str]) -> None:
        """Count a batch of operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(notes[: max(0, 20 - len(self.failures))])


def check_oracle(
    checks: Checks,
    label: str,
    graph: LabeledDiGraph,
    session: EstimationSession,
    paths: Sequence[str],
) -> None:
    """The session's exact selectivities equal the BFS oracle on ``paths``."""
    oracle = BFSPathEvaluator(graph)
    for path in paths:
        expected = oracle.selectivity(path)
        got = session.true_selectivity(path)
        checks.record(got == expected, f"{label}: f({path}) = {got}, BFS oracle says {expected}")


def check_same_session(
    checks: Checks,
    label: str,
    session: EstimationSession,
    reference: EstimationSession,
    paths: Sequence[str],
) -> None:
    """``session`` equals ``reference`` in catalog vector and in estimates."""
    got_idx, got_val = session.catalog.nonzero_arrays()
    ref_idx, ref_val = reference.catalog.nonzero_arrays()
    same_catalog = (
        session.catalog.labels == reference.catalog.labels
        and np.array_equal(got_idx, ref_idx)
        and np.array_equal(got_val, ref_val)
    )
    checks.record(same_catalog, f"{label}: catalog differs from a cold build")
    same_estimates = np.array_equal(session.estimate_batch(paths), reference.estimate_batch(paths))
    checks.record(same_estimates, f"{label}: estimates differ from a cold build")


def build_probes(
    rec: SpanRecorder,
    graph: LabeledDiGraph,
    config: EngineConfig,
    *,
    backend: Optional[str],
    work_dir: Path,
) -> dict[str, float]:
    """Time each build layer of one graph through its public entry point."""
    out: dict[str, float] = {}
    _, out["graph.fingerprint_s"] = timed(rec, "graph.graph_digest", graph_digest, graph)
    _, out["graph.matrices_s"] = timed(
        rec, "graph.LabelMatrixStore", lambda: LabelMatrixStore(graph).as_dict()
    )
    catalog, out["paths.catalog_s"] = timed(
        rec,
        "paths.SelectivityCatalog.from_graph",
        SelectivityCatalog.from_graph,
        graph,
        config.max_length,
        backend=backend,
        storage=config.storage,
    )
    out["paths.catalog_nnz"] = float(catalog.nnz)
    ordering, out["ordering.make_s"] = timed(
        rec, "ordering.make_ordering", make_ordering, config.ordering, catalog=catalog
    )
    # Sparse sessions never rank the whole domain; they rank the nonzeros.
    if catalog.storage == "sparse":
        positions = None
        _, out["ordering.domain_rank_s"] = timed(
            rec, "ordering.rank_domain_indices", ordering.rank_domain_indices, catalog.nonzero_arrays()[0]
        )
    else:
        positions, out["ordering.domain_rank_s"] = timed(rec, "ordering.index_array", ordering.index_array)
    histogram, out["histogram.build_s"] = timed(
        rec,
        "histogram.build_histogram",
        lambda: build_histogram(
            catalog,
            ordering,
            kind=config.histogram_kind,
            bucket_count=min(config.bucket_count, ordering.size),
            frequencies=domain_frequencies(catalog, ordering, positions=positions),
        ),
    )
    with tempfile.TemporaryDirectory(dir=work_dir) as scratch:
        cache = ArtifactCache(scratch)
        key = "probe"
        store = [("catalog", lambda: cache.store_catalog(key, catalog))]
        store.append(("histogram", lambda: cache.store_histogram(key, histogram)))
        if positions is not None:
            store.append(("positions", lambda: cache.store_positions(key, positions)))
        out["engine.cache.store_s"] = 0.0
        out["engine.cache.load_s"] = 0.0
        for kind, fn in store:
            _, seconds = timed(rec, f"engine.cache.store_{kind}", fn)
            out["engine.cache.store_s"] += seconds
            loader = getattr(cache, f"load_{kind}")
            _, seconds = timed(rec, f"engine.cache.load_{kind}", loader, key)
            out["engine.cache.load_s"] += seconds
        for path in Path(scratch).iterdir():
            kind = path.name.split("-", 1)[0]
            size = float(path.stat().st_size)
            out[f"engine.cache.bytes_{kind}"] = out.get(f"engine.cache.bytes_{kind}", 0.0) + size
            out["engine.cache.bytes"] = out.get("engine.cache.bytes", 0.0) + size
    return out


def estimate_probes(
    rec: SpanRecorder, session: EstimationSession, batches: Sequence[Sequence[str]]
) -> dict[str, float]:
    """Per-path microseconds of the estimate layers over ``batches``."""
    ordering = session.ordering
    labels = sorted(ordering.labels)
    totals = {"estimate": 0.0, "parse": 0.0, "index": 0.0, "lookup": 0.0}
    count = 0
    for paths in batches:
        paths = list(paths)
        count += len(paths)
        _, seconds = timed(rec, "engine.session.estimate_batch", session.estimate_batch, paths)
        totals["estimate"] += seconds
        _, seconds = timed(
            rec,
            "paths.paths_to_domain_indices",
            paths_to_domain_indices,
            paths,
            labels,
            max_length=ordering.max_length,
        )
        totals["parse"] += seconds
        positions, seconds = timed(rec, "ordering.index_array", ordering.index_array, paths)
        totals["index"] += seconds
        _, seconds = timed(rec, "histogram.estimate_indices", session.histogram.estimate_indices, positions)
        totals["lookup"] += seconds
    per_path = 1e6 / max(count, 1)
    return {
        "engine.session.estimate_batch_us": totals["estimate"] * per_path,
        "paths.parse_us": totals["parse"] * per_path,
        "ordering.rank_us": (totals["index"] - totals["parse"]) * per_path,
        "histogram.lookup_us": totals["lookup"] * per_path,
    }


def delta_probe(
    rec: SpanRecorder,
    old_catalog: SelectivityCatalog,
    graph_after: LabeledDiGraph,
    delta: GraphDelta,
    *,
    backend: Optional[str],
) -> dict[str, float]:
    """Time the paths-layer delta kernels for one already-applied delta."""
    k = old_catalog.max_length
    affected, _ = timed(
        rec, "graph.affected_first_labels", affected_first_labels, graph_after, delta, k, labels=old_catalog.labels
    )
    if old_catalog.storage == "sparse":
        nz_indices, nz_values = old_catalog.nonzero_arrays()
        _, seconds = timed(
            rec,
            "paths.update_selectivity_nonzeros",
            update_selectivity_nonzeros,
            graph_after,
            k,
            nz_indices,
            nz_values,
            delta,
            labels=old_catalog.labels,
            backend=backend,
            affected=affected,
        )
    else:
        _, seconds = timed(
            rec,
            "paths.update_selectivity_vector",
            update_selectivity_vector,
            graph_after,
            k,
            old_catalog.frequency_vector(),
            delta,
            labels=old_catalog.labels,
            backend=backend,
            affected=affected,
        )
    return {
        "paths.delta_s": seconds,
        "paths.delta_subtree_fraction": len(affected) / len(old_catalog.labels),
    }


def session_stage_seconds(session: EstimationSession) -> dict[str, float]:
    """The public ``SessionStats`` stage timings of one build."""
    stats = session.stats
    return {
        "engine.session.fingerprint_s": float(stats.extra.get("fingerprint_seconds", 0.0)),
        "engine.session.catalog_s": stats.catalog_seconds,
        "engine.session.positions_s": stats.positions_seconds,
        "engine.session.histogram_s": stats.histogram_seconds,
    }


def timed_update(session: EstimationSession, delta: GraphDelta, **kwargs) -> tuple[EstimationSession, float, float]:
    """``session.update(delta)`` with its wall time and the part its stats miss."""
    started = time.perf_counter()
    updated = session.update(delta, **kwargs)
    wall = time.perf_counter() - started
    return updated, wall, wall - updated.stats.total_seconds


def sum_into(total: dict[str, float], part: dict[str, float]) -> None:
    """Add ``part`` into ``total`` key by key."""
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def seeded(seed: int, salt: str) -> random.Random:
    """An independent RNG stream per purpose, all derived from ``--seed``."""
    return random.Random(f"{salt}:{seed}")
