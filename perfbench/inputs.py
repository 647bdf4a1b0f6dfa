"""Seeded inputs: graphs, request pools, edge deltas and their digests.

Graphs use the library generators at their default generator seeds, so the
graph of a workload is the same in every run and the build, set-up and
accuracy figures do not swing with graph shape.  ``--seed`` drives
everything the graph does not fix: which paths each request asks for,
which edges each delta adds and removes, and the accuracy and oracle
samples.  The same seed therefore always yields byte-identical inputs,
and :func:`digest` makes that checkable from the output.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.datasets.registry import load_dataset
from repro.graph.delta import GraphDelta
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import erdos_renyi_graph, ring_labeled_graph, zipf_labeled_graph
from repro.paths.catalog import SelectivityCatalog
from repro.paths.index import domain_indices_to_paths, paths_to_domain_indices

#: The graphs the workloads use, by name: (generator call, description).
GRAPHS = {
    "moreno": (lambda: load_dataset("moreno-health", scale=0.05), "moreno-health stand-in, scale 0.05"),
    "bulk": (lambda: zipf_labeled_graph(2000, 2000, 20), "zipf_labeled_graph(2000, 2000, 20)"),
    "er": (lambda: erdos_renyi_graph(1600, 20000, 6), "erdos_renyi_graph(1600, 20000, 6)"),
    "dbpedia": (lambda: load_dataset("dbpedia", scale=0.02), "dbpedia stand-in, scale 0.02"),
    "ring": (lambda: ring_labeled_graph(40, 200, 1500), "ring_labeled_graph(40, 200, 1500)"),
}

#: Edges per delta (half removals, half additions).
DELTA_EDGES = 50


def make_graph(name: str) -> LabeledDiGraph:
    """Generate the named graph."""
    return GRAPHS[name][0]()


def digest(*parts: object) -> str:
    """Short SHA-256 over JSON-encoded (or raw bytes) parts."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            hasher.update(part)
        else:
            hasher.update(json.dumps(part, sort_keys=True, default=str).encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()[:16]


def sample_paths(
    catalog: SelectivityCatalog, count: int, rng: random.Random
) -> list[str]:
    """``count`` paths: half nonzero catalog paths, half uniform domain draws.

    Uniform draws pick a length in ``1..k`` and then each label uniformly,
    so short paths are as common as long ones.  The two halves interleave.
    """
    labels = catalog.labels
    nz_indices, _ = catalog.nonzero_arrays()
    picks = [int(nz_indices[rng.randrange(len(nz_indices))]) for _ in range((count + 1) // 2)]
    nonzero = [
        str(path)
        for path in domain_indices_to_paths(np.array(picks, dtype=np.int64), labels, catalog.max_length)
    ]
    out: list[str] = []
    for i in range(count):
        if i % 2 == 0:
            out.append(nonzero[i // 2])
        else:
            length = rng.randint(1, catalog.max_length)
            out.append("/".join(rng.choice(labels) for _ in range(length)))
    return out


def request_pool(
    catalog: SelectivityCatalog,
    graph_name: str,
    bodies: int,
    paths_per_body: int,
    rng: random.Random,
) -> list[tuple[list[str], bytes]]:
    """``bodies`` seeded ``POST /v1/estimate`` bodies as (paths, encoded body)."""
    pool = []
    for _ in range(bodies):
        paths = sample_paths(catalog, paths_per_body, rng)
        body = json.dumps({"graph": graph_name, "paths": paths}).encode("utf-8")
        pool.append((paths, body))
    return pool


def make_delta(
    graph: LabeledDiGraph,
    rng: random.Random,
    *,
    ring_layers: Optional[tuple[int, int]] = None,
) -> GraphDelta:
    """One seeded delta of :data:`DELTA_EDGES` edges against ``graph``.

    Removals are existing edges, never the last edge of a label (that would
    shrink the alphabet and force a full rebuild).  Additions connect
    existing vertices with an existing label; on a ring graph
    (``ring_layers = (label_count, layer_size)``) they follow the ring's
    schema, label ``i`` linking layer ``i`` to layer ``i + 1``.
    """
    labels = sorted(graph.labels())
    # The graph keeps targets in sets, whose order varies between processes
    # with string vertices; sort so a seed always picks the same edges.
    per_label = {label: sorted(graph.edges_with_label(label), key=str) for label in labels}
    removable = [label for label in labels if len(per_label[label]) > 1]
    removals: set = set()
    left = {label: len(per_label[label]) for label in labels}
    while len(removals) < DELTA_EDGES // 2 and removable:
        label = rng.choice(removable)
        edge = rng.choice(per_label[label])
        if edge in removals or left[label] <= 1:
            continue
        removals.add(edge)
        left[label] -= 1
    vertices = sorted(graph.vertices(), key=str)
    additions: set = set()
    while len(additions) < DELTA_EDGES // 2:
        label = rng.choice(labels)
        if ring_layers is not None:
            label_count, layer_size = ring_layers
            # Ring labels are "1"..str(label_count); label i leaves layer i - 1.
            layer = int(label) - 1
            source = layer * layer_size + rng.randrange(layer_size)
            target = ((layer + 1) % label_count) * layer_size + rng.randrange(layer_size)
        else:
            source = rng.choice(vertices)
            target = rng.choice(vertices)
        if not graph.has_edge(source, label, target):
            additions.add((source, label, target))
    return GraphDelta(
        additions=sorted(additions, key=str),
        removals=sorted(((e.source, e.label, e.target) for e in removals), key=str),
    )


def delta_sequence(
    graph: LabeledDiGraph,
    count: int,
    rng: random.Random,
    *,
    ring_layers: Optional[tuple[int, int]] = None,
) -> tuple[list[GraphDelta], LabeledDiGraph]:
    """``count`` deltas applied in order to a copy of ``graph``.

    Returns the deltas and the mirror graph after all of them, which is the
    cold-build reference for every post-update check.
    """
    mirror = graph.copy()
    deltas = []
    for _ in range(count):
        delta = make_delta(mirror, rng, ring_layers=ring_layers)
        delta.apply(mirror)
        deltas.append(delta)
    return deltas, mirror


def delta_documents(deltas: Iterable[GraphDelta]) -> list[dict]:
    """JSON documents of ``deltas`` (for digests and ``POST /v1/update``)."""
    return [delta.to_dict() for delta in deltas]


def true_selectivities(catalog: SelectivityCatalog, paths: Sequence[str]) -> np.ndarray:
    """Exact ``f(ℓ)`` of ``paths`` from ``catalog``."""
    indices = paths_to_domain_indices(paths, catalog.labels, max_length=catalog.max_length)
    return np.asarray(catalog.selectivities_at(indices), dtype=float)
