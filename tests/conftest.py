"""Shared fixtures for the test-suite.

The fixtures provide a ladder of graphs and catalogs:

* ``triangle_graph`` — a 4-vertex, hand-built graph whose path selectivities
  are easy to verify by hand;
* ``example_cardinalities`` — the paper's Section 3.4 worked-example numbers;
* ``small_graph`` / ``small_catalog`` — a deterministic 40-vertex random
  graph with 4 labels and its k=3 catalog, large enough to exercise the
  statistics but cheap enough for every test;
* ``moreno_tiny`` / ``moreno_tiny_catalog`` — a heavily scaled-down
  Moreno Health stand-in used by the experiment tests.

``oracle`` supplies exact selectivities computed without the catalog
kernel, for the builder equality tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import moreno_like
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import zipf_labeled_graph
from repro.graph.matrices import LabelMatrixStore
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import domain_size, enumerate_label_paths
from repro.paths.evaluation import BFSPathEvaluator
from repro.paths.index import domain_index_to_path


@pytest.fixture()
def triangle_graph() -> LabeledDiGraph:
    """A tiny hand-checkable graph.

    Edges::

        a -x-> b, a -x-> c, b -y-> c, c -y-> d, b -x-> d, d -z-> a

    Useful truths: f(x) = 3, f(y) = 2, f(z) = 1, f(x/y) = |{(a,c),(a,d),(b,?)}|
    computed in the tests themselves.
    """
    graph = LabeledDiGraph(name="triangle")
    graph.add_edges_from(
        [
            ("a", "x", "b"),
            ("a", "x", "c"),
            ("b", "y", "c"),
            ("c", "y", "d"),
            ("b", "x", "d"),
            ("d", "z", "a"),
        ]
    )
    return graph


@pytest.fixture()
def example_cardinalities() -> dict[str, int]:
    """The paper's worked-example label cardinalities (Section 3.4)."""
    return {"1": 20, "2": 100, "3": 80}


@pytest.fixture(scope="session")
def small_graph() -> LabeledDiGraph:
    """A deterministic 40-vertex, 4-label random graph (session-scoped)."""
    return zipf_labeled_graph(40, 160, 4, skew=1.0, seed=3, name="small")


@pytest.fixture(scope="session")
def small_catalog(small_graph: LabeledDiGraph) -> SelectivityCatalog:
    """The k=3 selectivity catalog of ``small_graph`` (session-scoped)."""
    return SelectivityCatalog.from_graph(small_graph, 3)


@pytest.fixture(scope="session")
def moreno_tiny() -> LabeledDiGraph:
    """A heavily scaled-down Moreno Health stand-in (session-scoped)."""
    return moreno_like(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def moreno_tiny_catalog(moreno_tiny: LabeledDiGraph) -> SelectivityCatalog:
    """The k=3 catalog of the tiny Moreno stand-in (session-scoped)."""
    return SelectivityCatalog.from_graph(moreno_tiny, 3)


class SelectivityOracle:
    """Exact selectivities computed outside the catalog kernel.

    :meth:`vector` walks :func:`enumerate_label_paths` and takes one
    :meth:`LabelMatrixStore.path_selectivity` chain product per path.  It
    skips the extensions of an empty path, which are empty too, so large
    sparse domains stay cheap.  :meth:`bfs_mismatches` cross-checks a
    seeded sample of a vector against :class:`BFSPathEvaluator`, which
    walks adjacency lists and shares no code with either.
    """

    def vector(self, graph, max_length, labels=None) -> np.ndarray:
        alphabet = sorted(labels) if labels is not None else graph.labels()
        store = LabelMatrixStore(graph, labels=alphabet)
        vector = np.zeros(domain_size(len(alphabet), max_length), dtype=np.int64)
        live: set[tuple[str, ...]] = set()
        for index, path in enumerate(enumerate_label_paths(alphabet, max_length)):
            if len(path) > 1 and path.labels[:-1] not in live:
                continue
            count = store.path_selectivity(path.labels)
            if count:
                vector[index] = count
                live.add(path.labels)
        return vector

    def nonzeros(self, graph, max_length, labels=None) -> tuple[np.ndarray, np.ndarray]:
        vector = self.vector(graph, max_length, labels=labels)
        indices = np.flatnonzero(vector).astype(np.int64)
        return indices, vector[indices]

    def bfs_mismatches(self, graph, vector) -> list[str]:
        """Paths of a seeded sample where ``vector`` disagrees with BFS.

        The sample mixes 24 uniform domain indices with 24 nonzero ones, so
        both zeros and counts are checked.
        """
        alphabet = graph.labels()
        rng = np.random.default_rng(0)
        picks = rng.integers(0, vector.size, size=24).tolist()
        nonzero = np.flatnonzero(vector)
        if nonzero.size:
            picks += rng.choice(nonzero, size=24).tolist()
        evaluator = BFSPathEvaluator(graph)
        mismatches = []
        for index in picks:
            path = domain_index_to_path(int(index), alphabet)
            if evaluator.selectivity(path) != vector[index]:
                mismatches.append(str(path))
        return mismatches


@pytest.fixture(scope="session")
def oracle() -> SelectivityOracle:
    """The kernel-independent selectivity oracle (session-scoped)."""
    return SelectivityOracle()
