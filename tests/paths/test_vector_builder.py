"""Tests for the columnar selectivity builder (:func:`compute_selectivity_vector`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PathError
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import zipf_labeled_graph
from repro.graph.matrices import LabelMatrixStore
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import (
    compute_selectivity_vector,
    domain_size,
    enumerate_label_paths,
)


def reference_vector(graph: LabeledDiGraph, max_length: int) -> np.ndarray:
    """A path -> count dict of per-path chain products, in canonical order."""
    store = LabelMatrixStore(graph)
    selectivities = {
        path: store.path_selectivity(path.labels)
        for path in enumerate_label_paths(graph.labels(), max_length)
    }
    return np.array(list(selectivities.values()), dtype=np.int64)


class TestVectorMatchesDictBuilder:
    def test_triangle(self, triangle_graph):
        vector = compute_selectivity_vector(triangle_graph, 3)
        assert np.array_equal(vector, reference_vector(triangle_graph, 3))

    def test_small_graph(self, small_graph):
        vector = compute_selectivity_vector(small_graph, 3)
        assert vector.dtype == np.int64
        assert vector.shape == (domain_size(4, 3),)
        assert np.array_equal(vector, reference_vector(small_graph, 3))


class TestBackendEquality:
    @pytest.fixture(scope="class")
    def graph(self) -> LabeledDiGraph:
        return zipf_labeled_graph(60, 280, 6, skew=1.0, seed=11, name="backends")

    def test_catalog_backends_identical(self, graph, oracle):
        reference = oracle.vector(graph, 2)
        for backend in (None, "matrix"):
            for storage in ("dense", "sparse"):
                catalog = SelectivityCatalog.from_graph(
                    graph, 2, backend=backend, storage=storage
                )
                assert np.array_equal(catalog.frequency_vector(), reference)

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(PathError):
            compute_selectivity_vector(graph, 2, backend="fork-bomb")


class TestZeroSubtreeSliceFill:
    @pytest.fixture()
    def chain_graph(self) -> LabeledDiGraph:
        # x-edges then one y-edge: anything through y twice (or y then x) is
        # empty, so the k=4 domain is dominated by zero subtrees.
        graph = LabeledDiGraph(name="chain")
        graph.add_edges_from(
            [("v0", "x", "v1"), ("v1", "x", "v2"), ("v2", "y", "v3")]
        )
        return graph

    def test_matches_brute_force_path_selectivity(self, chain_graph):
        store = LabelMatrixStore(chain_graph)
        vector = compute_selectivity_vector(chain_graph, 4, store=store)
        for index, path in enumerate(
            enumerate_label_paths(chain_graph.labels(), 4)
        ):
            assert vector[index] == store.path_selectivity(path.labels), str(path)
