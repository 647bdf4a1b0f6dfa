"""Equality gate for the matrix-chain catalog kernel, the only builder.

The kernel must equal the ``oracle`` fixture — one chain product per path
over ``enumerate_label_paths``, sharing no code with the kernel — and a
seeded ``BFSPathEvaluator`` sample, everywhere: randomized graphs across
generators and alphabet sizes, degenerate domains (single label, labels
with no edges, zero subtrees), the dense columnar vector, delta-patched
rebuilds, row-sliced last levels, and the ``backend`` plumbing around it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PathError
from repro.graph.delta import GraphDelta
from repro.graph.digraph import LabeledDiGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    forest_fire_graph,
    ring_labeled_graph,
    zipf_labeled_graph,
)
from repro.graph.matrices import LabelMatrixStore, block_nonzero_counts, drop_zero_rows
from repro.paths import enumeration
from repro.paths.catalog import SelectivityCatalog
from repro.paths.enumeration import (
    check_backend,
    compute_selectivity_nonzeros,
    compute_selectivity_vector,
    update_selectivity_nonzeros,
    update_selectivity_vector,
)


def assert_streams_identical(left, right):
    """Byte-for-byte equality of two ``(indices, counts)`` stream pairs."""
    assert left[0].dtype == right[0].dtype == np.int64
    assert left[1].dtype == right[1].dtype == np.int64
    assert left[0].tobytes() == right[0].tobytes()
    assert left[1].tobytes() == right[1].tobytes()


GRAPH_CASES = [
    pytest.param(lambda: erdos_renyi_graph(120, 700, 4, seed=3), 4, id="erdos-renyi-4"),
    pytest.param(lambda: erdos_renyi_graph(60, 500, 2, seed=5), 5, id="erdos-renyi-2"),
    pytest.param(
        lambda: zipf_labeled_graph(400, 300, 12, skew=0.8, seed=29), 5, id="zipf-12"
    ),
    pytest.param(
        lambda: zipf_labeled_graph(200, 180, 6, skew=1.2, seed=11), 6, id="zipf-6"
    ),
    pytest.param(
        lambda: barabasi_albert_graph(150, 3, 5, seed=7), 4, id="barabasi-5"
    ),
    pytest.param(
        lambda: forest_fire_graph(120, 3, seed=13), 4, id="forest-fire-3"
    ),
    pytest.param(
        lambda: ring_labeled_graph(8, 40, 120, seed=17), 4, id="ring-8"
    ),
]


class TestMatrixNonzerosEquality:
    @pytest.mark.parametrize("make_graph, k", GRAPH_CASES)
    def test_matches_dfs_across_generators(self, make_graph, k, oracle):
        graph = make_graph()
        streams = compute_selectivity_nonzeros(graph, k)
        assert_streams_identical(streams, oracle.nonzeros(graph, k))
        vector = compute_selectivity_vector(graph, k)
        assert oracle.bfs_mismatches(graph, vector) == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_dfs_at_small_lengths(self, k, oracle):
        graph = erdos_renyi_graph(80, 300, 3, seed=23)
        streams = compute_selectivity_nonzeros(graph, k)
        assert_streams_identical(streams, oracle.nonzeros(graph, k))

    def test_single_label_alphabet(self, oracle):
        graph = erdos_renyi_graph(50, 120, 1, seed=31)
        streams = compute_selectivity_nonzeros(graph, 5)
        assert_streams_identical(streams, oracle.nonzeros(graph, 5))

    def test_alphabet_with_edgeless_labels_yields_zero_subtrees(self, oracle):
        # Labels in the alphabet but absent from the graph root empty
        # subtrees; the kernel must skip them without shifting any index.
        graph = erdos_renyi_graph(60, 200, 2, seed=41)
        labels = sorted(graph.labels()) + ["zz-empty", "zz-empty-2"]
        streams = compute_selectivity_nonzeros(graph, 4, labels=labels)
        assert_streams_identical(streams, oracle.nonzeros(graph, 4, labels=labels))

    def test_edgeless_graph_domain_is_all_zero(self):
        graph = LabeledDiGraph()
        graph.add_vertices_from(["a", "b", "c"])
        indices, counts = compute_selectivity_nonzeros(
            graph, 3, labels=["x", "y"], backend="matrix"
        )
        assert indices.size == 0
        assert counts.size == 0

    def test_deep_chain_prunes_exhausted_frontier(self, oracle):
        # A 3-vertex path with one label dies after two hops; levels past
        # the frontier's death must come back empty, not crash.
        graph = LabeledDiGraph()
        graph.add_edge("a", "e", "b")
        graph.add_edge("b", "e", "c")
        streams = compute_selectivity_nonzeros(graph, 6)
        assert_streams_identical(streams, oracle.nonzeros(graph, 6))
        assert streams[1].tolist() == [2, 1]

    @pytest.mark.parametrize("slice_rows", [3, 7])
    def test_last_level_row_slices_are_byte_identical(self, slice_rows, monkeypatch):
        # Tiny slices make many stacked blocks straddle a slice boundary; a
        # block miscounted across one would change the streams.
        graph = erdos_renyi_graph(120, 700, 4, seed=3)
        streams = compute_selectivity_nonzeros(graph, 4)
        vector = compute_selectivity_vector(graph, 4)
        monkeypatch.setattr(enumeration, "_LAST_LEVEL_SLICE_ROWS", slice_rows)
        assert_streams_identical(compute_selectivity_nonzeros(graph, 4), streams)
        assert compute_selectivity_vector(graph, 4).tobytes() == vector.tobytes()


class TestMatrixVectorEquality:
    @pytest.mark.parametrize("make_graph, k", GRAPH_CASES)
    def test_matches_columnar_vector(self, make_graph, k, oracle):
        graph = make_graph()
        vector = compute_selectivity_vector(graph, k)
        assert vector.dtype == np.int64
        assert np.array_equal(vector, oracle.vector(graph, k))
        # The dense and sparse builds are the same counts in two layouts.
        indices, counts = compute_selectivity_nonzeros(graph, k)
        assert np.array_equal(np.flatnonzero(vector), indices)
        assert np.array_equal(vector[indices], counts)

    def test_matches_other_backends(self, oracle):
        graph = zipf_labeled_graph(200, 250, 8, skew=0.8, seed=19)
        reference = oracle.vector(graph, 4)
        for backend in (None, "matrix"):
            vector = compute_selectivity_vector(graph, 4, backend=backend)
            assert np.array_equal(reference, vector), backend


class TestMatrixDeltaRebuilds:
    def _delta_for(self, graph, seed=101):
        rng = np.random.default_rng(seed)
        labels = sorted(graph.labels())
        vertices = list(graph.vertices())
        removal = next(iter(graph.edges()))
        additions = []
        while len(additions) < 5:
            source = vertices[int(rng.integers(len(vertices)))]
            target = vertices[int(rng.integers(len(vertices)))]
            label = labels[int(rng.integers(len(labels)))]
            if not graph.has_edge(source, label, target):
                additions.append((source, label, target))
        return GraphDelta(additions=additions, removals=(tuple(removal),))

    def test_patched_nonzeros_match_cold_dfs_rebuild(self, oracle):
        graph = zipf_labeled_graph(150, 200, 10, skew=0.8, seed=37)
        labels = sorted(graph.labels())
        old = compute_selectivity_nonzeros(graph, 4, labels=labels)
        delta = self._delta_for(graph)
        delta.apply(graph)
        patched = update_selectivity_nonzeros(
            graph, 4, old[0], old[1], delta, labels=labels, backend="matrix"
        )
        cold = compute_selectivity_nonzeros(graph, 4, labels=labels)
        assert_streams_identical(patched, cold)
        assert_streams_identical(patched, oracle.nonzeros(graph, 4, labels=labels))

    def test_patched_vector_matches_cold_rebuild(self, oracle):
        graph = erdos_renyi_graph(100, 500, 5, seed=43)
        labels = sorted(graph.labels())
        old = compute_selectivity_vector(graph, 4, labels=labels)
        delta = self._delta_for(graph, seed=7)
        delta.apply(graph)
        patched = update_selectivity_vector(
            graph, 4, old, delta, labels=labels, backend="matrix"
        )
        cold = compute_selectivity_vector(graph, 4, labels=labels)
        assert np.array_equal(patched, cold)
        assert np.array_equal(patched, oracle.vector(graph, 4, labels=labels))

    def test_stale_entries_inside_affected_subtree_are_cleared(self):
        # A removal that zeroes previously nonzero paths exercises the
        # scatter path's slice-zeroing (stale counts must not survive).
        graph = LabeledDiGraph()
        graph.add_edge("a", "x", "b")
        graph.add_edge("b", "y", "c")
        labels = sorted(graph.labels())
        old = compute_selectivity_vector(graph, 3, labels=labels)
        delta = GraphDelta(removals=(("b", "y", "c"),))
        delta.apply(graph)
        patched = update_selectivity_vector(
            graph, 3, old, delta, labels=labels, backend="matrix"
        )
        cold = compute_selectivity_vector(graph, 3, labels=labels)
        assert np.array_equal(patched, cold)


class TestCatalogAndPlumbing:
    def test_catalog_from_graph_sparse_storage(self, oracle):
        graph = zipf_labeled_graph(200, 200, 8, skew=0.8, seed=53)
        catalog = SelectivityCatalog.from_graph(
            graph, 4, storage="sparse", backend="matrix"
        )
        assert catalog.storage == "sparse"
        assert_streams_identical(catalog.nonzero_arrays(), oracle.nonzeros(graph, 4))

    def test_catalog_from_graph_dense_storage(self, oracle):
        graph = erdos_renyi_graph(80, 400, 4, seed=59)
        catalog = SelectivityCatalog.from_graph(graph, 3, storage="dense")
        assert np.array_equal(catalog.frequency_vector(), oracle.vector(graph, 3))

    def test_matrix_is_a_registered_backend(self):
        check_backend(None)
        check_backend("matrix")
        for retired in ("serial", "thread", "process"):
            with pytest.raises(PathError):
                check_backend(retired)


class TestStackedFrontierHelpers:
    def test_drop_zero_rows_keeps_nonzero_rows_in_order(self):
        from scipy import sparse

        matrix = sparse.csr_matrix(
            np.array(
                [[0, 0, 0], [1, 0, 1], [0, 0, 0], [0, 1, 0]], dtype=bool
            )
        )
        compressed = drop_zero_rows(matrix)
        assert compressed.shape == (2, 3)
        assert np.array_equal(
            compressed.toarray(), np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        )

    def test_drop_zero_rows_is_identity_without_zero_rows(self):
        from scipy import sparse

        matrix = sparse.csr_matrix(np.eye(3, dtype=bool))
        assert drop_zero_rows(matrix) is matrix

    def test_block_nonzero_counts(self):
        from scipy import sparse

        stacked = sparse.csr_matrix(
            np.array(
                [[1, 1, 0], [0, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=bool
            )
        )
        block_ptr = np.array([0, 2, 3, 4], dtype=np.int64)
        counts = block_nonzero_counts(stacked, block_ptr)
        assert counts.dtype == np.int64
        assert counts.tolist() == [2, 1, 3]

    def test_store_as_dict_materialises_requested_labels(self):
        graph = erdos_renyi_graph(30, 80, 3, seed=61)
        store = LabelMatrixStore(graph)
        mapping = store.as_dict()
        assert set(mapping) == set(store.labels)
        for label, matrix in mapping.items():
            assert matrix is store.matrix(label)
