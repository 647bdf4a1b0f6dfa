"""Sparse/dense storage equivalence of :class:`SelectivityCatalog`.

Every test here pins the tentpole contract: the two storage modes are the
same logical catalog — identical lookups, aggregates, persistence and delta
patches — differing only in memory shape (O(nnz) vs O(|Lk|)).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PathError
from repro.graph.delta import GraphDelta
from repro.graph.generators import zipf_labeled_graph
from repro.paths.catalog import (
    SPARSE_AUTO_MIN_DOMAIN,
    SelectivityCatalog,
)
from repro.paths.enumeration import compute_selectivity_vector


@pytest.fixture(scope="module")
def sparse_graph():
    """A 10-label graph whose k=4 domain (11,110 paths) is mostly zero."""
    return zipf_labeled_graph(150, 220, 10, skew=0.8, seed=13, name="sparse-mod")


@pytest.fixture(scope="module")
def catalog_pair(sparse_graph):
    dense = SelectivityCatalog.from_graph(sparse_graph, 4, storage="dense")
    sparse = SelectivityCatalog.from_graph(sparse_graph, 4, storage="sparse")
    return dense, sparse


class TestStorageModes:
    def test_from_graph_modes_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        assert dense.storage == "dense"
        assert sparse.storage == "sparse"
        assert np.array_equal(dense.frequency_vector(), sparse.frequency_vector())
        di, dv = dense.nonzero_arrays()
        si, sv = sparse.nonzero_arrays()
        assert np.array_equal(di, si)
        assert np.array_equal(dv, sv)

    def test_auto_resolves_sparse_for_large_sparse_domain(self, sparse_graph):
        auto = SelectivityCatalog.from_graph(sparse_graph, 4)
        assert auto.domain_size >= SPARSE_AUTO_MIN_DOMAIN
        assert auto.storage == "sparse"

    def test_auto_resolves_dense_for_small_domain(self, sparse_graph):
        auto = SelectivityCatalog.from_graph(sparse_graph, 2)
        assert auto.domain_size < SPARSE_AUTO_MIN_DOMAIN
        assert auto.storage == "dense"

    def test_auto_on_dense_vector_respects_density(self):
        # |L|=2, k=12 -> domain 8190, above the auto threshold.
        domain = 2**13 - 2
        assert domain >= SPARSE_AUTO_MIN_DOMAIN
        dense_vector = np.arange(1, domain + 1, dtype=np.int64)
        assert SelectivityCatalog(["a", "b"], 12, dense_vector).storage == "dense"
        sparse_vector = np.zeros(domain, dtype=np.int64)
        sparse_vector[7] = 5
        assert SelectivityCatalog(["a", "b"], 12, sparse_vector).storage == "sparse"

    def test_point_and_batch_lookups_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        for path in dense.nonzero_paths()[:25]:
            assert sparse.selectivity(path) == dense.selectivity(path)
        assert sparse.label_selectivities() == dense.label_selectivities()
        indices = np.arange(0, dense.domain_size, 97, dtype=np.int64)
        assert np.array_equal(
            sparse.selectivities_at(indices), dense.selectivities_at(indices)
        )

    def test_aggregates_and_len_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        assert sparse.total_selectivity() == dense.total_selectivity()
        assert sparse.max_selectivity() == dense.max_selectivity()
        assert len(sparse) == len(dense) == dense.domain_size
        assert sparse.nnz == dense.nnz
        assert sparse.density == dense.density
        assert sparse.is_dense and dense.is_dense

    def test_memory_bytes_is_o_nnz(self, catalog_pair):
        dense, sparse = catalog_pair
        assert sparse.memory_bytes() == 16 * sparse.nnz
        assert dense.memory_bytes() == 8 * dense.domain_size
        assert sparse.memory_bytes() < dense.memory_bytes() / 4

    def test_restrict_preserves_storage_and_values(self, catalog_pair):
        dense, sparse = catalog_pair
        restricted = sparse.restrict(2)
        assert restricted.storage == "sparse"
        assert np.array_equal(
            restricted.frequency_vector(), dense.restrict(2).frequency_vector()
        )

    def test_nonzero_paths_agree(self, catalog_pair):
        dense, sparse = catalog_pair
        assert sparse.nonzero_paths() == dense.nonzero_paths()

    def test_conversions_round_trip(self, catalog_pair):
        dense, sparse = catalog_pair
        assert sparse.to_sparse() is sparse
        assert dense.to_dense() is dense
        assert np.array_equal(
            sparse.to_dense().frequency_vector(), dense.frequency_vector()
        )
        back = dense.to_sparse()
        assert back.storage == "sparse"
        assert np.array_equal(
            back.nonzero_arrays()[0], sparse.nonzero_arrays()[0]
        )

    def test_explicit_mask_catalog_refuses_sparse_conversion(self):
        pruned = SelectivityCatalog(["a", "b"], 2, {"a": 3})
        assert not pruned.is_dense
        with pytest.raises(PathError):
            pruned.to_sparse()


class TestSparseValidation:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(PathError, match="strictly increasing"):
            SelectivityCatalog(
                ["a", "b"], 3, (np.array([5, 2]), np.array([1, 1])), storage="sparse"
            )

    def test_rejects_duplicate_indices(self):
        with pytest.raises(PathError, match="strictly increasing"):
            SelectivityCatalog(
                ["a", "b"], 3, (np.array([2, 2]), np.array([1, 1])), storage="sparse"
            )

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(PathError, match="out of range"):
            SelectivityCatalog(
                ["a", "b"], 2, (np.array([6]), np.array([1])), storage="sparse"
            )

    def test_rejects_negative_values(self):
        with pytest.raises(PathError, match="negative selectivity"):
            SelectivityCatalog(
                ["a", "b"], 2, (np.array([1]), np.array([-4])), storage="sparse"
            )

    def test_rejects_unknown_storage_mode(self):
        with pytest.raises(PathError, match="storage mode"):
            SelectivityCatalog(["a"], 1, {"a": 1}, storage="columnar")

    def test_explicit_zero_values_are_dropped(self):
        catalog = SelectivityCatalog(
            ["a", "b"], 2, (np.array([0, 3]), np.array([2, 0])), storage="sparse"
        )
        assert catalog.nnz == 1
        assert catalog.selectivity("a") == 2


class TestMappingBranch:
    def test_duplicate_paths_are_detected(self):
        with pytest.raises(PathError, match="duplicate path"):
            SelectivityCatalog(["a", "b"], 2, {"a/b": 1, ("a", "b"): 2})

    def test_negative_value_names_the_path(self):
        with pytest.raises(PathError, match="negative selectivity for a/b"):
            SelectivityCatalog(["a", "b"], 2, {"a": 1, "a/b": -3})

    def test_mapping_defaults_to_dense_with_mask(self):
        catalog = SelectivityCatalog(["a", "b"], 2, {"a": 3, "a/b": 0})
        assert catalog.storage == "dense"
        assert not catalog.is_dense
        assert len(catalog) == 2

    def test_mapping_with_sparse_storage_covers_domain(self):
        catalog = SelectivityCatalog(
            ["a", "b"], 2, {"a": 3, "a/b": 0}, storage="sparse"
        )
        assert catalog.storage == "sparse"
        assert catalog.is_dense
        assert len(catalog) == catalog.domain_size
        assert catalog.nnz == 1
        assert catalog.selectivity("a/b") == 0

    def test_full_mapping_sparse_matches_dense(self, catalog_pair):
        dense, _ = catalog_pair
        mapping = {str(path): value for path, value in dense.items()}
        rebuilt = SelectivityCatalog(
            dense.labels, dense.max_length, mapping, storage="sparse"
        )
        assert np.array_equal(rebuilt.frequency_vector(), dense.frequency_vector())


class TestPersistence:
    def test_npz_round_trips_both_modes(self, catalog_pair, tmp_path):
        dense, sparse = catalog_pair
        for catalog, name in ((dense, "dense"), (sparse, "sparse")):
            target = tmp_path / f"{name}.npz"
            catalog.save_npz(target)
            loaded = SelectivityCatalog.load(target)
            assert loaded.storage == catalog.storage
            assert np.array_equal(
                loaded.frequency_vector(), catalog.frequency_vector()
            )
            assert loaded.graph_name == catalog.graph_name

    def test_sparse_npz_stores_only_nonzero_arrays(self, catalog_pair, tmp_path):
        # The on-disk layout must be O(nnz) too: no dense frequencies member.
        # (The *size* advantage only materialises at large domains — deflate
        # compresses runs of zeros extremely well — and is enforced by the
        # benchmark floor on the 64M-entry graph, not here.)
        _, sparse = catalog_pair
        target = tmp_path / "s.npz"
        sparse.save_npz(target)
        with np.load(target, allow_pickle=False) as archive:
            assert "nz_indices" in archive.files
            assert "nz_values" in archive.files
            assert "frequencies" not in archive.files
            assert archive["nz_indices"].size == sparse.nnz

    def test_v1_archive_is_refused(self, catalog_pair, tmp_path):
        dense, _ = catalog_pair
        target = tmp_path / "v1.npz"
        dense.save_npz(target)
        with np.load(target) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["format_version"] = np.asarray(1, dtype=np.int64)
        with open(target, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(PathError, match="version 1"):
            SelectivityCatalog.load(target)

    def test_json_document_identical_across_modes(self, catalog_pair):
        dense, sparse = catalog_pair
        assert dense.to_dict() == sparse.to_dict()


class TestSparseDelta:
    def test_apply_delta_matches_cold_rebuild(self, sparse_graph, catalog_pair):
        dense, sparse = catalog_pair
        label = sorted(sparse_graph.labels())[1]
        removals = list(sparse_graph.edges_with_label(label))[:4]
        additions = [(0, label, 1)]
        additions = [
            triple
            for triple in additions
            if not sparse_graph.has_edge(*triple)
        ]
        delta = GraphDelta(additions=additions, removals=removals)
        updated = sparse_graph.copy()
        delta.apply(updated)

        patched_sparse = sparse.apply_delta(updated, delta)
        patched_dense = dense.apply_delta(updated, delta)
        cold = compute_selectivity_vector(updated, 4)
        assert patched_sparse.storage == "sparse"
        assert patched_dense.storage == "dense"
        assert np.array_equal(patched_sparse.frequency_vector(), cold)
        assert np.array_equal(patched_dense.frequency_vector(), cold)
        assert not sparse.delta_requires_full_rebuild(updated)

    def test_alphabet_change_falls_back_and_keeps_storage(self, sparse_graph, catalog_pair):
        _, sparse = catalog_pair
        delta = GraphDelta(additions=[(0, "zz-new", 1)])
        updated = sparse_graph.copy()
        delta.apply(updated)
        assert sparse.delta_requires_full_rebuild(updated)
        rebuilt = sparse.apply_delta(updated, delta)
        assert rebuilt.storage == "sparse"
        assert np.array_equal(
            rebuilt.frequency_vector(),
            compute_selectivity_vector(updated, 4),
        )


class TestEdgeCases:
    def test_all_zero_subtree_label(self):
        # A label in the alphabet with no edges at all: its whole first-label
        # subtree is zero and must simply be absent from the sparse arrays.
        graph = zipf_labeled_graph(40, 60, 3, skew=0.6, seed=5)
        labels = sorted(graph.labels()) + ["unused"]
        dense = SelectivityCatalog.from_graph(
            graph, 3, labels=labels, storage="dense"
        )
        sparse = SelectivityCatalog.from_graph(
            graph, 3, labels=labels, storage="sparse"
        )
        assert np.array_equal(dense.frequency_vector(), sparse.frequency_vector())
        assert sparse.selectivity("unused") == 0
        assert sparse.selectivity("unused/unused") == 0

    def test_empty_sparse_catalog(self):
        empty = SelectivityCatalog(
            ["a", "b"],
            3,
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            storage="sparse",
        )
        assert empty.nnz == 0
        assert empty.total_selectivity() == 0
        assert empty.max_selectivity() == 0
        assert empty.selectivity("a/b/a") == 0
        assert np.array_equal(
            empty.selectivities_at([0, 1, 2]), np.zeros(3, dtype=np.int64)
        )
        assert empty.nonzero_paths() == []

    def test_single_nonzero_catalog(self):
        one = SelectivityCatalog(
            ["a", "b"], 3, (np.array([5]), np.array([7])), storage="sparse"
        )
        assert one.nnz == 1
        assert [str(path) for path in one.nonzero_paths()] == ["b/b"]
        assert one.selectivity("b/b") == 7
        assert one.total_selectivity() == 7
        items = dict(one.items())
        assert len(items) == one.domain_size
        assert sum(items.values()) == 7
