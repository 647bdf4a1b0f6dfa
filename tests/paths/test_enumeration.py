"""Tests for label-path enumeration and bulk selectivity computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PathError
from repro.paths.enumeration import (
    compute_selectivity_nonzeros,
    compute_selectivity_vector,
    domain_size,
    enumerate_label_paths,
)
from repro.paths.evaluation import MatrixPathEvaluator
from repro.paths.index import path_to_domain_index
from repro.paths.label_path import LabelPath


class TestDomainSize:
    def test_paper_moreno_value(self):
        # 6 labels, k=6: 6 + 36 + ... + 6^6 = 55986 (the paper rounds to 55996).
        assert domain_size(6, 6) == sum(6**i for i in range(1, 7))

    def test_small_cases(self):
        assert domain_size(3, 2) == 12
        assert domain_size(2, 3) == 14
        assert domain_size(1, 5) == 5

    def test_validation(self):
        with pytest.raises(PathError):
            domain_size(0, 2)
        with pytest.raises(PathError):
            domain_size(3, 0)


class TestEnumeration:
    def test_order_is_length_then_alphabetical(self):
        paths = [str(p) for p in enumerate_label_paths(["b", "a"], 2)]
        assert paths == ["a", "b", "a/a", "a/b", "b/a", "b/b"]

    def test_count_matches_domain_size(self):
        paths = list(enumerate_label_paths(["1", "2", "3"], 3))
        assert len(paths) == domain_size(3, 3)
        assert len(set(paths)) == len(paths)

    def test_invalid_arguments(self):
        with pytest.raises(PathError):
            list(enumerate_label_paths(["a"], 0))
        with pytest.raises(PathError):
            list(enumerate_label_paths([], 2))


class TestComputeSelectivities:
    def test_matches_direct_evaluation(self, triangle_graph):
        vector = compute_selectivity_vector(triangle_graph, 3)
        evaluator = MatrixPathEvaluator(triangle_graph)
        paths = enumerate_label_paths(triangle_graph.labels(), 3)
        for path, value in zip(paths, vector):
            assert value == evaluator.selectivity(path), f"mismatch on {path}"

    def test_covers_whole_domain(self, triangle_graph):
        vector = compute_selectivity_vector(triangle_graph, 2)
        assert vector.shape == (domain_size(3, 2),)

    def test_prune_empty_drops_zero_subtrees(self, triangle_graph):
        # The sparse builder is the pruned form: only nonzero paths survive.
        indices, counts = compute_selectivity_nonzeros(triangle_graph, 3)
        assert (counts > 0).all()
        full = compute_selectivity_vector(triangle_graph, 3)
        assert np.array_equal(indices, np.flatnonzero(full))
        assert np.array_equal(counts, full[indices])

    def test_zero_subtree_recorded_when_not_pruned(self, triangle_graph):
        vector = compute_selectivity_vector(triangle_graph, 3)
        alphabet = triangle_graph.labels()
        # z/z is empty, and so must every extension of it be.
        for path in ("z/z", "z/z/x"):
            assert vector[path_to_domain_index(LabelPath.parse(path), alphabet)] == 0

    def test_label_restriction(self, triangle_graph):
        vector = compute_selectivity_vector(triangle_graph, 2, labels=["x", "y"])
        assert vector.shape == (domain_size(2, 2),)
        evaluator = MatrixPathEvaluator(triangle_graph)
        paths = enumerate_label_paths(["x", "y"], 2)
        assert vector.tolist() == [evaluator.selectivity(path) for path in paths]

    def test_invalid_max_length(self, triangle_graph):
        with pytest.raises(PathError):
            compute_selectivity_vector(triangle_graph, 0)
