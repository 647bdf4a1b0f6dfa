"""Tests for :class:`repro.engine.session.EstimationSession`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, EstimationSession
from repro.exceptions import EngineError, PathError, UnknownLabelError
from repro.paths.enumeration import enumerate_label_paths

CONFIG = EngineConfig(max_length=3, ordering="sum-based", bucket_count=16)


@pytest.fixture(scope="module")
def session(small_graph) -> EstimationSession:
    return EstimationSession.build(small_graph, CONFIG)


def domain_strings(session: EstimationSession) -> list[str]:
    return [
        str(path)
        for path in enumerate_label_paths(
            session.catalog.labels, session.config.max_length
        )
    ]


class TestEngineConfig:
    def test_rejects_bad_max_length(self):
        with pytest.raises(EngineError):
            EngineConfig(max_length=0)

    def test_rejects_bad_bucket_count(self):
        with pytest.raises(EngineError):
            EngineConfig(bucket_count=0)

    def test_histogram_fields_cover_catalog_fields(self):
        config = EngineConfig(max_length=2)
        assert set(config.catalog_fields()) <= set(config.histogram_fields())


class TestBatchParity:
    def test_batch_matches_loop_on_full_domain(self, session):
        paths = domain_strings(session)
        batch = session.estimate_batch(paths)
        loop = np.array([session.estimate(path) for path in paths])
        assert batch.shape == (len(paths),)
        assert np.allclose(batch, loop)

    def test_batch_matches_estimator_on_random_workload(self, session):
        domain = domain_strings(session)
        rng = np.random.default_rng(13)
        workload = [domain[i] for i in rng.integers(0, len(domain), 500)]
        batch = session.estimate_batch(workload)
        reference = session.estimator.estimate_many(workload)
        assert np.allclose(batch, np.array(reference))

    def test_accepts_label_path_objects(self, session):
        from repro.paths.label_path import LabelPath

        paths = [LabelPath.parse(text) for text in domain_strings(session)[:20]]
        batch = session.estimate_batch(paths)
        loop = np.array([session.estimate(path) for path in paths])
        assert np.allclose(batch, loop)

    def test_empty_batch(self, session):
        assert session.estimate_batch([]).shape == (0,)

    def test_unknown_label_raises(self, session):
        with pytest.raises(UnknownLabelError):
            session.estimate_batch(["definitely-not-a-label"])

    def test_positions_agree_with_ordering(self, session):
        ordering = session.ordering
        for text in domain_strings(session)[:50]:
            assert session.position(text) == ordering.index(text)


class TestCacheBehavior:
    def test_cold_build_populates_cache(self, small_graph, tmp_path):
        session = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        assert not session.stats.catalog_from_cache
        names = sorted(path.name for path in tmp_path.iterdir())
        assert any(name.startswith("catalog-") for name in names)
        assert any(name.startswith("histogram-") for name in names)
        assert any(name.startswith("positions-") for name in names)

    def test_warm_build_hits_every_artifact(self, small_graph, tmp_path):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        warm = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache
        assert warm.stats.histogram_from_cache
        assert warm.stats.positions_from_cache

    def test_warm_build_skips_catalog_construction(
        self, small_graph, tmp_path, monkeypatch
    ):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("catalog construction ran on a warm cache")

        import repro.paths.catalog as catalog_module
        import repro.paths.enumeration as enumeration_module

        monkeypatch.setattr(catalog_module, "compute_selectivity_vector", explode)
        monkeypatch.setattr(catalog_module, "compute_selectivity_nonzeros", explode)
        monkeypatch.setattr(enumeration_module, "_matrix_subtrees_nonzeros", explode)
        warm = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache

    def test_warm_estimates_match_cold(self, small_graph, tmp_path):
        cold = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        warm = EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        paths = domain_strings(cold)
        assert np.allclose(cold.estimate_batch(paths), warm.estimate_batch(paths))

    @pytest.mark.parametrize(
        "variant",
        [
            EngineConfig(max_length=2, ordering="sum-based", bucket_count=16),
            EngineConfig(max_length=3, ordering="num-alph", bucket_count=16),
            EngineConfig(max_length=3, ordering="sum-based", bucket_count=8),
            EngineConfig(
                max_length=3,
                ordering="sum-based",
                histogram_kind="equi-width",
                bucket_count=16,
            ),
        ],
    )
    def test_config_change_invalidates_histogram(
        self, small_graph, tmp_path, variant
    ):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        rebuilt = EstimationSession.build(small_graph, variant, cache_dir=tmp_path)
        assert not rebuilt.stats.histogram_from_cache
        assert not rebuilt.stats.positions_from_cache
        # Only a change of k invalidates the catalog artifact.
        expected_catalog_hit = variant.max_length == CONFIG.max_length
        assert rebuilt.stats.catalog_from_cache == expected_catalog_hit

    def test_different_graph_misses(self, small_graph, triangle_graph, tmp_path):
        EstimationSession.build(small_graph, CONFIG, cache_dir=tmp_path)
        other = EstimationSession.build(triangle_graph, CONFIG, cache_dir=tmp_path)
        assert not other.stats.catalog_from_cache

    def test_ideal_ordering_builds_with_cache(self, small_graph, tmp_path):
        """Non-serialisable orderings must not abort a cached build."""
        config = EngineConfig(max_length=2, ordering="ideal", bucket_count=8)
        session = EstimationSession.build(small_graph, config, cache_dir=tmp_path)
        assert session.stats.extra.get("histogram_not_cacheable") is True
        # The catalog artifact is still cached, so a second build warm-starts
        # the expensive part even though the histogram is rebuilt.
        warm = EstimationSession.build(small_graph, config, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache
        paths = domain_strings(session)[:20]
        assert np.allclose(
            session.estimate_batch(paths), warm.estimate_batch(paths)
        )


class TestParallelCatalog:
    def test_parallel_equals_serial(self, small_graph):
        # One stacked frontier over every first label equals the kernel run
        # on one first label at a time: stacked blocks never mix.
        from repro.graph.matrices import LabelMatrixStore
        from repro.paths.enumeration import _matrix_subtrees_nonzeros

        labels = small_graph.labels()
        matrices = LabelMatrixStore(small_graph).as_dict()
        stacked = _matrix_subtrees_nonzeros(matrices, labels, labels, 3)
        runs = [_matrix_subtrees_nonzeros(matrices, labels, (label,), 3) for label in labels]
        indices = np.concatenate([run[0] for run in runs])
        order = np.argsort(indices)
        assert np.array_equal(stacked[0], indices[order])
        assert np.array_equal(stacked[1], np.concatenate([run[1] for run in runs])[order])

    def test_roots_restriction(self, small_graph):
        # The kernel stacks any subset of first-label subtrees (the delta
        # path's unit of work); each subset equals its slice of a full build.
        from repro.graph.matrices import LabelMatrixStore
        from repro.paths.enumeration import (
            _matrix_subtrees_nonzeros,
            compute_selectivity_vector,
            subtree_level_ranges,
        )

        labels = small_graph.labels()
        matrices = LabelMatrixStore(small_graph).as_dict()
        full = compute_selectivity_vector(small_graph, 3)
        rooted_labels = labels[1:3]
        indices, counts = _matrix_subtrees_nonzeros(matrices, labels, rooted_labels, 3)
        expected = np.zeros_like(full)
        for label in rooted_labels:
            for low, high in subtree_level_ranges(len(labels), 3, labels.index(label)):
                expected[low:high] = full[low:high]
        assert np.array_equal(indices, np.flatnonzero(expected))
        assert np.array_equal(counts, expected[indices])

    def test_bad_roots_rejected(self, small_graph):
        from repro.exceptions import PathError
        from repro.graph.delta import GraphDelta
        from repro.paths.enumeration import compute_selectivity_vector, update_selectivity_vector

        vector = compute_selectivity_vector(small_graph, 2)
        with pytest.raises(PathError):
            update_selectivity_vector(
                small_graph, 2, vector, GraphDelta(), affected=["nope"]
            )

    def test_backend_accepts_only_matrix(self, small_graph):
        from repro.graph.delta import GraphDelta

        session = EstimationSession.build(small_graph.copy(), CONFIG, backend="matrix")
        assert "backend" not in session.stats.as_row()
        assert "workers" not in session.stats.as_row()
        with pytest.raises(PathError):
            EstimationSession.build(small_graph, CONFIG, backend="serial")
        with pytest.raises(PathError):
            session.update(GraphDelta(), backend="thread")
