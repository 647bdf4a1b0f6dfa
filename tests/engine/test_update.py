"""Tests for `EstimationSession.update`: incremental rebuilds, artifact
patching, derived-histogram invalidation and stats provenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ArtifactCache, EngineConfig, EstimationSession
from repro.exceptions import EngineError
from repro.graph.delta import GraphDelta
from repro.graph.generators import ring_labeled_graph, zipf_labeled_graph

CONFIG = EngineConfig(max_length=3, ordering="sum-based", bucket_count=16)


@pytest.fixture()
def ring_graph():
    return ring_labeled_graph(8, 25, 120, seed=5, name="update-ring")


@pytest.fixture()
def ring_delta(ring_graph):
    edges = list(ring_graph.edges_with_label("4"))
    return GraphDelta(removals=edges[:10])


class TestSessionUpdate:
    def test_update_matches_cold_build(self, ring_graph, ring_delta):
        session = EstimationSession.build(ring_graph, CONFIG)
        updated = session.update(ring_delta)
        cold = EstimationSession.build(updated.graph.copy(), CONFIG)
        assert np.array_equal(
            updated.catalog.frequency_vector(), cold.catalog.frequency_vector()
        )
        probe = ["1", "4/5", "3/4/5", "2/3", "8/1/2"]
        assert np.allclose(updated.estimate_batch(probe), cold.estimate_batch(probe))

    def test_update_refingerprints_and_patches_cache(
        self, ring_graph, ring_delta, tmp_path
    ):
        session = EstimationSession.build(ring_graph, CONFIG, cache_dir=tmp_path)
        updated = session.update(ring_delta)
        assert updated.stats.graph_digest != session.stats.graph_digest
        assert updated.stats.catalog_key != session.stats.catalog_key
        cache = ArtifactCache(tmp_path)
        # Both the old and the patched catalog artifacts exist, content-addressed.
        assert cache.catalog_path(session.stats.catalog_key).exists()
        assert cache.catalog_path(updated.stats.catalog_key).exists()
        # Derived artifacts were rebuilt under the new histogram key.
        assert cache.histogram_path(updated.stats.histogram_key).exists()
        assert cache.positions_path(updated.stats.histogram_key).exists()
        # A later cold start warm-loads the patched artifact.
        warm = EstimationSession.build(updated.graph, CONFIG, cache_dir=tmp_path)
        assert warm.stats.catalog_from_cache
        assert np.array_equal(
            warm.catalog.frequency_vector(), updated.catalog.frequency_vector()
        )

    def test_update_invalidates_derived_histogram(self, ring_graph):
        session = EstimationSession.build(ring_graph, CONFIG)
        # Remove every edge of one label: its paths' frequencies collapse,
        # so the histogram must be rebuilt, not reused.
        delta = GraphDelta(removals=list(ring_graph.edges_with_label("4")))
        # Removing a whole label changes the alphabet -> full rebuild path.
        updated = session.update(delta)
        assert updated.histogram is not session.histogram
        assert updated.stats.extra["delta_full_rebuild"]
        cold = EstimationSession.build(updated.graph.copy(), CONFIG)
        assert np.array_equal(
            updated.catalog.frequency_vector(), cold.catalog.frequency_vector()
        )

    def test_old_session_keeps_serving_pre_delta_snapshot(
        self, ring_graph, ring_delta
    ):
        session = EstimationSession.build(ring_graph, CONFIG)
        before = session.catalog.frequency_vector().copy()
        session.update(ring_delta)
        assert np.array_equal(session.catalog.frequency_vector(), before)

    def test_update_stats_provenance(self, ring_graph, ring_delta):
        session = EstimationSession.build(ring_graph, CONFIG)
        updated = session.update(ring_delta)
        stats = updated.stats
        assert stats.updated_from_delta
        assert not stats.catalog_from_cache
        extra = stats.extra
        assert extra["delta_removals"] == 10
        assert extra["delta_additions"] == 0
        assert 0 < extra["delta_affected_subtrees"] < extra["delta_subtrees_total"]
        assert not extra["delta_full_rebuild"]
        row = stats.as_row()
        assert row["updated_from_delta"] is True
        assert row["delta_affected_subtrees"] == extra["delta_affected_subtrees"]

    def test_update_without_graph_reference_raises(self, ring_graph):
        built = EstimationSession.build(ring_graph, CONFIG)
        orphan = EstimationSession(
            built.catalog,
            built.histogram,
            rank_table=built.ordering.index_array(),
            config=CONFIG,
        )
        with pytest.raises(EngineError, match="retains no graph"):
            orphan.update(GraphDelta(additions=[(0, "1", 1)]))

    def test_update_without_cache_works(self, ring_graph, ring_delta):
        session = EstimationSession.build(ring_graph, CONFIG)
        assert session.cache is None
        updated = session.update(ring_delta)
        assert updated.cache is None
        assert updated.domain_size == session.domain_size

    def test_updating_a_superseded_session_raises(self, ring_graph, tmp_path):
        """A second update on the *old* session must fail loudly, not poison
        the cache with a half-patched catalog under a valid digest key."""
        session = EstimationSession.build(ring_graph, CONFIG, cache_dir=tmp_path)
        edges_4 = list(ring_graph.edges_with_label("4"))
        edges_8 = list(ring_graph.edges_with_label("8"))
        session.update(GraphDelta(removals=[tuple(edges_4[0])]))
        with pytest.raises(EngineError, match="stale session"):
            session.update(GraphDelta(removals=[tuple(edges_8[0])]))
        # Nothing was written for the would-be second update: the cache holds
        # exactly the original and first-update catalogs.
        cache = ArtifactCache(tmp_path)
        catalogs = [p for p in cache.artifact_files() if p.name.startswith("catalog-")]
        assert len(catalogs) == 2

    def test_update_with_graph_copy_leaves_retained_graph_untouched(
        self, ring_graph, ring_delta
    ):
        session = EstimationSession.build(ring_graph, CONFIG)
        edge_count = ring_graph.edge_count
        updated = session.update(ring_delta, graph=ring_graph.copy())
        assert ring_graph.edge_count == edge_count  # original not mutated
        assert updated.graph is not ring_graph
        cold = EstimationSession.build(updated.graph.copy(), CONFIG)
        assert np.array_equal(
            updated.catalog.frequency_vector(), cold.catalog.frequency_vector()
        )

    def test_update_rejects_mismatched_graph_override(self, ring_graph, ring_delta):
        session = EstimationSession.build(ring_graph, CONFIG)
        other = ring_labeled_graph(8, 25, 120, seed=99)
        with pytest.raises(EngineError, match="stale session"):
            session.update(ring_delta, graph=other)

    def test_chained_updates(self, tmp_path):
        graph = zipf_labeled_graph(40, 200, 4, skew=0.6, seed=11)
        session = EstimationSession.build(graph, CONFIG, cache_dir=tmp_path)
        edges = list(graph.edges())
        first = GraphDelta(removals=[tuple(edges[0])])
        second = GraphDelta(removals=[tuple(edges[1])])
        session = session.update(first)
        session = session.update(second)
        cold = EstimationSession.build(session.graph.copy(), CONFIG)
        assert np.array_equal(
            session.catalog.frequency_vector(), cold.catalog.frequency_vector()
        )
