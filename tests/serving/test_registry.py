"""Tests for the multi-graph session registry (single-flight + eviction)."""

from __future__ import annotations

import threading

import pytest

from repro.engine import ArtifactCache, EngineConfig
from repro.exceptions import PathError, ServingError, UnknownGraphError
from repro.graph.generators import zipf_labeled_graph
from repro.serving import SessionRegistry

CONFIG = EngineConfig(max_length=2, bucket_count=8)


def _graph(seed: int, labels: int = 3):
    return zipf_labeled_graph(30, 100, labels, skew=1.0, seed=seed, name=f"g{seed}")


class TestRegistration:
    def test_register_requires_exactly_one_source(self):
        registry = SessionRegistry(default_config=CONFIG)
        with pytest.raises(ServingError):
            registry.register("g")
        with pytest.raises(ServingError):
            registry.register("g", graph=_graph(1), path="also.tsv")
        with pytest.raises(ServingError):
            registry.register("", graph=_graph(1))

    def test_backend_accepts_only_matrix(self):
        SessionRegistry(backend="matrix")
        with pytest.raises(PathError):
            SessionRegistry(backend="process")

    def test_unknown_graph_raises_with_available_names(self):
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("known", graph=_graph(1))
        with pytest.raises(UnknownGraphError) as excinfo:
            registry.get("missing")
        assert "known" in str(excinfo.value)

    def test_register_from_edge_list_path(self, tmp_path):
        from repro.graph.io import write_edge_list

        graph = _graph(4)
        target = tmp_path / "graph.tsv"
        write_edge_list(graph, target)
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("file", path=target)
        session = registry.get("file")
        assert session.domain_size == registry.get("file").domain_size
        assert registry.stats.builds == 1

    def test_describe_reports_built_state(self):
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("a", graph=_graph(1))
        rows = registry.describe()
        assert rows[0]["name"] == "a" and rows[0]["built"] is False
        registry.get("a")
        rows = registry.describe()
        assert rows[0]["built"] is True and rows[0]["domain_size"] > 0


class TestSingleFlight:
    def test_concurrent_first_access_builds_exactly_once(self):
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", graph=_graph(7))
        thread_count = 12
        barrier = threading.Barrier(thread_count)
        sessions = []
        errors = []

        def request():
            try:
                barrier.wait()
                sessions.append(registry.get("g"))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=request) for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert registry.stats.builds == 1
        assert len(sessions) == thread_count
        assert all(session is sessions[0] for session in sessions)

    def test_same_graph_under_two_names_shares_one_session(self):
        graph = _graph(9)
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("first", graph=graph)
        registry.register("second", graph=graph)
        assert registry.get("first") is registry.get("second")
        assert registry.stats.builds == 1
        assert registry.session_count() == 1


class TestEviction:
    def test_lru_by_session_count(self):
        registry = SessionRegistry(default_config=CONFIG, max_sessions=1)
        registry.register("a", graph=_graph(1))
        registry.register("b", graph=_graph(2))
        first = registry.get("a")
        registry.get("b")
        assert registry.session_count() == 1
        assert registry.stats.evictions == 1
        # "a" still serves — it just rebuilds.
        rebuilt = registry.get("a")
        assert rebuilt is not first
        assert registry.stats.builds == 3

    def test_byte_budget_eviction_keeps_most_recent(self):
        registry = SessionRegistry(default_config=CONFIG, max_bytes=1)
        registry.register("a", graph=_graph(1))
        registry.register("b", graph=_graph(2))
        registry.get("a")
        session_b = registry.get("b")
        # Both sessions exceed one byte, but the newest always survives.
        assert registry.session_count() == 1
        assert registry.get("b") is session_b
        assert registry.stats.evictions == 1

    def test_eviction_under_load_serves_correct_results(self):
        registry = SessionRegistry(default_config=CONFIG, max_sessions=1)
        graph_a, graph_b = _graph(1), _graph(2)
        registry.register("a", graph=graph_a)
        registry.register("b", graph=graph_b)
        expected_a = registry.get("a").estimate_batch(["1/2", "2"])
        expected_b = registry.get("b").estimate_batch(["1/2", "2"])
        errors = []

        def hammer(name, expected):
            try:
                for _ in range(10):
                    got = registry.get(name).estimate_batch(["1/2", "2"])
                    assert list(got) == list(expected)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(name, expected))
            for name, expected in (("a", expected_a), ("b", expected_b)) * 3
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert registry.stats.evictions > 0

    def test_explicit_evict_and_rebuild_warm_starts_from_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        registry = SessionRegistry(default_config=CONFIG, cache_dir=cache)
        registry.register("g", graph=_graph(3))
        built = registry.get("g")
        assert registry.evict("g") is True
        assert registry.evict("g") is False
        assert registry.session_count() == 0
        rebuilt = registry.get("g")
        assert rebuilt is not built
        assert rebuilt.stats.catalog_from_cache is True
        with pytest.raises(UnknownGraphError):
            registry.evict("missing")

    def test_prune_cache_bytes_keeps_cache_dir_bounded(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        registry = SessionRegistry(
            default_config=CONFIG, cache_dir=cache, prune_cache_bytes=0
        )
        registry.register("g", graph=_graph(3))
        registry.get("g")
        # Budget 0 prunes everything right after the build wrote it.
        assert cache.total_bytes() == 0


class TestUpdateGraph:
    def test_update_swaps_session_in_place(self):
        import numpy as np

        from repro.engine import EstimationSession
        from repro.graph.delta import GraphDelta

        graph = _graph(31)
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", graph=graph.copy())
        old_session = registry.get("g")
        edge = next(iter(old_session.graph.edges()))
        row = registry.update_graph("g", GraphDelta(removals=[tuple(edge)]))
        assert row["built"] is True
        assert row["removals"] == 1
        assert row["graph_digest"] != old_session.stats.graph_digest
        new_session = registry.get("g")
        assert new_session is not old_session
        cold = EstimationSession.build(new_session.graph.copy(), CONFIG)
        assert np.array_equal(
            new_session.catalog.frequency_vector(),
            cold.catalog.frequency_vector(),
        )
        assert registry.stats.updates == 1
        assert registry.session_count() == 1  # old entry retired

    def test_old_session_usable_while_update_swaps(self):
        from repro.graph.delta import GraphDelta

        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", graph=_graph(32))
        old_session = registry.get("g")
        before = old_session.catalog.frequency_vector().copy()
        edge = next(iter(old_session.graph.edges()))
        registry.update_graph("g", GraphDelta(removals=[tuple(edge)]))
        # References handed out before the swap keep answering against the
        # pre-delta snapshot.
        import numpy as np

        assert np.array_equal(old_session.catalog.frequency_vector(), before)
        assert old_session.estimate_batch(["1", "2"]).shape == (2,)

    def test_update_unbuilt_name_pins_mutated_graph(self):
        from repro.graph.delta import GraphDelta

        graph = _graph(33)
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", graph=graph.copy())
        edge = next(iter(graph.edges()))
        row = registry.update_graph("g", GraphDelta(removals=[tuple(edge)]))
        assert row["built"] is False
        assert row["removals"] == 1
        # Lazy build afterwards sees the post-delta graph.
        session = registry.get("g")
        assert registry.stats.builds == 1
        assert (
            session.true_selectivity(edge.label)
            == graph.label_edge_count(edge.label) - 1
        )

    def test_update_file_backed_source_survives_rebuild(self, tmp_path):
        from repro.graph.delta import GraphDelta
        from repro.graph.io import write_edge_list

        graph = _graph(34)
        target = tmp_path / "graph.tsv"
        write_edge_list(graph, target)
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("file", path=target)
        built = registry.get("file")
        edge = next(iter(built.graph.edges()))
        delta = GraphDelta(removals=[(str(edge.source), edge.label, str(edge.target))])
        registry.update_graph("file", delta)
        updated = registry.get("file")
        # Evict and rebuild: the pinned in-memory graph (not the stale file)
        # must be the source, so the delta survives.
        registry.evict("file")
        rebuilt = registry.get("file")
        import numpy as np

        assert np.array_equal(
            rebuilt.catalog.frequency_vector(),
            updated.catalog.frequency_vector(),
        )

    def test_update_keeps_shared_session_for_sibling_names(self):
        import numpy as np

        from repro.graph.delta import GraphDelta

        graph = _graph(36)
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("a", graph=graph)
        registry.register("b", graph=graph)
        shared = registry.get("a")
        assert registry.get("b") is shared  # one session for both names
        snapshot = shared.catalog.frequency_vector().copy()
        edge_count = graph.edge_count
        edge = next(iter(shared.graph.edges()))
        registry.update_graph("a", GraphDelta(removals=[tuple(edge)]))
        # "b" was never updated: it must keep its consistent pre-delta
        # session, and the shared (operator-owned) graph object must not be
        # mutated under it — the update worked on a private copy.
        assert registry.get("b") is shared
        assert np.array_equal(shared.catalog.frequency_vector(), snapshot)
        assert graph.edge_count == edge_count
        updated = registry.get("a")
        assert updated is not shared
        assert updated.graph.edge_count == edge_count - 1
        assert registry.session_count() == 2

    def test_update_sibling_registered_object_not_mutated(self):
        from repro.graph.delta import GraphDelta

        ga = _graph(38)
        gb = _graph(38)  # byte-identical, distinct object
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("a", graph=ga)
        registry.register("b", graph=gb)
        shared = registry.get("a")  # retains ga
        assert registry.get("b") is shared
        edge = next(iter(shared.graph.edges()))
        registry.update_graph("b", GraphDelta(removals=[tuple(edge)]))
        # Neither operator-owned object changed: "b"'s update ran on a copy
        # because the session's retained graph is "a"'s registered object.
        assert ga.edge_count == gb.edge_count == _graph(38).edge_count
        assert registry.get("b").graph.edge_count == ga.edge_count - 1

    def test_update_noop_removal_with_unknown_label_is_clean(self):
        from repro.graph.delta import GraphDelta

        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", graph=_graph(37))
        session = registry.get("g")
        edge = next(iter(session.graph.edges()))
        delta = GraphDelta(
            additions=[(edge.source, edge.label, "brand-new-vertex")],
            removals=[("u", "no-such-label", "v")],
        )
        row = registry.update_graph("g", delta)
        assert row["built"] is True
        assert row["removals"] == 0
        assert registry.get("g").estimate_batch(["1", "2"]).shape == (2,)

    def test_update_unknown_name_raises(self):
        from repro.graph.delta import GraphDelta

        registry = SessionRegistry(default_config=CONFIG)
        with pytest.raises(UnknownGraphError):
            registry.update_graph("missing", GraphDelta())

    def test_update_counters_in_as_row(self):
        from repro.graph.delta import GraphDelta

        registry = SessionRegistry(default_config=CONFIG)
        registry.register("g", graph=_graph(35))
        session = registry.get("g")
        edge = next(iter(session.graph.edges()))
        registry.update_graph("g", GraphDelta(removals=[tuple(edge)]))
        row = registry.as_row()
        assert row["updates"] == 1
        assert row["update_seconds_total"] > 0


class TestStats:
    def test_as_row_merges_counters_and_state(self):
        registry = SessionRegistry(default_config=CONFIG)
        registry.register("a", graph=_graph(1))
        registry.get("a")
        registry.get("a")
        row = registry.as_row()
        assert row["graphs_registered"] == 1
        assert row["sessions_resident"] == 1
        assert row["builds"] == 1
        assert row["hits"] >= 1
        assert row["sessions_bytes"] > 0


def test_unknown_graph_error_message_has_no_stray_quotes():
    from repro.exceptions import UnknownGraphError

    message = str(UnknownGraphError("g", ("a", "b")))
    assert message == "unknown graph: 'g' (registered: a, b)"
