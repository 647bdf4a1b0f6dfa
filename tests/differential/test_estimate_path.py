"""Differential tests for the estimate path: one route against its slow twins.

Every batch estimate goes string → canonical domain index → ordering rank →
bucket lookup.  Over small random graphs, both catalog storages and every
paper ordering, each fast step must equal the per-path form it replaced:

* ``EstimationSession.estimate_batch`` equals a per-path
  :class:`~repro.estimation.estimator.PathSelectivityEstimator` exactly;
* ``EstimationSession.positions`` equals ``ordering.index`` per path;
* ``paths_to_domain_indices`` equals the scalar ``path_to_domain_index``;
* unknown, empty and over-length paths raise the same exception class on
  dense and sparse sessions.

Inputs mix plain strings, :class:`LabelPath` objects and whitespace
spellings (which the parser strips).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, EstimationSession
from repro.estimation.estimator import PathSelectivityEstimator
from repro.graph.generators import erdos_renyi_graph, zipf_labeled_graph
from repro.ordering.registry import PAPER_ORDERINGS
from repro.paths.index import path_to_domain_index, paths_to_domain_indices
from repro.paths.label_path import SEPARATOR, LabelPath

STORAGES = ("dense", "sparse")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw):
    """A small seeded Erdős–Rényi or Zipf-labelled graph and its ``k``."""
    label_count = draw(st.integers(min_value=2, max_value=5))
    vertex_count = draw(st.integers(min_value=6, max_value=24))
    edge_count = draw(st.integers(min_value=label_count, max_value=3 * vertex_count))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        graph = erdos_renyi_graph(vertex_count, edge_count, label_count, seed=seed)
    else:
        graph = zipf_labeled_graph(vertex_count, edge_count, label_count, seed=seed)
    return graph, draw(st.integers(min_value=1, max_value=3))


@st.composite
def spellings(draw, labels, max_length):
    """One valid path over ``labels``: a string, a LabelPath or padded text."""
    length = draw(st.integers(min_value=1, max_value=max_length))
    path = [draw(st.sampled_from(labels)) for _ in range(length)]
    form = draw(st.sampled_from(("str", "label_path", "padded")))
    if form == "label_path":
        return LabelPath(path)
    text = SEPARATOR.join(path)
    if form == "padded":
        text = draw(st.sampled_from((" ", "\t", "\n"))) + text + " "
    return text


def _sessions(graph, max_length, ordering):
    return [
        EstimationSession.build(
            graph,
            EngineConfig(
                max_length=max_length,
                ordering=ordering,
                storage=storage,
                bucket_count=8,
            ),
        )
        for storage in STORAGES
    ]


@SETTINGS
@given(data=st.data(), drawn=graphs(), ordering=st.sampled_from(PAPER_ORDERINGS))
def test_batch_equals_per_path(data, drawn, ordering):
    graph, max_length = drawn
    sessions = _sessions(graph, max_length, ordering)
    labels = sorted(sessions[0].catalog.labels)
    paths = data.draw(
        st.lists(spellings(labels, max_length), min_size=1, max_size=40)
    )

    expected_indices = [path_to_domain_index(path, labels) for path in paths]
    indices = paths_to_domain_indices(paths, labels, max_length=max_length)
    assert indices.dtype == np.int64
    assert indices.tolist() == expected_indices

    estimates = []
    for session in sessions:
        ordering_ = session.ordering
        assert session.positions(paths).tolist() == [
            ordering_.index(path) for path in paths
        ]
        assert session.position(paths[0]) == ordering_.index(paths[0])
        per_path = PathSelectivityEstimator(session.histogram)
        batch = session.estimate_batch(paths)
        assert np.array_equal(batch, [per_path.estimate(path) for path in paths])
        assert np.array_equal(session.histogram.estimate_batch(paths), batch)
        estimates.append(batch)
    dense, sparse = estimates
    assert np.array_equal(dense, sparse)


@SETTINGS
@given(data=st.data(), drawn=graphs(), ordering=st.sampled_from(PAPER_ORDERINGS))
def test_invalid_paths_raise_alike_on_both_storages(data, drawn, ordering):
    graph, max_length = drawn
    sessions = _sessions(graph, max_length, ordering)
    labels = sorted(sessions[0].catalog.labels)
    valid = SEPARATOR.join(labels[:1] * max_length)
    invalid = data.draw(
        st.sampled_from(
            (
                "unknown-label",
                f"{labels[0]}{SEPARATOR}unknown-label",
                "",
                "   ",
                f"{labels[0]}{SEPARATOR}{SEPARATOR}{labels[0]}",
                SEPARATOR.join(labels[:1] * (max_length + 1)),
                LabelPath(labels[:1] * (max_length + 1)),
                7,
            )
        )
    )
    batch = [valid, invalid, valid]
    raised = []
    for session in sessions:
        with pytest.raises(Exception) as batch_error:
            session.estimate_batch(batch)
        with pytest.raises(Exception) as scalar_error:
            session.position(invalid)
        assert batch_error.type is scalar_error.type
        raised.append(batch_error.type)
    with pytest.raises(Exception) as parser_error:
        paths_to_domain_indices(batch, labels, max_length=max_length)
    assert raised == [parser_error.type] * len(STORAGES)
