"""Enumeration of the label-path domain ``Lk`` and exact catalog construction.

``Lk`` is the set of all label paths over the alphabet ``L`` with length up to
``k`` (Section 2 of the paper); its size is ``|L| + |L|² + ... + |L|^k``.
This module enumerates ``Lk`` and — more importantly — computes the true
selectivity ``f(ℓ)`` of *every* path in ``Lk``, which is what makes building
the full catalog for ``k = 6`` feasible.

Every catalog build runs one kernel, :func:`_matrix_subtrees_nonzeros`: a
level-synchronous matrix chain over the label-path trie.  All live prefix
products of a level are vertically stacked into one boolean CSR frontier,
extended by each label in one scipy call, and reduced to per-prefix path
counts with ``indptr`` arithmetic — ``k · |L|`` products instead of one per
trie node.  Four entry points share it:

* :func:`compute_selectivity_nonzeros` — the strictly-positive
  selectivities as aligned ``(domain indices, counts)`` ``int64`` arrays in
  canonical numerical-alphabetical order, in O(nnz) memory.  Zero subtrees
  are never materialised, which is what lets domains whose dense vector
  would not fit (``|L|=20, k=6`` is 64M entries) build at all.
* :func:`compute_selectivity_vector` — the same counts scattered into an
  index-aligned ``int64`` vector over the whole domain (see
  :mod:`repro.paths.index`).
* :func:`update_selectivity_vector` / :func:`update_selectivity_nonzeros` —
  delta updates that re-run the kernel on the affected first-label subtrees
  only and splice the result into the old catalog.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import PathError
from repro.graph.delta import GraphDelta, affected_first_labels
from repro.graph.digraph import LabeledDiGraph
from repro.graph.matrices import LabelMatrixStore, block_nonzero_counts, drop_zero_rows
from repro.obs import tracing
from repro.obs.metrics import BUILD_BUCKETS, Histogram
from repro.paths.index import domain_block_starts, domain_size
from repro.paths.label_path import LabelPath

_CATALOG_BUILD_SECONDS = Histogram(
    "repro_catalog_build_seconds",
    "Wall-clock seconds spent in a cold catalog core build.",
    buckets=BUILD_BUCKETS,
)

__all__ = [
    "domain_size",
    "enumerate_label_paths",
    "check_backend",
    "compute_selectivity_vector",
    "compute_selectivity_nonzeros",
    "update_selectivity_vector",
    "update_selectivity_nonzeros",
    "subtree_level_ranges",
]

#: Frontier rows multiplied per product at the last level.  That level needs
#: only per-block counts, so slicing bounds the live product to this many
#: rows instead of the whole stacked frontier.
_LAST_LEVEL_SLICE_ROWS = 16384


def enumerate_label_paths(
    labels: Sequence[str], max_length: int
) -> Iterator[LabelPath]:
    """Yield every label path of length ``1..max_length`` over ``labels``.

    Paths are yielded in *numerical-alphabetical* order: shorter paths first,
    ties broken by the alphabetical order of ``labels`` position by position.
    This is the paper's native domain order, the baseline the orderings are
    compared against, and the order of the columnar catalog's frequency
    vector (path ``i`` of this enumeration sits at vector position ``i``).
    """
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    ordered_labels = sorted(labels)
    if not ordered_labels:
        raise PathError("the label alphabet must not be empty")
    for length in range(1, max_length + 1):
        for combo in itertools.product(ordered_labels, repeat=length):
            yield LabelPath(combo)


def check_backend(backend: Optional[str]) -> None:
    """Accept a ``backend`` argument only if it is ``None`` or ``"matrix"``.

    Every build runs the matrix-chain kernel; the argument is kept so
    callers that name the kernel explicitly keep working.
    """
    if backend is not None and backend != "matrix":
        raise PathError(
            f"unknown backend {backend!r}; the only catalog backend is 'matrix'"
        )


# ----------------------------------------------------------------------
# the construction kernel
# ----------------------------------------------------------------------
def _last_level_counts(
    frontier: sparse.csr_matrix, matrix: sparse.csr_matrix, block_ptr: np.ndarray
) -> np.ndarray:
    """Per-block nonzero counts of ``frontier @ matrix``, in row slices.

    Only per-row counts of each slice's product are kept; their running sum
    is the ``indptr`` the full product would have, so the block counts fall
    out of the same arithmetic as :func:`block_nonzero_counts`.
    """
    rows, columns = frontier.shape
    indptr = np.zeros(rows + 1, dtype=np.int64)
    for low in range(0, rows, _LAST_LEVEL_SLICE_ROWS):
        high = min(low + _LAST_LEVEL_SLICE_ROWS, rows)
        first, last = frontier.indptr[low], frontier.indptr[high]
        # A view of the slice's rows: no copy of the frontier's arrays.
        rows_slice = sparse.csr_matrix(
            (
                frontier.data[first:last],
                frontier.indices[first:last],
                frontier.indptr[low:high + 1] - first,
            ),
            shape=(high - low, columns),
        )
        product = rows_slice @ matrix
        indptr[low + 1:high + 1] = np.diff(product.indptr)
    np.cumsum(indptr, out=indptr)
    return np.diff(indptr[block_ptr])


def _stack_frontier(
    parts: list[sparse.csr_matrix], ends: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Stack ``parts`` into the next frontier, without its all-zero rows.

    ``ends`` are the live blocks' end rows in the stacked parts.  Dead
    blocks hold only zero rows, so once those are dropped the live blocks
    are contiguous and their new end rows are the nonzero-row counts up to
    ``ends`` — the returned ``block_ptr``.  ``parts`` is emptied as soon as
    it is stacked, so its memory is free before the rows are compressed.
    """
    stacked = sparse.vstack(parts, format="csr")
    parts.clear()
    nonzero_rows = np.concatenate(([0], np.cumsum(np.diff(stacked.indptr) > 0)))
    block_ptr = np.concatenate(([0], nonzero_rows[ends])).astype(np.int64)
    return drop_zero_rows(stacked), block_ptr


def _matrix_subtrees_nonzeros(
    matrices: Mapping[str, sparse.csr_matrix],
    alphabet: Sequence[str],
    roots: Sequence[str],
    max_length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero selectivities of the ``roots`` subtrees via stacked matrix chains.

    Returns sorted ``int64`` canonical domain indices of every path that
    starts with a label in ``roots`` and has ``f(ℓ) > 0``, with their
    counts.  Every live prefix product of level ``m`` — across all requested
    subtrees — is kept as a block of one vertically stacked boolean CSR
    ``frontier``; extending the whole level by a label is a single
    ``frontier @ M(label)`` product, and the per-prefix path counts are
    ``indptr`` differences at the block boundaries
    (:func:`~repro.graph.matrices.block_nonzero_counts`).  A block's *code*
    is the base-``|L|`` number its labels spell, so its domain index is the
    start of its length block plus its code.

    Memory follows the live frontier: blocks whose product is empty are
    dropped (zero-subtree pruning), all-zero rows are compressed away
    between levels (:func:`_stack_frontier`), the old frontier is released
    before the next one is stacked, and the last level — which needs only
    counts — is multiplied in row slices of ``_LAST_LEVEL_SLICE_ROWS``.
    Labels the frontier cannot reach are skipped without a product.
    """
    base = len(alphabet)
    digit_of = {label: digit for digit, label in enumerate(alphabet)}
    starts = domain_block_starts(base, max_length)
    # Vertices with an outgoing edge per label: a product whose frontier
    # reaches none of them is empty.
    sources = {
        label: np.flatnonzero(np.diff(matrices[label].indptr)) for label in alphabet
    }

    # Level 0: the root matrices themselves seed the frontier, one block per
    # root whose adjacency matrix has any edge at all.
    seeds = [
        root for root in sorted(roots, key=digit_of.__getitem__) if matrices[root].nnz
    ]
    if not seeds:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    block_code = np.asarray([digit_of[root] for root in seeds], dtype=np.int64)
    index_chunks = [block_code]
    count_chunks = [np.asarray([matrices[root].nnz for root in seeds], dtype=np.int64)]
    rows = matrices[seeds[0]].shape[0]
    frontier, block_ptr = _stack_frontier(
        [matrices[root] for root in seeds], rows * np.arange(1, len(seeds) + 1)
    )

    for length in range(1, max_length):
        last = length + 1 == max_length
        parts: list[sparse.csr_matrix] = []
        ends: list[np.ndarray] = []
        child_codes: list[np.ndarray] = []
        child_counts: list[np.ndarray] = []
        reached = np.zeros(frontier.shape[1], dtype=bool)
        reached[frontier.indices] = True
        for digit, label in enumerate(alphabet):
            if not reached[sources[label]].any():
                continue
            if last:
                counts = _last_level_counts(frontier, matrices[label], block_ptr)
            else:
                product = frontier @ matrices[label]
                counts = block_nonzero_counts(product, block_ptr)
            alive = np.flatnonzero(counts)
            if alive.size == 0:
                continue
            child_codes.append(block_code[alive] * base + digit)
            child_counts.append(counts[alive])
            if not last:
                ends.append(len(parts) * frontier.shape[0] + block_ptr[alive + 1])
                parts.append(product)
        product = frontier = None
        if not child_codes:
            break
        block_code = np.concatenate(child_codes)
        level_counts = np.concatenate(child_counts)
        order = np.argsort(block_code)
        index_chunks.append(starts[length] + block_code[order])
        count_chunks.append(level_counts[order])
        if last:
            break
        frontier, block_ptr = _stack_frontier(parts, np.concatenate(ends))
    return np.concatenate(index_chunks), np.concatenate(count_chunks)


def _alphabet(
    graph: LabeledDiGraph, labels: Optional[Sequence[str]], max_length: int
) -> tuple[str, ...]:
    """Validate ``max_length`` and resolve the sorted label alphabet."""
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    alphabet = tuple(sorted(labels) if labels is not None else graph.labels())
    if not alphabet:
        raise PathError("the graph has no edge labels to enumerate")
    return alphabet


def _subtree_nonzeros(
    graph: LabeledDiGraph,
    alphabet: Sequence[str],
    roots: Sequence[str],
    max_length: int,
    store: Optional[LabelMatrixStore],
) -> tuple[np.ndarray, np.ndarray]:
    """Run the kernel on the ``roots`` subtrees of ``graph``."""
    unknown = sorted(set(roots) - set(alphabet))
    if unknown:
        raise PathError(f"roots outside the label alphabet: {', '.join(unknown)}")
    matrix_store = store if store is not None else LabelMatrixStore(graph, labels=alphabet)
    matrices = matrix_store.as_dict(alphabet)
    return _matrix_subtrees_nonzeros(matrices, alphabet, roots, max_length)


def _observe_build(span: str, started: float, label_count: int) -> None:
    """Record one cold build in the build-time metric and the current trace."""
    elapsed = time.perf_counter() - started
    _CATALOG_BUILD_SECONDS.observe(elapsed)
    trace = tracing.current_trace()
    if trace is not None:
        trace.add_span(span, elapsed, labels=label_count)


def compute_selectivity_nonzeros(
    graph: LabeledDiGraph,
    max_length: int,
    *,
    labels: Optional[Sequence[str]] = None,
    store: Optional[LabelMatrixStore] = None,
    backend: Optional[str] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the nonzero part of ``f`` over ``Lk`` as aligned sparse arrays.

    Returns ``(indices, counts)``: sorted ``int64`` canonical domain indices
    of every path with ``f(ℓ) > 0`` and their selectivities, i.e. exactly
    ``np.nonzero(v)[0]`` and ``v[np.nonzero(v)[0]]`` of the
    :func:`compute_selectivity_vector` output — computed in O(nnz) memory.

    ``labels`` restricts (or extends) the alphabet, ``store`` supplies
    prebuilt label matrices, and ``backend`` accepts only ``None`` or
    ``"matrix"`` (see :func:`check_backend`).
    """
    check_backend(backend)
    alphabet = _alphabet(graph, labels, max_length)
    started = time.perf_counter()
    result = _subtree_nonzeros(graph, alphabet, alphabet, max_length, store)
    _observe_build("catalog.nonzeros", started, len(alphabet))
    return result


def compute_selectivity_vector(
    graph: LabeledDiGraph,
    max_length: int,
    *,
    labels: Optional[Sequence[str]] = None,
    store: Optional[LabelMatrixStore] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Compute ``f(ℓ)`` for every ``ℓ ∈ Lk`` as an index-aligned vector.

    The returned ``int64`` array has ``|Lk|`` entries; position ``i`` holds
    the selectivity of the ``i``-th path of the canonical
    numerical-alphabetical enumeration (see
    :func:`repro.paths.index.path_to_domain_index`).  This is the columnar
    representation :class:`~repro.paths.catalog.SelectivityCatalog` stores
    and the V-optimal DP consumes directly.  Parameters are as in
    :func:`compute_selectivity_nonzeros`.
    """
    check_backend(backend)
    alphabet = _alphabet(graph, labels, max_length)
    started = time.perf_counter()
    indices, counts = _subtree_nonzeros(graph, alphabet, alphabet, max_length, store)
    vector = np.zeros(domain_size(len(alphabet), max_length), dtype=np.int64)
    vector[indices] = counts
    _observe_build("catalog.vector", started, len(alphabet))
    return vector


def subtree_level_ranges(
    label_count: int, max_length: int, first_digit: int
) -> list[tuple[int, int]]:
    """The half-open canonical index ranges one first-label subtree covers.

    One ``(low, high)`` range per path length: the length-``m + 1`` slice of
    the subtree rooted at the label with digit ``first_digit`` is
    ``[starts[m] + d·|L|^m, starts[m] + (d + 1)·|L|^m)``.  These are the
    exact ranges the sparse delta patch replaces.
    """
    starts = domain_block_starts(label_count, max_length)
    ranges: list[tuple[int, int]] = []
    for level_index in range(max_length):
        width = label_count**level_index
        low = int(starts[level_index]) + first_digit * width
        ranges.append((low, low + width))
    return ranges


def update_selectivity_nonzeros(
    graph: LabeledDiGraph,
    max_length: int,
    old_indices: np.ndarray,
    old_counts: np.ndarray,
    delta: GraphDelta,
    *,
    labels: Optional[Sequence[str]] = None,
    store: Optional[LabelMatrixStore] = None,
    backend: Optional[str] = None,
    affected: Optional[Sequence[str]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Patch sparse ``(indices, counts)`` arrays after ``delta``.

    The sparse counterpart of :func:`update_selectivity_vector`: only the
    first-label subtrees :func:`~repro.graph.delta.affected_first_labels`
    flags are re-evaluated (sparsely, on the post-delta ``graph``); every
    old entry outside the affected subtrees' index ranges is kept as is.
    The result equals a cold :func:`compute_selectivity_nonzeros` on the
    post-delta graph.  Caller contract (post-delta graph, stable alphabet,
    optional precomputed ``affected``) is as in
    :func:`update_selectivity_vector`.
    """
    check_backend(backend)
    alphabet = _alphabet(graph, labels, max_length)
    old_indices = np.ascontiguousarray(old_indices, dtype=np.int64)
    old_counts = np.ascontiguousarray(old_counts, dtype=np.int64)
    if old_indices.shape != old_counts.shape or old_indices.ndim != 1:
        raise PathError(
            "old indices and counts must be aligned one-dimensional arrays"
        )
    if affected is None:
        affected = affected_first_labels(graph, delta, max_length, labels=alphabet)
    if not affected:
        return old_indices.copy(), old_counts.copy()
    fresh_indices, fresh_counts = _subtree_nonzeros(
        graph, alphabet, affected, max_length, store
    )

    # Drop every retained entry that falls inside an affected subtree's
    # ranges, then merge the (disjoint) fresh entries back in sorted order.
    keep = np.ones(old_indices.size, dtype=bool)
    for label in affected:
        for low, high in subtree_level_ranges(
            len(alphabet), max_length, alphabet.index(label)
        ):
            first, last = np.searchsorted(old_indices, [low, high])
            keep[first:last] = False
    merged_indices = np.concatenate((old_indices[keep], fresh_indices))
    merged_counts = np.concatenate((old_counts[keep], fresh_counts))
    order = np.argsort(merged_indices, kind="stable")
    return merged_indices[order], merged_counts[order]


def update_selectivity_vector(
    graph: LabeledDiGraph,
    max_length: int,
    old_vector: np.ndarray,
    delta: GraphDelta,
    *,
    labels: Optional[Sequence[str]] = None,
    store: Optional[LabelMatrixStore] = None,
    backend: Optional[str] = None,
    affected: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Patch a frequency vector after ``delta`` without a full cold rebuild.

    ``graph`` must be the **post-delta** graph and ``old_vector`` the output
    of :func:`compute_selectivity_vector` for the pre-delta graph over the
    same ``labels`` alphabet and ``max_length``.  Only the first-label
    subtree slices that :func:`~repro.graph.delta.affected_first_labels`
    flags are re-evaluated — the kernel stacks just those subtrees — and
    every other slice is copied from ``old_vector``.  The result is
    byte-identical to a cold :func:`compute_selectivity_vector` on the
    post-delta graph.

    The caller is responsible for keeping the domain stable: when the delta
    changes the label *alphabet* (a new label appears, or ``labels`` no
    longer matches the graph), the canonical index space itself moves and
    the right answer is a cold rebuild —
    :meth:`~repro.paths.catalog.SelectivityCatalog.apply_delta` handles that
    fallback.  A delta label outside ``labels`` raises
    :class:`~repro.exceptions.GraphError`.

    Parameters are as in :func:`compute_selectivity_vector`.  ``affected``,
    when given, is a precomputed :func:`affected_first_labels` result for
    this exact (graph, delta, alphabet) — callers that already ran the
    analysis (the engine does, for its stats) pass it through so it is not
    recomputed; soundness is theirs to guarantee.
    """
    check_backend(backend)
    alphabet = _alphabet(graph, labels, max_length)
    expected = domain_size(len(alphabet), max_length)
    old_vector = np.asarray(old_vector)
    if old_vector.shape != (expected,):
        raise PathError(
            f"old vector has shape {old_vector.shape}, expected ({expected},) "
            f"for |L|={len(alphabet)}, k={max_length}"
        )
    if affected is None:
        affected = affected_first_labels(graph, delta, max_length, labels=alphabet)
    vector = np.array(old_vector, dtype=np.int64)
    if not affected:
        return vector
    indices, counts = _subtree_nonzeros(graph, alphabet, affected, max_length, store)
    # Clear the affected slices first: stale pre-delta counts must not
    # survive where a path's selectivity dropped to zero.
    for label in affected:
        for low, high in subtree_level_ranges(
            len(alphabet), max_length, alphabet.index(label)
        ):
            vector[low:high] = 0
    vector[indices] = counts
    return vector
