"""Path indexing: domain arithmetic and the materialised path index.

Two kinds of "index" live here:

* **Domain indexing** — the canonical bijection between label paths and the
  integer interval ``[0, |Lk|)`` in numerical-alphabetical order (shorter
  paths first, ties broken position by position over the sorted alphabet).
  A path is a base-``|L|`` number whose digits are label ranks, offset by the
  sizes of the shorter-length blocks.  The columnar
  :class:`~repro.paths.catalog.SelectivityCatalog` stores its frequency
  vector in exactly this order, so these functions are the only translation
  layer between :class:`LabelPath` objects and array positions.  Scalar and
  batch forms are provided; the batch ranking reads each path as a bijective
  base-``|L|`` numeral in one tokenising pass, and the batch unranking peels
  digits off with per-length vectorised arithmetic.

* **Materialised path indexing** — :class:`PathIndex`, the paper's substrate
  from Fletcher et al. (EDBT 2016 — reference [6]): for every label path up
  to a small length ``j`` the full result set ``ℓ(G)`` is stored so longer
  queries can be answered by joining indexed sub-paths.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.exceptions import PathError, UnknownLabelError
from repro.graph.digraph import LabeledDiGraph
from repro.paths.label_path import SEPARATOR, LabelPath, as_label_path

__all__ = [
    "PathIndex",
    "domain_block_starts",
    "domain_size",
    "path_to_domain_index",
    "domain_index_to_path",
    "paths_to_domain_indices",
    "domain_indices_to_paths",
    "canonical_digit_blocks",
]

PathLike = Union[str, LabelPath]
Pair = tuple[object, object]


# ----------------------------------------------------------------------
# domain arithmetic (canonical numerical-alphabetical order)
# ----------------------------------------------------------------------
def domain_block_starts(label_count: int, max_length: int) -> np.ndarray:
    """Start index of every path-length block of the canonical domain order.

    Returns an ``int64`` array ``starts`` of ``max_length + 1`` entries where
    ``starts[m]`` is the domain index of the first path of length ``m + 1``
    (so ``starts[0] == 0``) and ``starts[max_length]`` equals ``|Lk|``.
    """
    if label_count < 1:
        raise PathError("label_count must be >= 1")
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    sizes = label_count ** np.arange(1, max_length + 1, dtype=np.int64)
    return np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(sizes)))


def domain_size(label_count: int, max_length: int) -> int:
    """The size ``|Lk| = Σ_{i=1..k} |L|^i`` of the label-path domain."""
    if label_count < 1:
        raise PathError("label_count must be >= 1")
    if max_length < 1:
        raise PathError("max_length must be >= 1")
    if label_count == 1:
        return max_length
    return (label_count ** (max_length + 1) - label_count) // (label_count - 1)


def _rank_of(alphabet: Sequence[str]) -> dict[str, int]:
    """Label -> digit map over the *sorted* canonical alphabet."""
    ordered = sorted(alphabet)
    if not ordered:
        raise PathError("the label alphabet must not be empty")
    return {label: digit for digit, label in enumerate(ordered)}


def path_to_domain_index(path: PathLike, alphabet: Sequence[str]) -> int:
    """Domain index of ``path`` in the canonical numerical-alphabetical order.

    The index is ``starts[len - 1] + Σ digit_j · |L|^(len - 1 - j)`` where
    the digits are the positions of the path's labels in the sorted alphabet.
    Raises :class:`UnknownLabelError` for labels outside the alphabet.
    """
    label_path = as_label_path(path)
    rank_of = _rank_of(alphabet)
    base = len(rank_of)
    value = 0
    for label in label_path:
        digit = rank_of.get(label)
        if digit is None:
            raise UnknownLabelError(label)
        value = value * base + digit
    offset = sum(base**i for i in range(1, label_path.length))
    return offset + value


def domain_index_to_path(index: int, alphabet: Sequence[str]) -> LabelPath:
    """The label path at canonical domain ``index`` (inverse of ranking)."""
    if index < 0:
        raise PathError(f"domain index must be >= 0, got {index}")
    ordered = sorted(alphabet)
    if not ordered:
        raise PathError("the label alphabet must not be empty")
    base = len(ordered)
    length = 1
    remaining = int(index)
    while remaining >= base**length:
        remaining -= base**length
        length += 1
    digits = [0] * length
    for position in range(length - 1, -1, -1):
        digits[position] = remaining % base
        remaining //= base
    return LabelPath(ordered[digit] for digit in digits)


def paths_to_domain_indices(
    paths: Sequence[PathLike],
    alphabet: Sequence[str],
    *,
    max_length: Optional[int] = None,
) -> np.ndarray:
    """Canonical domain indices of a batch of paths, in input order.

    A path's canonical index is the path read as a *bijective* base-``|L|``
    numeral — digits ``1..|L|`` over the sorted alphabet — minus one: the
    length-block offsets fall out of the bijective digits, so one Horner
    loop over one ``str.split`` resolves any length with plain ints and no
    per-call numpy set-up.  ``max_length``, when given, rejects longer paths
    with :class:`PathError` (the catalog uses this to refuse out-of-domain
    queries); a path of length ``m > k`` reads as at least ``|Lk| + 1``, so
    one comparison of the batch maximum against ``|Lk|`` covers them all.

    Anything the single pass does not recognise — an unknown or empty label,
    a whitespace spelling, an input that is neither ``str`` nor
    :class:`LabelPath`, an over-length path — sends the whole batch through
    the checked per-path parser, which answers valid spellings and raises
    the first invalid path's exact exception.
    """
    digit_of, base, bound = _tokeniser(tuple(alphabet), max_length)
    out: list[int] = []
    append = out.append
    try:
        for path in paths:
            value = 0
            for label in path.split(SEPARATOR) if type(path) is str else _labels(path):
                value = value * base + digit_of[label]
            append(value - 1)
    except KeyError:
        return _parse_domain_indices(paths, alphabet, max_length)
    if out and bound is not None and max(out) >= bound:
        return _parse_domain_indices(paths, alphabet, max_length)
    return np.array(out, dtype=np.int64)


def _labels(path: object) -> tuple[str, ...]:
    """A :class:`LabelPath`'s labels; any other non-``str`` input is a miss."""
    if type(path) is LabelPath:
        return path.labels
    raise KeyError(path)


@lru_cache(maxsize=64)
def _tokeniser(
    alphabet: tuple[str, ...], max_length: Optional[int]
) -> tuple[dict[str, int], int, Optional[int]]:
    """Label -> bijective digit (``1..|L|``) map, the base ``|L|`` and ``|Lk|``.

    Labels with surrounding whitespace are left out of the map: a path
    using one is then always handed to the parser, whose ``strip`` would
    otherwise change what such a path means.  ``|Lk|`` is ``None`` without
    a ``max_length``.
    """
    rank_of = _rank_of(alphabet)
    digit_of = {
        label: digit + 1 for label, digit in rank_of.items() if label == label.strip()
    }
    base = len(rank_of)
    bound = None if max_length is None else domain_size(base, max_length)
    return digit_of, base, bound


def _parse_domain_indices(
    paths: Sequence[PathLike], alphabet: Sequence[str], max_length: Optional[int]
) -> np.ndarray:
    """The checked per-path form of :func:`paths_to_domain_indices`.

    Parses every path into a :class:`LabelPath` and raises on the first
    invalid one, in input order: the parser's own error, then
    :class:`PathError` past ``max_length``, then :class:`UnknownLabelError`.
    """
    out: list[int] = []
    for path in paths:
        label_path = as_label_path(path)
        if max_length is not None and label_path.length > max_length:
            raise PathError(
                f"path {label_path} longer than max_length={max_length}"
            )
        out.append(path_to_domain_index(label_path, alphabet))
    return np.array(out, dtype=np.int64)


def domain_indices_to_paths(
    indices: Sequence[int], alphabet: Sequence[str], max_length: int
) -> list[LabelPath]:
    """Label paths at a batch of canonical domain indices (vectorised unrank).

    The digits of every index are peeled off with vectorised modular
    arithmetic through :func:`canonical_digit_blocks`, one length group at a
    time, and the paths are assembled through the unchecked
    ``LabelPath`` fast path (the labels come from the validated alphabet).
    Indices outside ``[0, |Lk|)`` raise :class:`PathError`.
    """
    ordered = sorted(alphabet)
    if not ordered:
        raise PathError("the label alphabet must not be empty")
    index_array = np.asarray(indices, dtype=np.int64)
    if index_array.size == 0:
        return []
    label_array = np.asarray(ordered, dtype=object)
    out: list[Optional[LabelPath]] = [None] * index_array.size
    for _, positions, digits in canonical_digit_blocks(
        len(ordered), max_length, index_array
    ):
        rows = label_array[digits]
        for position, row in zip(positions.tolist(), rows):
            out[position] = LabelPath._from_validated(tuple(row))
    return out  # type: ignore[return-value]


def canonical_digit_blocks(
    label_count: int,
    max_length: int,
    indices: Optional[np.ndarray] = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Decompose canonical domain indices into per-length digit matrices.

    Yields ``(length, positions, digits)`` groups: ``positions`` are the
    positions of the group's members in the input (for ``indices=None`` — the
    full domain in canonical order — they are the contiguous block indices
    themselves), and ``digits`` is the ``(len(positions), length)`` ``int64``
    matrix of base-``|L|`` digits over the *sorted* alphabet, most significant
    digit first.  This is the shared substrate of the orderings' vectorised
    ``index_array`` implementations: every ordering rule is a closed-form
    function of these digits.
    """
    starts = domain_block_starts(label_count, max_length)
    if indices is None:
        for length in range(1, max_length + 1):
            block = label_count**length
            positions = np.arange(starts[length - 1], starts[length], dtype=np.int64)
            remaining = np.arange(block, dtype=np.int64)
            digits = np.empty((block, length), dtype=np.int64)
            for position in range(length - 1, -1, -1):
                digits[:, position] = remaining % label_count
                remaining //= label_count
            yield length, positions, digits
        return
    index_array = np.asarray(indices, dtype=np.int64)
    if index_array.size == 0:
        return
    if index_array.min(initial=0) < 0 or index_array.max(initial=0) >= starts[-1]:
        raise PathError(
            f"domain index out of range [0, {int(starts[-1])}) for "
            f"|L|={label_count}, k={max_length}"
        )
    lengths = np.searchsorted(starts, index_array, side="right")
    for length in np.unique(lengths):
        member = np.nonzero(lengths == length)[0]
        remaining = index_array[member] - starts[length - 1]
        digits = np.empty((member.size, int(length)), dtype=np.int64)
        for position in range(int(length) - 1, -1, -1):
            digits[:, position] = remaining % label_count
            remaining //= label_count
        yield int(length), member, digits


class PathIndex:
    """Materialised ``ℓ(G)`` pair sets for every label path with ``|ℓ| ≤ j``.

    Parameters
    ----------
    graph:
        The graph to index (snapshotted at construction time).
    max_length:
        The indexing depth ``j``.  Memory grows with
        ``Σ_m |L|^m · avg(|ℓ(G)|)``; typical deployments keep ``j ≤ 3``.
    labels:
        Optional restriction of the label alphabet.
    prune_empty:
        When ``True`` (default) paths with an empty result are not stored
        (lookups still answer them — with the empty set).
    """

    def __init__(
        self,
        graph: LabeledDiGraph,
        max_length: int,
        *,
        labels: Optional[Sequence[str]] = None,
        prune_empty: bool = True,
    ) -> None:
        if max_length < 1:
            raise PathError("max_length must be >= 1")
        self._graph = graph
        self._max_length = max_length
        self._labels = tuple(sorted(labels) if labels is not None else graph.labels())
        self._prune_empty = prune_empty
        self._pairs: dict[LabelPath, frozenset[Pair]] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        # Length 1: straight from the per-label edge sets.
        previous_level: dict[LabelPath, frozenset[Pair]] = {}
        for label in self._labels:
            pairs = frozenset(
                (edge.source, edge.target) for edge in self._graph.edges_with_label(label)
            )
            path = LabelPath.single(label)
            previous_level[path] = pairs
            if pairs or not self._prune_empty:
                self._pairs[path] = pairs
        # Length m: extend every length m-1 result by one label via hash join.
        for _ in range(2, self._max_length + 1):
            current_level: dict[LabelPath, frozenset[Pair]] = {}
            for prefix_path, prefix_pairs in previous_level.items():
                if not prefix_pairs:
                    continue
                by_target: dict[object, list[object]] = {}
                for source, target in prefix_pairs:
                    by_target.setdefault(target, []).append(source)
                for label in self._labels:
                    extended: set[Pair] = set()
                    adjacency = (
                        self._graph.forward_adjacency(label)
                        if self._graph.has_label(label)
                        else {}
                    )
                    for middle, sources in by_target.items():
                        for end in adjacency.get(middle, ()):
                            for source in sources:
                                extended.add((source, end))
                    path = prefix_path.concat(label)
                    pairs = frozenset(extended)
                    current_level[path] = pairs
                    if pairs or not self._prune_empty:
                        self._pairs[path] = pairs
            previous_level = current_level

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def max_length(self) -> int:
        """The indexing depth ``j``."""
        return self._max_length

    @property
    def labels(self) -> tuple[str, ...]:
        """The indexed label alphabet."""
        return self._labels

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, path: object) -> bool:
        if isinstance(path, (str, LabelPath)):
            return as_label_path(path) in self._pairs
        return False

    def indexed_paths(self) -> Iterator[LabelPath]:
        """Iterate over the stored (non-pruned) paths."""
        return iter(self._pairs)

    def pairs(self, path: PathLike) -> frozenset[Pair]:
        """The indexed pair set ``ℓ(G)`` of a path with ``|ℓ| ≤ j``."""
        label_path = as_label_path(path)
        if label_path.length > self._max_length:
            raise PathError(
                f"path {label_path} longer than the index depth j={self._max_length}"
            )
        return self._pairs.get(label_path, frozenset())

    def selectivity(self, path: PathLike) -> int:
        """``f(ℓ)`` for an indexed path."""
        return len(self.pairs(path))

    def total_stored_pairs(self) -> int:
        """Total number of stored pairs (the index's memory footprint driver)."""
        return sum(len(pairs) for pairs in self._pairs.values())

    # ------------------------------------------------------------------
    # evaluation of longer paths via the index
    # ------------------------------------------------------------------
    def evaluate(self, path: PathLike) -> set[Pair]:
        """Evaluate a path of *any* length by joining indexed sub-paths.

        The path is split greedily into chunks of at most ``j`` labels; the
        chunks' indexed pair sets are hash-joined left to right.  For paths
        with ``|ℓ| ≤ j`` this is a single lookup.
        """
        label_path = as_label_path(path)
        chunks: list[LabelPath] = []
        labels = label_path.labels
        for start in range(0, len(labels), self._max_length):
            chunks.append(LabelPath(labels[start:start + self._max_length]))
        result: Optional[set[Pair]] = None
        for chunk in chunks:
            chunk_pairs = self.pairs(chunk)
            if result is None:
                result = set(chunk_pairs)
                continue
            by_source: dict[object, list[object]] = {}
            for source, target in chunk_pairs:
                by_source.setdefault(source, []).append(target)
            joined: set[Pair] = set()
            for source, middle in result:
                for end in by_source.get(middle, ()):
                    joined.add((source, end))
            result = joined
            if not result:
                break
        return result if result is not None else set()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<PathIndex j={self._max_length} |L|={len(self._labels)} "
            f"stored_paths={len(self._pairs)} stored_pairs={self.total_stored_pairs()}>"
        )
