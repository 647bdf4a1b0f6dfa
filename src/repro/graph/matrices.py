"""Per-label boolean adjacency matrices.

Label-path evaluation reduces to boolean sparse matrix products: the pairs
connected by the path ``l1/l2/.../lk`` are exactly the non-zeros of
``M(l1) · M(l2) · ... · M(lk)`` where ``M(l)`` is the boolean adjacency matrix
of label ``l``.  :class:`LabelMatrixStore` materialises and caches those
per-label matrices (scipy CSR, boolean) for a fixed graph so the evaluator
and the catalog builder can share them.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy import sparse

from repro.exceptions import UnknownLabelError
from repro.graph.digraph import LabeledDiGraph

__all__ = ["LabelMatrixStore", "drop_zero_rows", "block_nonzero_counts"]


def drop_zero_rows(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Return ``matrix`` restricted to its rows with at least one stored entry.

    A zero row of a boolean reachability block stays zero under any further
    right-multiplication, and the path counts the matrix-chain builder emits
    are row-position independent (each count is a block's total nnz), so
    dropping empty rows between levels is loss-free.  It is also the main
    reason stacked frontiers stay small: dead source vertices stop paying
    for ``indptr`` space in every later product.  Returns ``matrix`` itself
    when every row is nonzero; otherwise the result shares ``matrix``'s
    ``data`` and ``indices`` arrays and only rebuilds ``indptr``.
    """
    keep = np.flatnonzero(np.diff(matrix.indptr))
    if keep.size == matrix.shape[0]:
        return matrix
    # Dropped rows hold no entries, so the kept rows' entries are already
    # contiguous: only their end pointers survive.
    indptr = np.concatenate((matrix.indptr[:1], matrix.indptr[keep + 1]))
    return sparse.csr_matrix(
        (matrix.data, matrix.indices, indptr), shape=(keep.size, matrix.shape[1])
    )


def block_nonzero_counts(
    matrix: sparse.csr_matrix, block_ptr: np.ndarray
) -> np.ndarray:
    """Per-block stored-entry counts of a vertically stacked CSR matrix.

    ``block_ptr`` delimits the stacked blocks as row offsets
    (``block_ptr[b]:block_ptr[b + 1]`` is block ``b``); the count of block
    ``b`` is then a difference of two ``indptr`` entries, so the whole
    reduction is one fancy-index plus one :func:`numpy.diff` — no per-block
    Python loop.  For boolean products this count *is* the path selectivity
    of the prefix the block represents.
    """
    return np.diff(matrix.indptr[block_ptr]).astype(np.int64)


class LabelMatrixStore:
    """Boolean adjacency matrices of a :class:`LabeledDiGraph`, one per label.

    The store snapshots the graph at construction time: later mutations of the
    graph are not reflected.  Matrices are built lazily on first access and
    cached.

    Parameters
    ----------
    graph:
        The graph to snapshot.
    labels:
        Optional restriction of the label set; defaults to all labels present
        in the graph.
    """

    def __init__(
        self, graph: LabeledDiGraph, labels: Optional[Iterable[str]] = None
    ) -> None:
        self._graph = graph
        self._dimension = graph.vertex_count
        self._labels = tuple(sorted(labels) if labels is not None else graph.labels())
        self._matrices: dict[str, sparse.csr_matrix] = {}

    @property
    def dimension(self) -> int:
        """The matrix dimension ``|V|``."""
        return self._dimension

    @property
    def labels(self) -> tuple[str, ...]:
        """The labels the store covers (sorted)."""
        return self._labels

    def matrix(self, label: str) -> sparse.csr_matrix:
        """The boolean CSR adjacency matrix of ``label``.

        Row ``i`` / column ``j`` correspond to the graph's dense vertex ids;
        entry ``(i, j)`` is ``True`` iff an edge ``(v_i, label, v_j)`` exists.
        """
        if label not in self._labels:
            raise UnknownLabelError(label)
        cached = self._matrices.get(label)
        if cached is not None:
            return cached
        rows, cols = self._graph.edge_index_arrays(label)
        # Edges are unique, so the CSR arrays follow from one sort by
        # (row, column) and the per-row edge counts.
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=self._dimension)))
        )
        matrix = sparse.csr_matrix(
            (np.ones(rows.size, dtype=bool), cols[order], indptr),
            shape=(self._dimension, self._dimension),
        )
        self._matrices[label] = matrix
        return matrix

    def as_dict(
        self, labels: Optional[Iterable[str]] = None
    ) -> dict[str, sparse.csr_matrix]:
        """Materialise the matrices for ``labels`` (default: all) as a dict.

        The catalog builders take a plain ``label -> matrix`` mapping so the
        hot loops never touch the store's cache logic; this is the one-call
        way to produce it with every matrix built exactly once.
        """
        selected = self._labels if labels is None else tuple(labels)
        return {label: self.matrix(label) for label in selected}

    def path_matrix(self, labels: Iterable[str]) -> sparse.csr_matrix:
        """Boolean product ``M(l1)·...·M(lk)`` for the label sequence ``labels``.

        The result's non-zeros are exactly the vertex pairs returned by the
        path query.  An empty label sequence yields the identity matrix
        (every vertex is connected to itself by the empty path).
        """
        product: Optional[sparse.csr_matrix] = None
        for label in labels:
            current = self.matrix(label)
            if product is None:
                product = current.copy()
            else:
                product = (product @ current).astype(bool)
        if product is None:
            return sparse.identity(self._dimension, dtype=bool, format="csr")
        return product.astype(bool)

    def path_selectivity(self, labels: Iterable[str]) -> int:
        """Number of distinct vertex pairs connected by the label sequence."""
        return int(self.path_matrix(labels).nnz)

    def extend(
        self, prefix_matrix: sparse.csr_matrix, label: str
    ) -> sparse.csr_matrix:
        """Extend a prefix product by one more label (``prefix · M(label)``)."""
        return (prefix_matrix @ self.matrix(label)).astype(bool)

    def identity(self) -> sparse.csr_matrix:
        """The ``|V|×|V|`` boolean identity matrix (empty-path product)."""
        return sparse.identity(self._dimension, dtype=bool, format="csr")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<LabelMatrixStore dim={self._dimension} labels={len(self._labels)} "
            f"cached={len(self._matrices)}>"
        )
