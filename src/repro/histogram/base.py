"""Histogram base class and shared machinery.

A histogram partitions the frequency vector of an ordered domain
``[0, n)`` into ``β`` buckets (Section 2 of the paper) and answers point
estimates by the uniform-frequency assumption within the containing bucket.
Concrete subclasses only decide *where the bucket boundaries go*; storage,
lookup, serialisation and quality metrics are shared here.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence, Union

import numpy as np

from repro.exceptions import HistogramError, InvalidBucketCountError
from repro.histogram.bucket import Bucket
from repro.histogram.sparse import SparseFrequencies

__all__ = ["Histogram", "frequencies_to_array"]

Frequencies = Union[Iterable[float], SparseFrequencies]


def frequencies_to_array(frequencies: Iterable[float]) -> np.ndarray:
    """Coerce a frequency iterable to a 1-D float array, validating values."""
    array = np.asarray(list(frequencies) if not isinstance(frequencies, np.ndarray) else frequencies, dtype=float)
    if array.ndim != 1:
        raise HistogramError("frequencies must be one-dimensional")
    if array.size == 0:
        raise HistogramError("frequencies must not be empty")
    if np.any(array < 0):
        raise HistogramError("frequencies must be non-negative")
    return array


class Histogram:
    """A bucketised approximation of a frequency vector.

    Subclasses implement :meth:`_boundaries`, returning the sorted list of
    bucket start positions (the first is always 0); everything else is
    inherited.

    ``frequencies`` may also be a
    :class:`~repro.histogram.sparse.SparseFrequencies` view, in which case
    boundary placement goes through :meth:`_boundaries_sparse` — overridden
    by every built-in kind with an O(nnz)-memory algorithm whose boundaries
    are byte-identical to the dense path — and the bucket statistics are
    computed from the nonzero stream.
    """

    #: Registry name of the histogram kind (e.g. ``"equi-width"``).
    kind: str = "base"

    def __init__(self, frequencies: Frequencies, bucket_count: int) -> None:
        if isinstance(frequencies, SparseFrequencies):
            domain = frequencies.size
            if bucket_count < 1 or bucket_count > domain:
                raise InvalidBucketCountError(bucket_count, domain)
            self._domain_size = domain
            self._requested_buckets = bucket_count
            starts = self._boundaries_sparse(frequencies, bucket_count)
            self._buckets = self._materialise_sparse(frequencies, starts)
        else:
            array = frequencies_to_array(frequencies)
            domain = int(array.size)
            if bucket_count < 1 or bucket_count > domain:
                raise InvalidBucketCountError(bucket_count, domain)
            self._domain_size = domain
            self._requested_buckets = bucket_count
            starts = self._boundaries(array, bucket_count)
            self._buckets = self._materialise(array, starts)
        self._starts = [bucket.start for bucket in self._buckets]

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    def _boundaries(self, frequencies: np.ndarray, bucket_count: int) -> list[int]:
        """Return the sorted bucket start positions (must begin with 0)."""
        raise NotImplementedError

    def _boundaries_sparse(
        self, frequencies: SparseFrequencies, bucket_count: int
    ) -> list[int]:
        """Sparse-input counterpart of :meth:`_boundaries`.

        The base implementation densifies and delegates — correct for any
        subclass, but O(n) memory; the built-in kinds all override it with
        an implicit-zero-run algorithm that never materialises the domain.
        """
        return self._boundaries(frequencies.toarray(), bucket_count)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise_starts(starts: Sequence[int], domain: int) -> list[int]:
        """Validate and de-duplicate bucket start positions."""
        if not starts or starts[0] != 0:
            raise HistogramError("bucket boundaries must start at 0")
        unique_starts = sorted(set(int(s) for s in starts))
        if unique_starts[-1] >= domain and domain > 0 and len(unique_starts) > 1:
            raise HistogramError("a bucket start lies outside the domain")
        return unique_starts

    @classmethod
    def _materialise(
        cls, frequencies: np.ndarray, starts: Sequence[int]
    ) -> list[Bucket]:
        domain = int(frequencies.size)
        unique_starts = cls._normalise_starts(starts, domain)
        buckets: list[Bucket] = []
        for position, start in enumerate(unique_starts):
            end = unique_starts[position + 1] if position + 1 < len(unique_starts) else domain
            chunk = frequencies[start:end]
            buckets.append(
                Bucket(
                    start=start,
                    end=end,
                    total=float(chunk.sum()),
                    squared_total=float(np.square(chunk).sum()),
                    minimum=float(chunk.min()),
                    maximum=float(chunk.max()),
                )
            )
        return buckets

    @classmethod
    def _materialise_sparse(
        cls, frequencies: SparseFrequencies, starts: Sequence[int]
    ) -> list[Bucket]:
        """Bucket statistics straight from the nonzero stream.

        Each bucket's totals come from the values inside its position range;
        a bucket whose width exceeds its nonzero count contains an implicit
        zero, which caps its minimum.  For the integer-valued frequencies a
        catalog produces these sums are exact, so they match the dense
        chunk sums bitwise.
        """
        domain = frequencies.size
        unique_starts = cls._normalise_starts(starts, domain)
        positions = frequencies.positions
        values = frequencies.values
        edges = np.asarray(list(unique_starts) + [domain], dtype=np.int64)
        cuts = np.searchsorted(positions, edges)
        buckets: list[Bucket] = []
        for position in range(len(unique_starts)):
            start = int(edges[position])
            end = int(edges[position + 1])
            first, last = int(cuts[position]), int(cuts[position + 1])
            chunk = values[first:last]
            stored = last - first
            width = end - start
            if stored:
                total = float(chunk.sum())
                squared = float(np.square(chunk).sum())
                maximum = float(chunk.max())
                minimum = float(chunk.min()) if stored == width else 0.0
            else:
                total = squared = maximum = minimum = 0.0
            buckets.append(
                Bucket(
                    start=start,
                    end=end,
                    total=total,
                    squared_total=squared,
                    minimum=minimum,
                    maximum=maximum,
                )
            )
        return buckets

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        """Size ``n`` of the ordered domain the histogram covers."""
        return self._domain_size

    @property
    def bucket_count(self) -> int:
        """The number of buckets actually materialised (``≤`` requested)."""
        return len(self._buckets)

    @property
    def requested_bucket_count(self) -> int:
        """The ``β`` requested at construction time."""
        return self._requested_buckets

    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """The buckets, sorted by start index."""
        return tuple(self._buckets)

    def total_sse(self) -> float:
        """Total within-bucket sum of squared errors (V-optimal's objective)."""
        return sum(bucket.sse for bucket in self._buckets)

    def total_frequency(self) -> float:
        """Sum of frequencies across the whole domain."""
        return sum(bucket.total for bucket in self._buckets)

    def storage_entries(self) -> int:
        """Number of scalar values the histogram must store.

        Each bucket needs its start boundary and its frequency total, so the
        footprint is ``2 β`` scalars; exposed for memory-budget comparisons
        against the ideal ordering's ``|Lk|`` entries.
        """
        return 2 * len(self._buckets)

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def bucket_for(self, index: int) -> Bucket:
        """The bucket containing domain position ``index``."""
        if index < 0 or index >= self._domain_size:
            raise HistogramError(
                f"index {index} outside the histogram domain [0, {self._domain_size})"
            )
        position = bisect.bisect_right(self._starts, index) - 1
        return self._buckets[position]

    def estimate(self, index: int) -> float:
        """Point estimate: the average frequency of the containing bucket."""
        return self.bucket_for(index).average

    def _lookup_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Bucket starts and averages as arrays (built lazily, then cached)."""
        cached = getattr(self, "_lookup_cache", None)
        if cached is None:
            starts = np.asarray(self._starts, dtype=np.int64)
            averages = np.asarray([bucket.average for bucket in self._buckets], dtype=float)
            cached = (starts, averages)
            self._lookup_cache = cached
        return cached

    def estimate_batch(self, indices) -> np.ndarray:
        """Point estimates for an array of domain positions, vectorised.

        Equivalent to ``np.array([self.estimate(i) for i in indices])`` but a
        single ``searchsorted`` + fancy-index pair, which is what makes
        thousands-of-paths batches cheap.
        """
        positions = np.ascontiguousarray(indices, dtype=np.int64)
        if positions.ndim != 1:
            raise HistogramError("indices must be one-dimensional")
        if positions.size == 0:
            return np.empty(0, dtype=float)
        # As uint64 a negative index wraps past 2**63, so one reduction
        # checks both ends of the domain.
        if int(positions.view(np.uint64).max()) >= self._domain_size:
            raise HistogramError(
                f"batch contains indices outside the histogram domain "
                f"[0, {self._domain_size})"
            )
        starts, averages = self._lookup_arrays()
        return averages[np.searchsorted(starts, positions, side="right") - 1]

    def estimate_range(self, start: int, end: int) -> float:
        """Estimated total frequency of the half-open index range ``[start, end)``.

        Buckets fully covered contribute their exact stored total; partially
        covered buckets contribute proportionally (uniformity assumption).
        """
        if end <= start:
            return 0.0
        if start < 0 or end > self._domain_size:
            raise HistogramError(
                f"range [{start}, {end}) outside the histogram domain "
                f"[0, {self._domain_size})"
            )
        total = 0.0
        position = bisect.bisect_right(self._starts, start) - 1
        while position < len(self._buckets):
            bucket = self._buckets[position]
            if bucket.start >= end:
                break
            overlap = min(end, bucket.end) - max(start, bucket.start)
            total += bucket.average * overlap
            position += 1
        return total

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable description of the histogram."""
        return {
            "kind": self.kind,
            "domain_size": self._domain_size,
            "requested_buckets": self._requested_buckets,
            "buckets": [
                {
                    "start": bucket.start,
                    "end": bucket.end,
                    "total": bucket.total,
                    "squared_total": bucket.squared_total,
                    "minimum": bucket.minimum,
                    "maximum": bucket.maximum,
                }
                for bucket in self._buckets
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<{type(self).__name__} kind={self.kind!r} domain={self._domain_size} "
            f"buckets={len(self._buckets)}>"
        )
