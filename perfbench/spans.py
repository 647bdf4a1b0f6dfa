"""In-memory span recorder for the traced benchmark run.

The benchmark records its own spans around the calls it makes into each
layer (it never instruments code inside ``src/``).  A disabled recorder is
a no-op, so the untraced run measures the end-to-end figures without them.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional


class SpanRecorder:
    """Spans with name, start, end, parent and a shared per-operation id."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op_id: Optional[str] = None) -> Iterator[None]:
        """Record one span; nested spans get the enclosing one as parent.

        ``op_id`` starts a new operation (a request or a build); nested spans
        inherit the id of their parent.
        """
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op_id if op_id is not None else (parent["op"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def write(self, target: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record) + "\n")

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, total seconds, self seconds)``.

        Self time is a span's duration minus the part of its interval that
        its child spans cover (overlapping children are merged first).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for record in self.spans:
            if record["parent"] is not None:
                children[record["parent"]].append((record["start"], record["end"]))
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for record in self.spans:
            duration = record["end"] - record["start"]
            covered = 0.0
            cursor = record["start"]
            for start, end in sorted(children.get(record["id"], ())):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            entry = totals[record["name"]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered
        return {name: (int(c), t, s) for name, (c, t, s) in totals.items()}

    def mean_seconds(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0.0 when none)."""
        durations = [r["end"] - r["start"] for r in self.spans if r["name"] == name]
        return sum(durations) / len(durations) if durations else 0.0


def timed(recorder: SpanRecorder, name: str, fn, *args, **kwargs):
    """Call ``fn`` under a span; return ``(result, seconds)``."""
    with recorder.span(name):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - started
    return result, seconds
