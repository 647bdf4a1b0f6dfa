"""Per-request tracing: spans, context propagation, JSON logs, slowest-N.

A :class:`Trace` is created once per HTTP request (honouring any
``X-Request-Id`` the client sent, else minting one with
:func:`new_request_id`) and *activated* on the handling thread via
:func:`activate`, which binds it to a context variable.  Downstream code
never threads a trace argument around — it calls the module-level
:func:`span` context manager, which times its block and attaches the span
to whatever trace is active, or does nothing at all when no trace is
(so the engine's hot paths stay uninstrumented for library callers).

Crossing the scheduler's thread boundary is explicit: the HTTP handler's
active trace is captured into the queued request object at submit time
and re-activated by the worker around the batch work, so spans such as
``registry.build`` and ``session.histogram`` land in the originating
request's trace even though they run on another thread.

Finished traces are emitted as one structured JSON log line each (see
:func:`configure_logging` — wired to ``repro serve --log-json``) and
recorded in a :class:`TraceStore`, which keeps the most recent and the
slowest N for ``GET /traces``.
"""

from __future__ import annotations

import bisect
import contextvars
import json
import logging
import threading
import time
import uuid
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Iterator, Optional

__all__ = [
    "Span",
    "Trace",
    "TraceStore",
    "activate",
    "configure_logging",
    "current_trace",
    "emit_trace",
    "new_request_id",
    "set_tracing_enabled",
    "span",
    "tracing_enabled",
]

_enabled = True


def set_tracing_enabled(enabled: bool) -> None:
    """Globally enable or disable per-request tracing.

    The HTTP layer consults this before creating a :class:`Trace` for a
    request; with tracing off, requests run bare (no spans, nothing
    recorded, nothing logged) while ``/traces`` keeps answering with
    whatever was already retained.  The benchmark suite throws this
    switch together with :func:`repro.obs.metrics.set_enabled` to time
    the fully uninstrumented baseline.
    """
    global _enabled
    _enabled = bool(enabled)


def tracing_enabled() -> bool:
    """Whether per-request traces should be created (see :func:`set_tracing_enabled`)."""
    return _enabled

_current: "contextvars.ContextVar[Optional[Trace]]" = contextvars.ContextVar(
    "repro_trace", default=None
)

_logger = logging.getLogger("repro.trace")


def new_request_id() -> str:
    """A fresh 32-hex-character request id."""
    return uuid.uuid4().hex


class Span:
    """One timed step inside a trace: a name, a duration, optional attributes."""

    __slots__ = ("name", "seconds", "attrs")

    def __init__(self, name: str, seconds: float, attrs: dict[str, object]) -> None:
        self.name = name
        self.seconds = seconds
        self.attrs = attrs

    def as_row(self) -> dict[str, object]:
        """JSON-ready representation (used by ``/traces`` and the log line)."""
        row: dict[str, object] = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            row["attrs"] = self.attrs
        return row


class Trace:
    """A request's span collection, safe to append to from any thread.

    The HTTP layer creates one per request, activates it while handling,
    and calls :meth:`finish` with the response status once the response is
    written.  Spans appended after ``finish`` (a scheduler worker racing a
    request timeout) are accepted but no longer change the recorded total.
    """

    __slots__ = (
        "request_id",
        "route",
        "started_unix",
        "_started",
        "_lock",
        "_spans",
        "status",
        "seconds",
        "finished",
    )

    def __init__(self, request_id: Optional[str] = None, route: str = "") -> None:
        self.request_id = request_id if request_id else new_request_id()
        self.route = route
        self.started_unix = time.time()
        self._started = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.status: Optional[int] = None
        self.seconds: Optional[float] = None
        self.finished = False

    def add_span(self, name: str, seconds: float, **attrs: object) -> None:
        """Attach one pre-timed span (used across the worker thread boundary)."""
        with self._lock:
            self._spans.append(Span(name, seconds, dict(attrs)))

    def span(self, name: str, **attrs: object) -> AbstractContextManager[None]:
        """Time the enclosed block and attach it as a span."""
        return _TimedSpan(self, name, attrs)

    def finish(self, status: Optional[int] = None) -> float:
        """Seal the trace with the response ``status``; returns total seconds.

        Idempotent: the first call wins, later calls return the recorded
        duration unchanged.
        """
        with self._lock:
            if not self.finished:
                self.finished = True
                self.status = status
                self.seconds = time.perf_counter() - self._started
            return self.seconds if self.seconds is not None else 0.0

    def spans(self) -> list[Span]:
        """A snapshot of the spans attached so far."""
        with self._lock:
            return list(self._spans)

    def as_row(self) -> dict[str, object]:
        """JSON-ready representation (``/traces`` rows, JSON log lines)."""
        with self._lock:
            return {
                "request_id": self.request_id,
                "route": self.route,
                "started_unix": self.started_unix,
                "status": self.status,
                "seconds": self.seconds,
                "spans": [span.as_row() for span in self._spans],
            }


class _TimedSpan:
    """Context manager timing one block into a trace.

    A plain class rather than a ``@contextmanager`` generator: the request
    path opens several spans per request, and a generator costs several
    times as much to enter and leave.
    """

    __slots__ = ("_trace", "_name", "_attrs", "_started")

    def __init__(self, trace: Trace, name: str, attrs: dict[str, object]) -> None:
        self._trace = trace
        self._name = name
        self._attrs = attrs
        self._started = 0.0

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        self._trace.add_span(self._name, time.perf_counter() - self._started, **self._attrs)


def current_trace() -> Optional[Trace]:
    """The trace active on this thread/context, if any."""
    return _current.get()


@contextmanager
def activate(trace: Optional[Trace]) -> Iterator[Optional[Trace]]:
    """Make ``trace`` the active trace for the enclosed block.

    Passing ``None`` deactivates tracing inside the block (used by the
    benchmark baseline).  Always restores the previous state on exit.
    """
    token = _current.set(trace)
    try:
        yield trace
    finally:
        _current.reset(token)


_NO_SPAN = nullcontext()


def span(name: str, **attrs: object) -> AbstractContextManager[None]:
    """Time the enclosed block into the active trace — no-op without one.

    This is the hook the engine and registry call: library users who never
    activate a trace pay one context-variable read and nothing else.
    """
    trace = _current.get()
    if trace is None:
        return _NO_SPAN
    return _TimedSpan(trace, name, attrs)


class TraceStore:
    """Finished traces worth showing: the most recent and the slowest N."""

    def __init__(self, slowest: int = 32, recent: int = 32) -> None:
        if slowest < 1 or recent < 1:
            raise ValueError("TraceStore sizes must be >= 1")
        self._slowest_limit = slowest
        self._recent_limit = recent
        self._lock = threading.Lock()
        self._slowest: list[Trace] = []
        self._recent: list[Trace] = []
        self._recorded = 0

    def record(self, trace: Trace) -> None:
        """Add a finished trace, evicting the fastest/oldest beyond the caps."""
        seconds = trace.seconds or 0.0
        with self._lock:
            self._recorded += 1
            self._recent.append(trace)
            if len(self._recent) > self._recent_limit:
                self._recent.pop(0)
            # ``_slowest`` is kept sorted ascending so a full window can
            # reject a fast trace with one comparison; ``snapshot`` reverses.
            if len(self._slowest) < self._slowest_limit:
                bisect.insort(self._slowest, trace, key=lambda t: t.seconds or 0.0)
            elif seconds > (self._slowest[0].seconds or 0.0):
                self._slowest.pop(0)
                bisect.insort(self._slowest, trace, key=lambda t: t.seconds or 0.0)

    def recorded(self) -> int:
        """Total traces ever recorded (not just the retained window)."""
        with self._lock:
            return self._recorded

    def find(self, request_id: str) -> Optional[Trace]:
        """The retained trace with ``request_id``, if still in a window."""
        with self._lock:
            for trace in self._recent + self._slowest:
                if trace.request_id == request_id:
                    return trace
        return None

    def snapshot(self) -> dict[str, object]:
        """JSON-ready document backing ``GET /traces``."""
        with self._lock:
            return {
                "recorded_total": self._recorded,
                "slowest": [trace.as_row() for trace in reversed(self._slowest)],
                "recent": [trace.as_row() for trace in reversed(self._recent)],
            }


class _JsonFormatter(logging.Formatter):
    """One JSON object per log record; trace rows pass through unwrapped."""

    def format(self, record: logging.LogRecord) -> str:
        document = getattr(record, "trace_row", None)
        if document is None:
            document = {
                "ts": record.created,
                "level": record.levelname.lower(),
                "logger": record.name,
                "message": record.getMessage(),
            }
        else:
            document = {
                "ts": record.created,
                "level": record.levelname.lower(),
                "logger": record.name,
                **document,
            }
        return json.dumps(document, default=str)


def configure_logging(*, json_lines: bool = False, level: str = "info") -> None:
    """Wire the ``repro`` logger hierarchy to stderr at ``level``.

    ``json_lines`` selects the structured formatter (one JSON object per
    line — what ``repro serve --log-json`` emits); otherwise a terse
    human-readable format is used.  Idempotent: reconfiguring replaces the
    handler installed by a previous call instead of stacking another.
    """
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler()
    handler._repro_obs = True  # type: ignore[attr-defined]
    if json_lines:
        handler.setFormatter(_JsonFormatter())
    else:
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s %(message)s")
        )
    root.addHandler(handler)
    root.setLevel(numeric)
    root.propagate = False


def emit_trace(trace: Trace) -> None:
    """Log a finished trace as one structured line (INFO on ``repro.trace``)."""
    if not _logger.isEnabledFor(logging.INFO):
        return
    row = trace.as_row()
    _logger.info(
        "request %s %s -> %s in %.6fs",
        trace.request_id,
        trace.route,
        trace.status,
        trace.seconds or 0.0,
        extra={"trace_row": row},
    )
