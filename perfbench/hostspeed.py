"""Timings scaled to a reference host speed.

On the shared box this benchmark was written on, the same CPU-bound code ran
anywhere from 1× to 1.7× as long from one stretch of seconds or minutes to
the next, with no steal in ``/proc/stat``: other tenants slow every
instruction, so neither CPU time nor a median over one run removes it, and
the ten runs of a workload disagreed by 20–70%.  Each timed operation is
therefore bracketed by a fixed reference probe (string splitting, dict
lookups, NumPy sorting and searching, as in a rank) on the CPU the work
runs on, and its CPU part is scaled by how fast the probe ran around it:

    scaled = wall × (1 − f) + wall × f × PROBE_REF_S / probe_s

``f`` is the CPU share of the operation, measured over all samples of one
kind as the CPU seconds of the benchmark and the server over their wall
seconds (capped at 1).  Waiting, such as a delayed-ACK timer, is kept as
measured; CPU work is reported as it would run on a host where the probe
takes :data:`PROBE_REF_S`.  A metric is the mean of its scaled samples.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

#: The probe's time on an idle 2-core Xeon VM (its fastest tenth there).
PROBE_REF_S = 0.0041

_rng = np.random.default_rng(20181)
_PATHS = ["/".join(str(int(x)) for x in _rng.integers(1, 20, size=1 + i % 6)) for i in range(600)]
_LABELS = {str(i): i for i in range(1, 20)}
_KEYS = np.sort(_rng.integers(0, 20**6, size=40000))
_BLOB = _rng.integers(0, 256, size=65536, dtype=np.uint8).tobytes()
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_probe_file: Optional[Path] = None
#: Probes per speed reading; the fastest counts, as a probe can itself be slowed.
PROBES = 3


def probe_in(directory: Path) -> None:
    """Give the probe a scratch file in ``directory`` for its file I/O."""
    global _probe_file
    _probe_file = directory / "hostspeed-probe.bin"


def probe_seconds() -> float:
    """Seconds one run of the fixed reference work takes right now.

    A little of each kind of work the program does: interpreter loops over
    path strings and dicts, NumPy sorting and searching, filling freshly
    mapped memory, and small file writes and reads (the artifact cache).
    The file part needs :func:`probe_in` first.
    """
    started = time.perf_counter()
    ranks = [sum(_LABELS[label] * 20**depth for depth, label in enumerate(path.split("/"))) for path in _PATHS]
    found = np.searchsorted(_KEYS, np.asarray(ranks, dtype=np.int64))
    order = np.argsort(_KEYS[::-1] % 1000003, kind="stable")
    int(np.cumsum(order[found % order.size]).sum())
    np.empty(1 << 19).fill(1.0)
    for _ in range(4):
        _probe_file.write_bytes(_BLOB)
        _probe_file.read_bytes()
        _probe_file.stat()
    return time.perf_counter() - started


def host_speed(cpu: Optional[int] = None) -> float:
    """:data:`PROBE_REF_S` over the fastest of :data:`PROBES` probes (1.0 = reference).

    With ``cpu``, the calling thread probes on that CPU and then moves back:
    interference differs from one CPU to the other, so the probe runs where
    the timed work runs.
    """
    if cpu is None:
        return PROBE_REF_S / min(probe_seconds() for _ in range(PROBES))
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return PROBE_REF_S / min(probe_seconds() for _ in range(PROBES))
    finally:
        os.sched_setaffinity(0, home)


def split_cpus() -> tuple[Optional[int], Optional[int]]:
    """Pin the calling thread to its first CPU; return it and a second one.

    Threads started later inherit the pin.  The second CPU is for a server
    process, so that client and server never compete for one CPU and the
    probe can run where the server does.  With one CPU nothing is pinned
    and both are ``None``.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[1]


def cpu_seconds(pid: Optional[int] = None) -> float:
    """CPU seconds of this process, plus those of process ``pid`` if given."""
    total = time.process_time()
    if pid is not None:
        fields = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICK
    return total


class ScaledTimes:
    """Wall-clock samples of one kind of operation, each with its host speed.

    ``cpu`` is the CPU the timed work runs on, where the probes run too
    (``None``: the calling thread's own).
    """

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.probe_cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self.cpu = 0.0
        self.busy = 0.0

    def add(self, walls: Sequence[float], speed: float, cpu: float, busy: Optional[float] = None) -> None:
        """Samples measured at ``speed``, which used ``cpu`` CPU seconds over
        ``busy`` wall seconds (the sum of ``walls`` unless given)."""
        self.samples.extend((wall, speed) for wall in walls)
        self.cpu += cpu
        self.busy += sum(walls) if busy is None else busy

    @contextmanager
    def measure(self, pid: Optional[int] = None) -> Iterator[None]:
        """Time the enclosed operation, with probes before and after it."""
        before = self.speed()
        cpu = cpu_seconds(pid)
        started = time.perf_counter()
        yield
        wall = time.perf_counter() - started
        cpu = cpu_seconds(pid) - cpu
        self.add([wall], (before + self.speed()) / 2, cpu)

    def speed(self) -> float:
        """The host speed right now, on this kind's CPU."""
        return host_speed(self.probe_cpu)

    def cpu_share(self) -> float:
        """``f``: CPU seconds over wall seconds of all samples, at most 1."""
        return min(1.0, self.cpu / self.busy) if self.busy else 1.0

    def scaled(self) -> list[float]:
        """Every sample with its CPU part scaled to the reference speed."""
        share = self.cpu_share()
        return [wall * (1.0 - share + share * speed) for wall, speed in self.samples]

    def mean(self) -> float:
        """The mean scaled sample: the metric of this kind.

        The mean, not a quantile: every sample carries its probe's own
        noise, and a quantile would pick the samples whose probe erred.
        """
        return statistics.mean(self.scaled())

    def raw(self) -> list[float]:
        """The samples as measured."""
        return [wall for wall, _ in self.samples]

    def summary(self) -> dict:
        """Raw median, CPU share and median host speed, for the report."""
        return {
            "raw_median": statistics.median(self.raw()),
            "cpu_share": round(self.cpu_share(), 3),
            "host_speed": round(statistics.median(speed for _, speed in self.samples), 3),
            "samples": len(self.samples),
        }
