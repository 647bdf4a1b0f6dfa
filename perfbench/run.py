"""Repository benchmark: one workload per run, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point-dense --seed 1 --seconds 8 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the benchmark's own spans on and
prints the per-layer metrics instead, after a per-layer table.  The last
line of standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Any correctness mismatch makes the run exit 1; a run that cannot start
(for example, without ``src/repro`` next to this directory) exits 2 and
prints no result.  See ``perfbench/README.md`` for the workloads and what
each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    """Run one workload; print the report and the JSON result line."""
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench import build, hostspeed, report, serving
    from perfbench.spans import SpanRecorder

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    hostspeed.probe_in(work)
    rec = SpanRecorder(enabled=bool(args.trace))
    runner = build.run if args.workload == "build-update" else serving.run
    try:
        result = runner(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    if args.trace:
        rec.write(ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.jsonl")

    checks = result["checks"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        checks.record(False, f"metrics not measured: {', '.join(missing)}")
    report.print_header(args, result)
    if args.trace:
        report.print_layer_table(args.workload, result, rec)
    report.print_end_to_end(spec, result)
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    line = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values},
    }
    print(json.dumps(line), flush=True)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, print no result, exit non-zero
        traceback.print_exc()
        sys.exit(2)
