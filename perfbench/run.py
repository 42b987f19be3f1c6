"""Run the texture-cache benchmark from the repository root.

Usage::

    python3 perfbench/run.py --workload village-walk --seed 1 --seconds 10 --trace 0

Prints a ``{"report": ...}`` line (what ran, the resolved environment and
the traced pass's self-time table), then, as the last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads, metrics and the layer map are described in ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("village-walk", "tenant-mix", "terrain-vt")

#: Memoization the repository would otherwise consult, pinned off so that a
#: run measures work and not a cache hit.
PINNED_KNOBS = {
    "REPRO_TRACE_CACHE": "off",
    "REPRO_SIM_CACHE": "off",
    "REPRO_HEARTBEAT": "off",
}
#: Numeric libraries stay single-threaded; rendering runs one job.
THREAD_KNOBS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def clean_environment() -> dict:
    """Drop every inherited ``$REPRO_*`` value, then pin the knobs above.

    Must run before numpy or ``repro`` is imported. Returns what it did.
    """
    cleared = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("REPRO_")}
    os.environ.update(PINNED_KNOBS)
    os.environ.update(THREAD_KNOBS)
    return {
        "cleared": cleared,
        "knobs": {**PINNED_KNOBS, **THREAD_KNOBS, "render_jobs": 1},
    }


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            "perfbench: run from a checkout of the repository "
            "(src/repro and BENCHMARK.json are missing)",
            file=sys.stderr,
        )
        return 2

    env = clean_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report["environment"] = {
        **env,
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
