"""Benchmark of tropmoduli's verification runs, one workload per call.

    python3 perfbench/run.py --workload battery-n6 --seed 1729 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from `src`.
Set-up is timed over SETUP_PROBES fresh interpreters that import the
package and stop, half before the worker and half after it, plus the
worker's own start.  The worker is one child
process that runs the workload in a closed loop with one caller and
reports its peak resident set; see worker.py.  With `--trace 1` the
worker adds one traced replay and the result holds the per-layer
metrics instead of the end-to-end ones.

Stdout has two lines: a record of the run with its environment,
samples and failures, and last the result object
{"correct", "attempted", "failed", "metrics"}.  Exit status 2, with no
result, when the package cannot be imported or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("battery-n6", "aut-n7")
SETUP_PROBES = 10
DEADLINE_S = 170  # for the whole run; a run must end within 180 s


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start the worker with `args`; return the seconds from start to its
    `ready` line and the rest of its stdout.  Stderr passes through.  The
    worker is killed if it is still running at `deadline`."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        if not select.select([proc.stdout], [], [], max(deadline - start, 0))[0]:
            raise subprocess.TimeoutExpired(proc.args, deadline - start)
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} still running at the deadline")
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args} exited with status {proc.returncode}")
    return ready_s, rest


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "commit": _commit(),
    }


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest of p99.9, p99 and p90 with at least ten samples above
    it, or None when there are too few samples."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        beyond = int(len(ordered) * (100 - p) / 100)
        if beyond >= 10:
            return {"p": p, "value": ordered[len(ordered) - beyond - 1]}
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tropmoduli" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'tropmoduli'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        # half the probes before the worker and half after, so that set-up
        # is sampled at both ends of the run
        setup = [_spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES // 2)]
        ready_s, out = _spawn(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline,
        )
        worker = json.loads(out.splitlines()[-1])
        setup.append(ready_s)
        setup += [_spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    samples = worker["samples"]
    failures = worker["failures"]
    attempted = len(samples) + args.trace
    wall_s = statistics.median(samples)
    peak_rss_mb = worker["peak_rss_kib"] / 1024
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "wall_s": {
            "median": wall_s,
            "count": len(samples),
            "tail": tail_percentile(samples),
            "samples": samples,
        },
        "setup_s": {"median": statistics.median(setup), "samples": setup},
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
    }
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in worker["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
