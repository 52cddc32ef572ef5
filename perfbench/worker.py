"""Child process of the benchmark.

Imports tropmoduli from the checkout's `src` and prints `ready`; the
parent times process start to that line as set-up.  With `--probe` it
stops there.  Otherwise it runs one workload's operation in a closed
loop with tracing off until `--seconds` have passed, checks every output
against the oracles, and with `--trace 1` then makes one traced replay.
The last stdout line is a JSON object with the samples, the failures,
the peak resident set and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"


def _failure(what: str) -> str:
    traceback.print_exc()
    return f"{what}: {traceback.format_exc(limit=0).strip().splitlines()[-1]}"


def _measure(workload, seed: int, seconds: float) -> tuple[list[float], list[str]]:
    """Operation times, and one message per failed operation.  Runs at
    least one operation, and no more than fit in `seconds`."""
    samples: list[float] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        start = time.perf_counter()
        try:
            result = workload.run(seed)
        except Exception:
            samples.append(time.perf_counter() - start)
            failures.append(_failure("operation raised"))
        else:
            samples.append(time.perf_counter() - start)
            try:
                problems = workload.check(result)
            except Exception:
                problems = [_failure("oracle check raised")]
            if problems:
                failures.append("; ".join(problems))
            del result
        # stop before an operation of typical length would overrun
        if time.perf_counter() + statistics.median(samples) > deadline:
            return samples, failures


def _replay(workload, replay, seed: int) -> list[str]:
    """One traced replay; its failure, if any."""
    gc.collect()
    try:
        return [] if workload.replay(replay, seed) else ["traced replay: verdict FAIL"]
    except Exception:
        return [_failure("traced replay raised")]


def _write_spans(spans, name: str, seed: int) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    with open(SPANS_DIR / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import tropmoduli.cli

    if SRC not in Path(tropmoduli.__file__).resolve().parents:
        print(f"error: imported tropmoduli from {tropmoduli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.probe:
        return 0

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    samples, failures = _measure(workload, args.seed, args.seconds)
    out = {
        "samples": samples,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        from spans import Tracer

        replay = workloads.Replay(Tracer())
        failures += _replay(workload, replay, args.seed)
        out["layers"] = workloads.layer_metrics(replay, statistics.median(samples))
        _write_spans(replay.tr.spans, args.workload, args.seed)
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
