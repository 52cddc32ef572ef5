"""End-to-end timings of the tropmoduli CLI, one child process per run.

Standard library only.  From the root of a checkout:

    python3 tools/bench.py --out BENCH.json
    python3 tools/bench.py -k 10 --tree parent=../old --tree change=. --out BENCH.json
    python3 tools/bench.py -k 1 --run "report --max-n 4" --out small.json
    python3 tools/bench.py -k 10 --tree parent=../old --tree change=. \
        --control "count --check lemma --bound 20" --out BENCH.json

Each run is a fresh interpreter that imports ``tropmoduli.cli`` from the
tree's ``src/`` and calls ``cli.run`` once.  A run records the time of
that call, the wall time of the whole child process, its peak resident
set (``ru_maxrss``), the sha256 of its payload (sorted keys, compact
separators) or, for an export such as ``complex --dot``, of its text as
is.  With several trees the runs are interleaved, and the tree that
goes first alternates from round to round: the second run of a pair
tends to read slower on a busy host.
The summary gives, per run and tree, the quartiles of ``run_s`` and
the number of rounds in which that tree had the least ``run_s`` (a tie
counts for neither tree), so a claimed gain can be read as pair wins.
``--control RUN`` adds one invocation that the change does not touch,
run every round after the others and summarized beside them: the
rounds a tree wins there are won on a path it did not change, so as
many wins on a measured run are no evidence of a gain.
The file also records the Python version, the number of CPUs the
bench may run on (its affinity, not the host's count), each tree's
commit and whether ``git status --porcelain`` listed anything before
round 0 (``dirty``), or a null commit and its ``reason`` when the tree
is no checkout root, and whether its package had a bytecode cache;
children write none.  The exit status is 1 when two trees' payloads
differ for one run, and 2, with no file written, when a child exits
non-zero, as it does with the CLI's status when that is not 0: the
round, the tree, the run and the child's stderr (the CLI's, when it
ran) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

RUNS = (
    "report --max-n 6",
    "report --max-n 8",
    "aut --n 7",
    "aut --n 8 --method both",
    "count --check formula --n 8",
)

CHILD = """\
import hashlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from tropmoduli import cli
out, err = io.StringIO(), io.StringIO()
started = time.perf_counter()
code = cli.run(sys.argv[2:], stdout=out, stderr=err)
run_s = time.perf_counter() - started
if code:  # a run the CLI rejected is no timing
    sys.stderr.write(err.getvalue())
    sys.exit(code)
text = out.getvalue()
if text.startswith("{"):  # a JSON report, not export text
    text = json.dumps(json.loads(text)["payload"], sort_keys=True, separators=(",", ":"))
digest = hashlib.sha256(text.encode()).hexdigest()
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"run_s": run_s, "maxrss_kib": rss, "payload_sha256": digest}))
"""


def _git(tree: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _checkout(tree: Path) -> dict:
    """The tree's commit and whether ``git status --porcelain`` lists
    anything, or a null commit with the reason when the tree is no
    checkout root: git would otherwise name an enclosing repository's
    HEAD."""
    if not (tree / ".git").exists():
        return {"commit": None, "reason": "no .git in the tree"}
    top = _git(tree, "rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != tree:
        return {"commit": None, "reason": f"git names {top} as the checkout root"}
    return {
        "commit": _git(tree, "rev-parse", "HEAD"),
        "dirty": _git(tree, "status", "--porcelain") != "",
    }


def _one_run(tree: Path, argv: list[str]) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", CHILD, str(tree / "src"), *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    record = json.loads(done.stdout)
    record["process_s"] = time.perf_counter() - started
    return record


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3


def _rounds_won(rows: list[dict]) -> Counter:
    """Per tree, the rounds in which its ``run_s`` was the least of one
    run's records; a tie for the least counts for neither tree."""
    wins = Counter()
    for k in {r["round"] for r in rows}:
        times = sorted((r["run_s"], r["tree"]) for r in rows if r["round"] == k)
        if len(times) == 1 or times[0][0] < times[1][0]:
            wins[times[0][1]] += 1
    return wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", type=int, default=5, help="rounds (default 5)")
    parser.add_argument(
        "--tree", action="append", metavar="LABEL=PATH",
        help="a checkout to measure; give it twice to compare (default: change=.)",
    )
    parser.add_argument(
        "--run", action="append", metavar="ARGV",
        help="one CLI invocation, as a quoted string (default: the five end-to-end runs)",
    )
    parser.add_argument(
        "--control", metavar="ARGV",
        help="one more invocation, run every round, that the compared trees do not change",
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be >= 1")
    runs = args.run or list(RUNS)
    if args.control is not None:
        if args.control in runs:
            parser.error(f"--control {args.control!r} is already a measured run")
        runs = [*runs, args.control]
    trees = {}
    for spec in args.tree or ["change=."]:
        label, sep, path = spec.partition("=")
        if not sep or not label or label in trees:
            parser.error(f"--tree wants a new LABEL=PATH, got {spec!r}")
        trees[label] = Path(path).resolve()
        if not (trees[label] / "src" / "tropmoduli").is_dir():
            parser.error(f"no src/tropmoduli under {path}")
    checkouts = {label: _checkout(tree) for label, tree in trees.items()}

    records = []
    labels = list(trees)
    for k in range(args.k):
        order = labels if k % 2 == 0 else labels[::-1]
        for run in runs:
            for label in order:
                try:
                    record = _one_run(trees[label], shlex.split(run))
                except subprocess.CalledProcessError as exc:
                    print(
                        f"round {k} tree {label} run {run!r} failed: exit status "
                        f"{exc.returncode}\n{exc.stderr.rstrip()}",
                        file=sys.stderr,
                    )
                    return 2
                records.append({"round": k, "run": run, "tree": label, **record})
                print(f"round {k} {label:>8} {run}: {record['run_s']:.4f} s", file=sys.stderr)

    summary, mismatched = {}, []
    for run in runs:
        summary[run] = {}
        wins = _rounds_won([r for r in records if r["run"] == run])
        for label in labels:
            rows = [r for r in records if r["run"] == run and r["tree"] == label]
            summary[run][label] = {
                "run_s_quartiles": _quartiles([r["run_s"] for r in rows]),
                "rounds_won": wins[label],
                "process_s_median": statistics.median(r["process_s"] for r in rows),
                "maxrss_mib_median": statistics.median(r["maxrss_kib"] for r in rows) / 1024,
            }
        if len({r["payload_sha256"] for r in records if r["run"] == run}) > 1:
            mismatched.append(run)
    result = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "k": args.k,
        "control": args.control,
        "trees": {
            label: {
                **checkouts[label],
                "bytecode_cache": (tree / "src" / "tropmoduli" / "__pycache__").is_dir(),
            }
            for label, tree in trees.items()
        },
        "payload_mismatches": mismatched,
        "summary": summary,
        "runs": records,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for run in mismatched:
        print(f"payloads differ between trees: {run}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
