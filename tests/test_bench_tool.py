"""tools/bench.py on one small run: what its child process records
matches an in-process run of the same command, a child that fails or
a run the CLI rejects is named, each tree's round wins are counted, a
control run is summarized beside the runs, the CPU count is the
bench's own affinity, and each tree is named by its commit and dirty
mark, or by the reason it has none."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from shared import invoke

ROOT = Path(__file__).resolve().parent.parent


def bench_one(tmp_path, run: str, **popen) -> tuple[dict, dict]:
    """tools/bench.py's result and its one record for ``run``, one round
    on this checkout; ``popen`` goes to the bench's ``subprocess.run``."""
    out = tmp_path / "bench.json"
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "-k", "1",
            "--run", run, "--tree", f"here={ROOT}", "--out", str(out),
        ],
        check=True,
        capture_output=True,
        **popen,
    )
    result = json.loads(out.read_text())
    (record,) = result["runs"]
    return result, record


def test_bench_records_the_in_process_payload(tmp_path):
    result, record = bench_one(tmp_path, "report --max-n 4")
    code, stdout, _ = invoke("report", "--max-n", "4")
    text = json.dumps(json.loads(stdout)["payload"], sort_keys=True, separators=(",", ":"))
    assert record["payload_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert code == 0 and "exit" not in record
    assert record["run_s"] < record["process_s"] and record["maxrss_kib"] > 0
    assert result["payload_mismatches"] == [] and set(result["trees"]) == {"here"}
    assert result["python"] and result["nproc"] >= 1


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to pin to one")
def test_bench_records_the_cpus_it_may_use(tmp_path):
    # pinned to one CPU, the bench counts that one, not the host's
    cpu = min(os.sched_getaffinity(0))
    result, _ = bench_one(tmp_path, "aut --n 4", preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert result["nproc"] == 1


def test_bench_hashes_export_text_as_is(tmp_path):
    _, record = bench_one(tmp_path, "complex --n 4 --dot hasse")
    code, stdout, _ = invoke("complex", "--n", "4", "--dot", "hasse")
    assert stdout.startswith("digraph")
    assert record["payload_sha256"] == hashlib.sha256(stdout.encode()).hexdigest()
    assert code == 0


def test_bench_names_a_failing_child(tmp_path):
    # a tree whose package fails to import: the child's stderr is shown
    # with the round, tree and run, and no file is written
    package = tmp_path / "broken" / "src" / "tropmoduli"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise ImportError("this tree does not import")\n')
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "-k", "1", "--run", "aut --n 4",
            "--tree", f"here={ROOT}", "--tree", f"broken={tmp_path / 'broken'}", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2 and not out.exists()
    assert "round 0 tree broken run 'aut --n 4' failed: exit status 1" in done.stderr
    assert "ImportError: this tree does not import" in done.stderr
    assert "CalledProcessError" not in done.stderr


def test_bench_names_a_run_the_cli_rejected(tmp_path):
    # the CLI rejects n = 3 with exit status 2: the child exits with it
    # and shows the CLI's error, so no timing of the rejection is kept
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "-k", "1", "--run", "aut --n 3",
            "--tree", f"here={ROOT}", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2 and not out.exists()
    assert "round 0 tree here run 'aut --n 3' failed: exit status 2" in done.stderr
    assert "error: --n must be >= 4" in done.stderr


def test_bench_counts_the_rounds_each_tree_won(tmp_path):
    # two labels on one tree: each round goes to the tree with the least
    # run_s, and a tie would go to neither
    out = tmp_path / "bench.json"
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "-k", "3", "--run", "aut --n 4",
            "--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--out", str(out),
        ],
        check=True,
        capture_output=True,
    )
    result = json.loads(out.read_text())
    times = {(r["round"], r["tree"]): r["run_s"] for r in result["runs"]}
    expected = {
        label: sum(times[k, label] < times[k, other] for k in range(3))
        for label, other in (("a", "b"), ("b", "a"))
    }
    summary = result["summary"]["aut --n 4"]
    assert {label: summary[label]["rounds_won"] for label in "ab"} == expected
    assert result["payload_mismatches"] == []


def test_bench_summarizes_the_control_beside_the_runs(tmp_path):
    # the control runs every round after the runs, on each tree, and its
    # summary has the quartiles and round wins the runs have
    out = tmp_path / "bench.json"
    control = "count --check lemma --bound 4"
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "-k", "2", "--run", "aut --n 4",
            "--control", control, "--tree", f"a={ROOT}", "--tree", f"b={ROOT}",
            "--out", str(out),
        ],
        check=True,
        capture_output=True,
    )
    result = json.loads(out.read_text())
    assert result["control"] == control
    assert list(result["summary"]) == ["aut --n 4", control]
    summary = result["summary"][control]
    assert set(summary) == {"a", "b"}
    assert all(len(summary[label]["run_s_quartiles"]) == 3 for label in "ab")
    assert sum(summary[label]["rounds_won"] for label in "ab") <= 2
    assert [(r["round"], r["run"]) for r in result["runs"]][::2] == [
        (0, "aut --n 4"), (0, control), (1, "aut --n 4"), (1, control)
    ]
    assert result["payload_mismatches"] == []


def test_bench_rejects_a_control_that_is_a_run(tmp_path):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "--run", "aut --n 4",
            "--control", "aut --n 4", "--out", str(tmp_path / "bench.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2 and not (tmp_path / "bench.json").exists()
    assert "--control 'aut --n 4' is already a measured run" in done.stderr


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_a_tied_round_counts_for_neither_tree():
    bench = load_bench()
    rows = [
        {"round": k, "tree": tree, "run_s": s}
        for k, pair in enumerate([(1.0, 2.0), (2.0, 2.0), (3.0, 1.0)])
        for tree, s in zip("ab", pair)
    ]
    assert bench._rounds_won(rows) == {"a": 1, "b": 1}


def git(tree, *args) -> str:
    done = subprocess.run(
        ["git", "-C", str(tree), "-c", "user.name=bench", "-c", "user.email=bench@localhost",
         "-c", "commit.gpgsign=false", *args],
        check=True,
        capture_output=True,
        text=True,
    )
    return done.stdout.strip()


def test_bench_names_each_tree(tmp_path):
    # a checkout reads its commit and whether it has an uncommitted edit;
    # a git archive copy, which has no .git, reads a null commit with the
    # reason, as does a copy inside another checkout, whose HEAD is not
    # the copy's
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    git(tree, "init", "-q")
    git(tree, "add", "-A")
    git(tree, "commit", "-q", "-m", "tree")
    head = git(tree, "rev-parse", "HEAD")
    bench = load_bench()
    assert bench._checkout(tree) == {"commit": head, "dirty": False}

    def archive_copy(to):
        to.mkdir()
        git(tree, "archive", "-o", str(tmp_path / "tree.tar"), "HEAD")
        subprocess.run(["tar", "-xf", str(tmp_path / "tree.tar"), "-C", str(to)], check=True)
        return to

    copy = archive_copy(tmp_path / "copy")
    init = tree / "src" / "tropmoduli" / "__init__.py"
    init.write_text(init.read_text() + "# an uncommitted edit\n")
    out = tmp_path / "bench.json"
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "-k", "1", "--run", "aut --n 4",
            "--tree", f"tree={tree}", "--tree", f"copy={copy}", "--out", str(out),
        ],
        check=True,
        capture_output=True,
    )
    assert json.loads(out.read_text())["trees"] == {
        "tree": {"commit": head, "dirty": True, "bytecode_cache": False},
        "copy": {"commit": None, "reason": "no .git in the tree", "bytecode_cache": False},
    }
    # an empty .git is no repository: git walks up to the enclosing one
    nested = archive_copy(tree / "nested")
    (nested / ".git").mkdir()
    assert bench._checkout(nested) == {
        "commit": None,
        "reason": f"git names {tree.resolve()} as the checkout root",
    }
