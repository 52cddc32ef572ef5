"""The benchmark's traced replay (``perfbench/workloads.py``) still runs
against the package: it calls the library layer by layer, so a change to
the package can break it without breaking any CLI run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 1729  # the benchmark's default seed


def test_battery_replay_passes():
    assert workloads.replay_battery(workloads.Replay(Tracer()), SEED) is True


def test_aut_replay_passes():
    assert workloads.replay_aut(workloads.Replay(Tracer()), SEED) is True


def test_each_workload_passes_its_own_check():
    # each workload's correctness gate, on the live CLI output it times
    for name, w in workloads.WORKLOADS.items():
        assert (name, w.check(w.run(SEED))) == (name, [])
