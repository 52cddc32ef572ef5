"""tools/bench.py on one small run: what its child process records
matches an in-process run of the same command."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from shared import invoke

ROOT = Path(__file__).resolve().parent.parent


def test_bench_records_the_in_process_payload(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "bench.py"), "-k", "1",
            "--run", "report --max-n 4", "--tree", f"here={ROOT}", "--out", str(out),
        ],
        check=True,
        capture_output=True,
    )
    result = json.loads(out.read_text())
    (record,) = result["runs"]
    code, stdout, _ = invoke("report", "--max-n", "4")
    text = json.dumps(json.loads(stdout)["payload"], sort_keys=True, separators=(",", ":"))
    assert record["payload_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert (record["exit"], code) == (0, 0)
    assert record["run_s"] < record["process_s"] and record["maxrss_kib"] > 0
    assert result["payload_mismatches"] == [] and set(result["trees"]) == {"here"}
    assert result["python"] and result["nproc"] >= 1
