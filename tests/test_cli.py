"""CLI: payload shapes, exit codes, and determinism."""

import hashlib
import io
import json
from collections import Counter

from tropmoduli.cli import EXIT_ENVELOPE, EXIT_OK, EXIT_USAGE, run
from tropmoduli.counting import LEMMA_MAX_BOUND
from tropmoduli.enumeration import ENVELOPE_MAX_N


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    return code, json.loads(out), err


def test_enumerate_n3():
    code, report, _ = invoke_json("enumerate", "--n", "3")
    assert code == EXIT_OK
    assert report["schema"] == 1
    assert report["payload"]["f_vector"] == [1]


def test_enumerate_n5_payload():
    code, report, _ = invoke_json("enumerate", "--n", "5")
    assert code == EXIT_OK
    assert report["payload"]["f_vector"] == [1, 10, 15]
    assert report["payload"]["strata"]["1"][0] == [[2, 3]]


def test_enumerate_dim_filter_and_csv():
    code, out, _ = invoke("enumerate", "--n", "4", "--dim", "1", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == ["dim,splits", "1,2 3", "1,2 4", "1,3 4"]


def test_enumerate_envelope_exit():
    code, _, err = invoke("enumerate", "--n", "9")
    assert code == EXIT_ENVELOPE
    assert "envelope" in err


def test_enumerate_bad_dim_is_usage_error():
    code, _, _ = invoke("enumerate", "--n", "4", "--dim", "7")
    assert code == EXIT_USAGE


def test_bad_usage_exit():
    code, _, _ = invoke("enumerate")
    assert code == EXIT_USAGE
    code, _, _ = invoke("no-such-command")
    assert code == EXIT_USAGE


def test_complex_json():
    code, report, _ = invoke_json("complex", "--n", "4")
    assert code == EXIT_OK
    assert report["payload"]["f_vector"] == [1, 3]
    assert len(report["payload"]["cells"]) == 4


def test_complex_dot():
    code, out, _ = invoke("complex", "--n", "4", "--dot", "hasse")
    assert code == EXIT_OK
    assert out.startswith("digraph hasse {")
    code, out, _ = invoke("complex", "--n", "4", "--dot", "compat")
    assert code == EXIT_OK
    assert out.startswith("graph compat {")


def test_aut_n4():
    code, report, _ = invoke_json("aut", "--n", "4")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert report["payload"]["order"] == 6
    assert report["payload"]["expected"] == 6


def test_aut_n5_both_methods():
    code, report, _ = invoke_json("aut", "--n", "5", "--method", "both")
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["order"] == 120
    assert payload["methods_agree"]
    assert payload["sigma_of_generator"]
    assert all(s is not None for s in payload["sigma_of_generator"])


def test_aut_poset_envelope():
    code, _, _ = invoke("aut", "--n", "7", "--method", "poset")
    assert code == EXIT_ENVELOPE


def test_count_formula():
    code, report, _ = invoke_json("count", "--n", "5", "--check", "formula")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert report["payload"]["strata"] == 26
    assert report["payload"]["mismatches"] == []
    assert report["payload"]["star_mismatches"] == []


def test_count_formula_requires_n():
    code, _, _ = invoke("count", "--check", "formula")
    assert code == EXIT_USAGE


def test_count_lemma():
    code, report, _ = invoke_json("count", "--check", "lemma", "--bound", "12")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert report["payload"]["violations"] == []
    assert report["payload"]["pairs_checked"] > 0


def test_genus2_verify():
    code, report, _ = invoke_json("genus2", "--verify")
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["cells"] == 7
    assert payload["aut_order"] == 1
    assert payload["theta_edge_group_order"] == 6
    assert payload["verdict"] == "PASS"
    assert "figure_eight" in payload["swap_rejection"]
    assert "lollipop" in payload["swap_rejection"]


def test_payload_determinism():
    _, first, _ = invoke("enumerate", "--n", "5")
    _, second, _ = invoke("enumerate", "--n", "5")
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def payload_sha256(*argv):
    code, report, _ = invoke_json(*argv)
    assert code == EXIT_OK
    text = json.dumps(report["payload"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_payload_bytes_are_pinned():
    # pins cell order, face targets and retained injections (complex) and
    # the stratum order per dimension (enumerate)
    assert payload_sha256("complex", "--n", "5") == (
        "483fffa69596b0a2a7dcfea2e7926c6b68b29c33936c3df19ff9b0d75cb48d22"
    )
    assert payload_sha256("enumerate", "--n", "6") == (
        "b3f515e4d91369799b3edb8c1f276fafdb8d6445a90fe05a5476eb9301bf3cbe"
    )
    # the battery and the theorem report, which share catalogs and complexes
    assert payload_sha256("report", "--max-n", "5") == (
        "7a160fb6c3cc37cae9412abd23eb2f920e72ae76bc26737c1262c028c7d144e2"
    )
    assert payload_sha256("aut", "--n", "6", "--method", "both") == (
        "5df35d94717cfb7b242e45454cff136205d74beea75c9516fb33d093ede39079"
    )


def test_report_enumerates_and_builds_each_n_once(monkeypatch):
    from tropmoduli import automorphisms, cli, cones

    builds, enumerations = Counter(), Counter()

    def counted(counter, fn):
        def wrapper(n, *args, **kwargs):
            counter[n] += 1
            return fn(n, *args, **kwargs)

        return wrapper

    build, enumerate_ = cones.build_complex, cones.enumerate_strata
    for module in (cli, automorphisms):
        monkeypatch.setattr(module, "build_complex", counted(builds, build))
    for module in (cli, cones):
        monkeypatch.setattr(module, "enumerate_strata", counted(enumerations, enumerate_))
    code, _, _ = invoke("report", "--max-n", "6")
    assert code == EXIT_OK
    assert builds == {4: 1, 5: 1, 6: 1}
    assert enumerations == {3: 1, 4: 1, 5: 1, 6: 1}


def test_module_execution():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tropmoduli", "enumerate", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["payload"]["f_vector"] == [1, 3]


def test_report_small():
    code, report, err = invoke_json("report", "--max-n", "4")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    names = [c["name"] for c in report["payload"]["checks"]]
    assert "aut n=4" in names and "genus2" in names
    assert all(c["verdict"] == "PASS" for c in report["payload"]["checks"])
    assert "PASS" in err


def test_empty_runs_are_usage_errors():
    for argv in (
        ("count", "--check", "lemma", "--bound", "-1"),
        ("count", "--check", "lemma", "--bound", "1"),
        ("report", "--max-n", "2"),
        ("report", "--max-n", "3"),
    ):
        code, out, err = invoke(*argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "error" in err


def test_oversized_runs_exit_before_work():
    for argv in (
        ("count", "--check", "lemma", "--bound", str(LEMMA_MAX_BOUND + 1)),
        ("report", "--max-n", str(ENVELOPE_MAX_N + 1)),
    ):
        code, out, err = invoke(*argv)
        assert code == EXIT_ENVELOPE, argv
        assert out == "" and "envelope" in err
        assert "PASS" not in err
