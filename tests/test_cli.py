"""CLI: payload shapes, exit codes, and determinism."""

import hashlib
import io
import json
from collections import Counter

from tropmoduli.cli import EXIT_ENVELOPE, EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from tropmoduli.counting import LEMMA_MAX_BOUND
from tropmoduli.enumeration import ENVELOPE_MAX_N

from shared import complex_for, count_tree_objects


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


def test_aut_n7_both_methods():
    code, report, _ = invoke_json("aut", "--n", "7", "--method", "both")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert report["payload"]["order"] == 5040
    assert report["payload"]["methods_agree"]


def test_aut_n8():
    code, report, _ = invoke_json("aut", "--n", "8")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert report["payload"]["order"] == 40320
    assert report["payload"]["reconstruction_ok"]


def test_aut_poset_envelope():
    # the envelope is the only cap: n = 9 exits before any work
    code, out, err = invoke("aut", "--n", "9", "--method", "poset")
    assert code == EXIT_ENVELOPE
    assert out == "" and "envelope" in err


def test_count_formula():
    code, report, _ = invoke_json("count", "--n", "5", "--check", "formula")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert report["payload"]["strata"] == 26
    assert report["payload"]["mismatches"] == []
    assert report["payload"]["star_mismatches"] == []


def test_count_formula_checks_stars_above_the_poset_cap():
    code, report, _ = invoke_json("count", "--n", "7", "--check", "formula")
    assert code == EXIT_OK
    assert report["verdict"] == "PASS"
    assert report["payload"]["mismatches"] == []
    assert report["payload"]["star_mismatches"] == []


def test_count_formula_names_a_wrong_star_count(monkeypatch):
    from tropmoduli import cli

    star_count = cli.star_count
    monkeypatch.setattr(cli, "star_count", lambda cx, i: star_count(cx, i) + (i == 7))
    code, report, _ = invoke_json("count", "--n", "5", "--check", "formula")
    assert code == EXIT_FAIL
    assert report["payload"]["star_mismatches"] == [7]
    assert report["payload"]["mismatches"] == []


def test_count_formula_names_a_wrong_brute_force(monkeypatch):
    # at n = 5 a vertex with legs + valence = 4 lies on each ray and on
    # no other cell; rays are in (size, mask) order
    from tropmoduli import cli

    brute = cli.brute_force_partition_count
    monkeypatch.setattr(cli, "brute_force_partition_count", lambda k: brute(k) + (k == 4))
    code, report, _ = invoke_json("count", "--n", "5", "--check", "formula")
    assert code == EXIT_FAIL
    assert report["payload"]["mismatches"] == [
        [[2, 3]], [[2, 4]], [[3, 4]], [[2, 5]], [[3, 5]], [[4, 5]],
        [[2, 3, 4]], [[2, 3, 5]], [[2, 4, 5]], [[3, 4, 5]],
    ]
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
    code, report, _ = invoke_json("genus2")
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
    # the counting check, which reads each cell's clade tree
    assert payload_sha256("count", "--check", "formula", "--n", "7") == (
        "72e6f9deec53fd44e31092c41f56a7f472abdb46f9925571e7a95b746ad3a6ec"
    )
    assert payload_sha256("report", "--max-n", "7") == (
        "59b42cdf11c06475528345f17e5128222c4dd9c8b3682557bb02157bca488e0b"
    )
    # the graph search's generators and their reconstructions
    assert payload_sha256("aut", "--n", "7") == (
        "cfedb06e26f0f0d00ff9d6d14ed0fda99695bf11c1a28bfeea73bd3d9be5e385"
    )
    assert payload_sha256("aut", "--n", "8") == (
        "9e71f3ace983d095d2a717e70cb1313e11123e80bd359507cdf0aaa0f6f5c055"
    )
    # the split sides enumerate prints, as JSON and as raw CSV bytes
    assert payload_sha256("enumerate", "--n", "7", "--dim", "2") == (
        "fce8e096064baaaf82218e64262f583d25bd78e53e30cc601b5c3262d2613106"
    )
    code, out, _ = invoke("enumerate", "--n", "6", "--format", "csv")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "454e5f8b7a0c04a6474957d532cd6d69c82a5492289c262fa0b6605fc8e9cd34"
    )


def test_enumerate_builds_no_tree_objects(monkeypatch):
    built = count_tree_objects(monkeypatch)
    assert invoke("enumerate", "--n", "7")[0] == EXIT_OK
    assert invoke("enumerate", "--n", "6", "--format", "csv")[0] == EXIT_OK
    assert built == {}


def test_failed_generator_check_is_a_fail(monkeypatch):
    # a graph search whose only generator swaps rays {2,3} and {2,3,4},
    # which maps some cell to no cell: one line naming the generator and
    # the first bad cell, no JSON, exit 1
    from tropmoduli import automorphisms
    from tropmoduli.groups import PermutationGroup, format_cycles
    from tropmoduli.trees import Split

    cx = complex_for(6)
    a = cx.ray_index[Split.from_side(6, [2, 3])]
    b = cx.ray_index[Split.from_side(6, [2, 3, 4])]
    swap = list(range(len(cx.rays)))
    swap[a], swap[b] = b, a
    cells = set(cx.cell_ray_sets())
    bad = next(i for i, c in enumerate(cx.cell_ray_sets()) if {swap[r] for r in c} not in cells)
    monkeypatch.setattr(
        automorphisms,
        "graph_automorphism_group",
        lambda nbrs: PermutationGroup(len(nbrs), (tuple(swap),)),
    )
    code, out, err = invoke("aut", "--n", "6")
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith(f"check failed: generator {format_cycles(swap)}: ")
    assert f"cell {bad} ({cx.cell_name(bad)})" in err
    assert err.count("\n") == 1


def test_report_and_count_build_no_tree_objects(monkeypatch):
    built = count_tree_objects(monkeypatch)
    assert invoke("report", "--max-n", "6")[0] == EXIT_OK
    assert invoke("count", "--check", "formula", "--n", "7")[0] == EXIT_OK
    assert built == {}


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
    builds.clear()
    enumerations.clear()
    code, _, _ = invoke("report", "--max-n", "7")
    assert code == EXIT_OK
    assert builds == {4: 1, 5: 1, 6: 1, 7: 1}
    assert enumerations == {3: 1, 4: 1, 5: 1, 6: 1, 7: 1}


def test_each_automorphism_fact_is_checked_once(monkeypatch):
    # one reconstruction per generator (4 + 5 at n = 5, 6) plus one per
    # sample (100 at n = 5, 6); the poset search runs only when asked for
    from tropmoduli import automorphisms, cli

    calls = Counter()

    def counted(name, module):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted("reconstruct_sigma", automorphisms)
    for module in (cli, automorphisms):
        counted("aut_via_poset", module)
    assert invoke("report", "--max-n", "6")[0] == EXIT_OK
    assert calls["reconstruct_sigma"] == 209
    calls.clear()
    assert invoke("aut", "--n", "6", "--method", "graph")[0] == EXIT_OK
    assert calls == {"reconstruct_sigma": 5}
    assert invoke("aut", "--n", "6", "--method", "both")[0] == EXIT_OK
    assert calls["aut_via_poset"] == 1


def test_each_generator_cell_map_runs_once(monkeypatch):
    # aut_via_compat_graph checks each generator's cells and the
    # reconstruction reuses that check: 5 generators at n = 6, and the
    # n = 4 generators (not reconstructed) are still checked
    from functools import cached_property

    from tropmoduli.automorphisms import ComplexAutomorphism

    passes = Counter()
    cell_map = ComplexAutomorphism.cell_map.func

    def counted(self):
        passes[self.cx.n] += 1
        return cell_map(self)

    prop = cached_property(counted)
    prop.__set_name__(ComplexAutomorphism, "cell_map")
    monkeypatch.setattr(ComplexAutomorphism, "cell_map", prop)
    assert invoke("aut", "--n", "6", "--method", "graph")[0] == EXIT_OK
    assert passes == {6: 5}
    passes.clear()
    assert invoke("aut", "--n", "4")[0] == EXIT_OK
    assert passes == {4: 2}


def test_order_check_sifts_each_schreier_generator_once(monkeypatch):
    # the cross-check's chain starts from the search's base, so at n = 7
    # one round of transversals completes it: 126 Schreier generators
    # are sifted (a chain restarted from level 0 makes 581 sifts and 5
    # rounds)
    from tropmoduli.groups import _StabilizerChain

    work = Counter()

    def counted(name):
        method = getattr(_StabilizerChain, name)

        def wrapper(self, *args):
            work[name] += 1
            return method(self, *args)

        return wrapper

    for name in ("_sift", "_recompute_transversals"):
        monkeypatch.setattr(_StabilizerChain, name, counted(name))
    assert invoke("aut", "--n", "7")[0] == EXIT_OK
    assert 0 < work["_sift"] <= 150
    assert work["_recompute_transversals"] == 1


def test_genus2_lists_each_edge_group_once(monkeypatch):
    from tropmoduli.groups import PermutationGroup

    # 7 cells, each listing its edge group's elements at most once
    calls = Counter()
    elements = PermutationGroup.elements

    def counted(self):
        calls["elements"] += 1
        return elements(self)

    monkeypatch.setattr(PermutationGroup, "elements", counted)
    assert invoke("genus2")[0] == EXIT_OK
    assert calls["elements"] <= 7


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
        ("count", "--check", "lemma", "--n", "5"),
        ("report", "--max-n", "2"),
        ("report", "--max-n", "3"),
    ):
        code, out, err = invoke(*argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "error" in err
    # the flag that does not apply is named, not silently ignored
    assert "--n" in invoke("count", "--check", "lemma", "--n", "5")[2]


def test_oversized_runs_exit_before_work():
    for argv in (
        ("count", "--check", "lemma", "--bound", str(LEMMA_MAX_BOUND + 1)),
        ("report", "--max-n", str(ENVELOPE_MAX_N + 1)),
    ):
        code, out, err = invoke(*argv)
        assert code == EXIT_ENVELOPE, argv
        assert out == "" and "envelope" in err
        assert "PASS" not in err
