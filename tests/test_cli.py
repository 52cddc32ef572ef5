"""CLI: payload shapes, exit codes, and determinism."""

import argparse
import ast
import hashlib
import inspect
import itertools
import json
import math
import pathlib
import re
import shlex
from collections import Counter

import pytest

from tropmoduli import __version__
from tropmoduli.automorphisms import DEFAULT_SEED, main_theorem_report
from tropmoduli.cli import EXIT_ENVELOPE, EXIT_FAIL, EXIT_OK, EXIT_USAGE
from tropmoduli.counting import LEMMA_MAX_BOUND
from tropmoduli.enumeration import ENVELOPE_MAX_N
from tropmoduli.trees import Split

from shared import (
    complex_for,
    count_built,
    count_calls,
    count_tree_objects,
    invoke,
    one_check_failed,
    unreached_raises,
)


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
    code, _, err = invoke("enumerate", "--n", str(ENVELOPE_MAX_N + 1))
    assert code == EXIT_ENVELOPE
    assert "envelope" in err


def test_enumerate_bad_dim_is_usage_error():
    code, _, _ = invoke("enumerate", "--n", "4", "--dim", "7")
    assert code == EXIT_USAGE


def test_enumerate_checks_dim_before_enumerating(monkeypatch):
    from tropmoduli import cli

    calls = count_calls(monkeypatch, cli, "enumerate_strata")
    for dim in ("9", "-1"):
        code, out, err = invoke("enumerate", "--n", "8", "--dim", dim)
        assert code == EXIT_USAGE, dim
        assert out == "" and err == f"error: no strata of dimension {dim} for n=8\n"
    # n's own checks still come first
    code, _, err = invoke("enumerate", "--n", "2", "--dim", "0")
    assert code == EXIT_USAGE and "need n >= 3" in err
    code, _, err = invoke("enumerate", "--n", str(ENVELOPE_MAX_N + 1), "--dim", "99")
    assert code == EXIT_ENVELOPE and "envelope" in err
    assert calls == Counter()


def readme_commands():
    """The arguments of every ``tropmoduli`` line in the README's ``sh``
    blocks, its trailing comment dropped."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    return [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("tropmoduli ")
    ]


def test_readme_examples_run():
    # every subcommand has an example, and each passes or reports; the raw
    # CSV and DOT exports carry no verdict, so their exit status decides
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "enumerate", "complex", "aut", "count", "genus2", "report"
    }
    for argv in commands:
        code, out, err = invoke(*argv)
        assert code == EXIT_OK, (argv, err)
        if out.startswith("{"):
            assert json.loads(out)["verdict"] in ("PASS", "N-A"), argv


def test_bad_usage_exit():
    code, _, _ = invoke("enumerate")
    assert code == EXIT_USAGE
    code, _, _ = invoke("no-such-command")
    assert code == EXIT_USAGE


def test_argparse_output_goes_to_the_given_streams():
    # usage errors, --help and --version land in run's stdout and stderr,
    # not in the process's
    code, out, err = invoke("aut", "--n", "x")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith("tropmoduli aut: error: argument --n: invalid int value: 'x'\n")
    assert invoke("--version") == (EXIT_OK, f"{__version__}\n", "")
    code, out, err = invoke("--help")
    assert code == EXIT_OK and out.startswith("usage: tropmoduli") and err == ""


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
    assert payload_sha256("complex", "--n", "7") == (
        "7f32eff21dacdf49991696e72e7beab0a11d5a51f954b3690a1c733b0ef5ad12"
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
    assert payload_sha256("report", "--max-n", "6") == (
        "0bf21e54b53e342983d3ecbff94772915bc0c716ccf31e0343e8a00ec12cc7c7"
    )
    assert payload_sha256("report", "--max-n", "7") == (
        "59b42cdf11c06475528345f17e5128222c4dd9c8b3682557bb02157bca488e0b"
    )
    # both cell checks, the counting check and the purity check at the
    # envelope's top n
    assert payload_sha256("report", "--max-n", "8") == (
        "7f5bdec641656a52e14ba142bee1667fd5fb9ef30674785eb65972235f4c54bb"
    )
    # the graph search's generators and their reconstructions
    assert payload_sha256("aut", "--n", "7") == (
        "cfedb06e26f0f0d00ff9d6d14ed0fda99695bf11c1a28bfeea73bd3d9be5e385"
    )
    assert payload_sha256("aut", "--n", "8") == (
        "9e71f3ace983d095d2a717e70cb1313e11123e80bd359507cdf0aaa0f6f5c055"
    )
    # the poset search's generators beside the graph search's
    assert payload_sha256("aut", "--n", "7", "--method", "both") == (
        "ccc5ccb26e85e883a579c187efbbcf3ef0bdc9818f246a08b924c261a83f2b42"
    )
    # the only aut payload with the marking image and its kernel: at n = 4
    # `equals` compares the graph search's group with the image of S_4
    assert payload_sha256("aut", "--n", "4", "--method", "both") == (
        "5081f75a517966ecb7c0eb247a68a3b4a51413199f3c51d78cf833535b21def4"
    )
    # the genus-2 fixture: its class count and the swap witness text
    assert payload_sha256("genus2") == (
        "5eb1b83cc28aff57861e3a92daf91d92cfa70fa9aa36bc1568ddce9f626ccb13"
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
    # the DOT exports, as raw bytes
    for kind, digest in (
        ("hasse", "79a4cacc122da66f247cfc9ff55f5737132023d852d41876fa6a6a7733fca750"),
        ("compat", "fff55293610b0ce8803de05b0e65e37be63bc141306f80a3f5b06d30127fd202"),
    ):
        code, out, _ = invoke("complex", "--n", "6", "--dot", kind)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, kind


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --n 5",
        "complex --n 5",
        "aut --n 5 --method both",
        "count --check formula --n 5",
        "genus2",
        "report --max-n 4",
    ],
)
def test_report_is_one_compact_sorted_json_line(argv):
    # the report's own framing, which the payload pins do not see: one
    # JSON object, compact separators, sorted keys, one newline
    code, out, _ = invoke(*argv.split())
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), separators=(",", ":"), sort_keys=True) + "\n"


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

    cx = complex_for(6)
    a = cx.ray_by_mask[Split.from_side(6, [2, 3]).mask]
    b = cx.ray_by_mask[Split.from_side(6, [2, 3, 4]).mask]
    swap = list(range(len(cx.rays)))
    swap[a], swap[b] = b, a
    cells = {frozenset(c) for c in cx.cell_rays}
    bad = next(i for i, c in enumerate(cx.cell_rays) if {swap[r] for r in c} not in cells)
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


def test_poset_search_that_misses_generators_is_a_fail(monkeypatch):
    # a poset search keeping only its first generator at n = 5 finds a
    # smaller group: the agreement check, and with it aut n=5 alone, fails
    from tropmoduli import automorphisms
    from tropmoduli.groups import PermutationGroup

    search = automorphisms.aut_via_poset

    def first_generator_only(cx):
        group = search(cx)
        return group if cx.n != 5 else PermutationGroup(group.degree, group.generators[:1])

    monkeypatch.setattr(automorphisms, "aut_via_poset", first_generator_only)
    code, report, _ = invoke_json("aut", "--n", "5", "--method", "both")
    assert code == EXIT_FAIL
    assert not report["payload"]["methods_agree"]
    assert report["payload"]["poset_order"] < report["payload"]["order"] == 120
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert code == EXIT_FAIL
    assert [(c["name"], c["failures"]) for c in _failed_rows(report)] == [
        ("aut n=5", ["methods_agree"])
    ]


def _drop_coset_reps(monkeypatch, rays, level):
    """Make the graph search on ``rays`` rays find no coset representative
    at the level ``level(path)`` of its first path; returns the images dropped."""
    from tropmoduli import automorphisms

    coset_rep = automorphisms._coset_rep
    dropped = []

    def faulty(nbrs, adj, path, k, w):
        if len(nbrs) == rays and k == level(path):
            dropped.append(w)
            return None
        return coset_rep(nbrs, adj, path, k, w)

    monkeypatch.setattr(automorphisms, "_coset_rep", faulty)
    return dropped


def test_graph_search_that_misses_one_generator_fails_its_order_check(monkeypatch):
    # the deepest level's one image outside its orbit finds nothing: the
    # search's orbit product halves, while the generators found above
    # still generate the whole group, so the order cross-check fires
    # first and names n
    dropped = _drop_coset_reps(monkeypatch, 10, lambda path: len(path) - 2)
    code, out, err = invoke("report", "--max-n", "5")
    assert (code, out, len(dropped)) == (EXIT_FAIL, "", 1)
    assert "FAIL" not in err and err.count("check failed:") == 1
    assert err.splitlines()[-1] == (
        "check failed: graph search at n=5: search order 60 disagrees with generated group order 120"
    )
    _drop_coset_reps(monkeypatch, 25, lambda path: len(path) - 2)
    code, out, err = invoke("aut", "--n", "6", "--method", "graph")
    assert (code, out) == (EXIT_FAIL, "")
    assert one_check_failed(err).startswith("check failed: graph search at n=6: search order 360 ")


def test_poset_search_that_misses_one_generator_fails_its_order_check(monkeypatch):
    # the first coset representative the poset search finds is dropped:
    # its orbit product shrinks, while the generators found above still
    # generate the whole group, so the order cross-check fires and names
    # the search and n.  The graph search, which runs first and shares
    # sims_group, keeps its levels.
    from tropmoduli import automorphisms

    sims_group = automorphisms.sims_group
    dropped = []

    def drop_first(find):
        if getattr(find, "func", None) is automorphisms._coset_rep:
            return find

        def faulty(w):
            g = find(w)
            if g is not None and not dropped:
                dropped.append(w)
                return None
            return g

        return faulty

    def faulty_sims_group(degree, levels):
        return sims_group(degree, ((v, images, drop_first(find)) for v, images, find in levels))

    monkeypatch.setattr(automorphisms, "sims_group", faulty_sims_group)
    code, out, err = invoke("aut", "--n", "5", "--method", "both")
    assert (code, out, len(dropped)) == (EXIT_FAIL, "", 1)
    assert one_check_failed(err) == (
        "check failed: poset search at n=5: search order 60 disagrees with generated group order 120"
    )


def test_graph_search_that_misses_the_top_orbit_fails_aut_n(monkeypatch):
    # no image at the top level finds a representative: the search gives
    # the stabilizer of the first ray, a group of its own order, so only
    # the order (and, with the poset search, agreement) check fails
    dropped = _drop_coset_reps(monkeypatch, 10, lambda path: 0)
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert (code, len(dropped)) == (EXIT_FAIL, 9)
    failed = [c for c in report["payload"]["checks"] if c["verdict"] == "FAIL"]
    assert [(c["name"], c["order"], c["expected"]) for c in failed] == [("aut n=5", 12, 120)]
    assert failed[0]["failures"] == ["order", "methods_agree"]
    _drop_coset_reps(monkeypatch, 25, lambda path: 0)
    code, report, _ = invoke_json("aut", "--n", "6", "--method", "graph")
    assert (code, report["verdict"]) == (EXIT_FAIL, "FAIL")
    assert (report["payload"]["order"], report["payload"]["expected"]) == (72, 720)
    assert report["payload"]["failures"] == ["order"]


AUTOMORPHISM_FAULT_ROWS = (
    test_failed_generator_check_is_a_fail,
    test_graph_search_that_misses_one_generator_fails_its_order_check,
    test_poset_search_that_misses_one_generator_fails_its_order_check,
)


def test_every_automorphism_check_raise_has_a_fault_row():
    # a raise no fault row reaches is either untested or cannot fire
    from tropmoduli import automorphisms

    assert unreached_raises(automorphisms, AUTOMORPHISM_FAULT_ROWS) == []


def test_every_group_check_raise_has_a_fault_row():
    # the searches' order check lives in groups.sims_group; both searches'
    # order-check rows reach it
    from tropmoduli import groups

    rows = (
        test_graph_search_that_misses_one_generator_fails_its_order_check,
        test_poset_search_that_misses_one_generator_fails_its_order_check,
    )
    assert unreached_raises(groups, rows) == []


def _failed_rows(report):
    return [c for c in report["payload"]["checks"] if c["verdict"] == "FAIL"]


def _failed_checks(report):
    return [c["name"] for c in _failed_rows(report)]


def test_a_wrong_f_vector_fails_its_enumeration_check(monkeypatch):
    # the closed count disagreeing at n = 5 fails that check alone
    from tropmoduli import cli

    count = cli.count_f_vector
    monkeypatch.setattr(cli, "count_f_vector", lambda n: count(n) if n != 5 else [1, 10, 16])
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert code == EXIT_FAIL
    assert _failed_checks(report) == ["enumeration n=5"]


def test_a_wrong_kernel_fails_the_klein_kernel_check(monkeypatch):
    # a marking-action kernel missing one element fails the kernel check,
    # and with it the n = 4 theorem check
    from tropmoduli import automorphisms

    kernel = automorphisms.sn_kernel
    monkeypatch.setattr(automorphisms, "sn_kernel", lambda cx: kernel(cx)[:-1])
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert code == EXIT_FAIL
    assert _failed_checks(report) == ["aut n=4", "klein kernel n=4"]
    assert _failed_rows(report)[0]["failures"] == ["kernel_is_klein"]


def test_a_wrong_maximal_count_fails_its_enumeration_check(monkeypatch):
    # the closed maximal count disagreeing at n = 5 fails that check alone
    from tropmoduli import cli

    count = cli.count_maximal
    monkeypatch.setattr(cli, "count_maximal", lambda n: count(n) + (n == 5))
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert code == EXIT_FAIL
    assert _failed_checks(report) == ["enumeration n=5"]


def test_a_wrong_star_count_fails_its_counting_check(monkeypatch):
    # one star count off at n = 5 fails that counting check alone
    from tropmoduli import cli

    star_count = cli.star_count
    monkeypatch.setattr(cli, "star_count", lambda cx, i: star_count(cx, i) + (cx.n == 5 and i == 7))
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert code == EXIT_FAIL
    assert _failed_checks(report) == ["counting formula n=5"]


def test_a_lemma_counterexample_fails_the_lemma_sweep_check(monkeypatch):
    # one counterexample added to the sweep's result fails that check alone
    from tropmoduli import cli

    sweep = cli.lemma_power_sweep

    def violated(bound):
        checked, violations = sweep(bound)
        return checked, violations + [((1, 1, 4), (2, 2, 2))]

    monkeypatch.setattr(cli, "lemma_power_sweep", violated)
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert code == EXIT_FAIL
    assert _failed_checks(report) == ["lemma sweep bound=20"]


def test_a_wrong_genus2_result_fails_the_genus2_check(monkeypatch):
    # a second class of automorphisms, or a group with a nontrivial
    # element, fails the genus-2 check alone
    from dataclasses import replace

    from tropmoduli import cli
    from tropmoduli.groups import PermutationGroup

    aut_m2 = cli.aut_m2
    swap = PermutationGroup(7, ((1, 0, 2, 3, 4, 5, 6),))
    for fault in (
        lambda result: replace(result, classes=2),
        lambda result: replace(result, group=swap),
    ):
        monkeypatch.setattr(cli, "aut_m2", lambda cx: fault(aut_m2(cx)))
        code, report, _ = invoke_json("report", "--max-n", "5")
        assert code == EXIT_FAIL
        assert _failed_checks(report) == ["genus2"]


def test_a_bad_sampled_element_fails_aut_n(monkeypatch):
    # a sample no marking permutation induces (the rays of {1,3} and {4,5}
    # swapped) fails the surjectivity check, and with it aut n=5 alone,
    # whose row names the check and the sample
    from tropmoduli.groups import PermutationGroup, format_cycles

    cx = complex_for(5)
    a, b = (cx.ray_by_mask[Split.from_side(5, side).mask] for side in ([1, 3], [4, 5]))
    swap = list(range(len(cx.rays)))
    swap[a], swap[b] = b, a
    monkeypatch.setattr(PermutationGroup, "random_elements", lambda self, k, seed: [tuple(swap)])
    code, report, _ = invoke_json("report", "--max-n", "5")
    assert code == EXIT_FAIL
    assert _failed_rows(report) == [
        {
            "name": "aut n=5",
            "verdict": "FAIL",
            "order": 120,
            "expected": 120,
            "failures": ["surjectivity", f"sample:{format_cycles(swap)}"],
        }
    ]


def test_a_failed_reconstruction_at_n7_names_each_generator(monkeypatch):
    # no sample is drawn at n = 7, so the row's generator names come from
    # the theorem report's own judgement of the generators alone
    from tropmoduli import automorphisms
    from tropmoduli.groups import format_cycles

    reconstruct = automorphisms.reconstruct_sigma
    group = automorphisms.aut_via_compat_graph(complex_for(7))
    names = [f"generator:{format_cycles(g)}" for g in group.generators]

    def fail_at_7(f):
        if f.cx.n == 7:
            raise automorphisms.ReconstructionError("forced")
        return reconstruct(f)

    monkeypatch.setattr(automorphisms, "reconstruct_sigma", fail_at_7)
    code, report, _ = invoke_json("report", "--max-n", "7")
    assert code == EXIT_FAIL
    assert _failed_rows(report) == [
        {
            "name": "aut n=7",
            "verdict": "FAIL",
            "order": 5040,
            "expected": 5040,
            "failures": ["reconstruction_ok", *names],
        }
    ]


BATTERY_FAULT_ROWS = (
    test_poset_search_that_misses_generators_is_a_fail,
    test_graph_search_that_misses_the_top_orbit_fails_aut_n,
    test_a_wrong_f_vector_fails_its_enumeration_check,
    test_a_wrong_maximal_count_fails_its_enumeration_check,
    test_a_wrong_star_count_fails_its_counting_check,
    test_a_lemma_counterexample_fails_the_lemma_sweep_check,
    test_a_wrong_kernel_fails_the_klein_kernel_check,
    test_a_wrong_genus2_result_fails_the_genus2_check,
    test_a_bad_sampled_element_fails_aut_n,
    test_a_failed_reconstruction_at_n7_names_each_generator,
)


def _battery_check_names():
    """The name of each check ``cli._battery`` adds, up to the first
    placeholder of an f-string."""
    from tropmoduli import cli

    names = []
    for node in ast.walk(ast.parse(inspect.getsource(cli._battery))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "add":
            arg = node.args[0]
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            text = itertools.takewhile(lambda part: isinstance(part, ast.Constant), parts)
            names.append("".join(part.value for part in text))
    return names


def _battery_failures(row) -> set[str]:
    """The names of the battery checks that running ``row`` turns to FAIL."""
    from tropmoduli import cli

    battery, failed = cli._battery, set()

    def spy(*args):
        payload = battery(*args)
        failed.update(c["name"] for c in payload["checks"] if c["verdict"] == "FAIL")
        return payload

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_battery", spy)
        row(mp)
    return failed


def test_every_battery_check_has_a_fault_row():
    # a check no row can make fail earns no PASS
    names = _battery_check_names()
    assert "genus2" in names and "aut n=" in names
    failed = set().union(*map(_battery_failures, BATTERY_FAULT_ROWS))
    assert [name for name in names if not any(f.startswith(name) for f in failed)] == []


def test_report_and_count_build_no_tree_objects(monkeypatch):
    built = count_tree_objects(monkeypatch)
    assert invoke("report", "--max-n", "6")[0] == EXIT_OK
    assert invoke("count", "--check", "formula", "--n", "7")[0] == EXIT_OK
    assert built == {}


def test_theorem_report_builds_no_splits(monkeypatch):
    # the marking action, the reconstruction and the cell checks, including
    # 100 sampled elements, run on ray masks once the complex is built
    cx = complex_for(6)
    built = count_built(monkeypatch, Split)
    assert main_theorem_report(cx, DEFAULT_SEED, 100)["verdict"] == "PASS"
    assert built == {}


def test_report_enumerates_and_builds_each_n_once(monkeypatch):
    # cli is the only module that builds complexes (automorphisms takes
    # them built)
    from tropmoduli import cli, cones

    builds, enumerations = Counter(), Counter()

    def counted(counter, fn):
        def wrapper(n, *args, **kwargs):
            counter[n] += 1
            return fn(n, *args, **kwargs)

        return wrapper

    build, enumerate_ = cones.build_complex, cones.enumerate_strata
    monkeypatch.setattr(cli, "build_complex", counted(builds, build))
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


def test_count_and_report_walk_each_clade_tree_once(monkeypatch):
    # the contraction check in build_complex records the vertex profiles
    # the counting check reads
    from tropmoduli import cones

    walks = count_calls(monkeypatch, cones, "check_contractions", lambda cx: cx.n)
    assert invoke("count", "--check", "formula", "--n", "7")[0] == EXIT_OK
    assert walks == {7: 1}
    walks.clear()
    assert invoke("report", "--max-n", "7")[0] == EXIT_OK
    assert walks == {4: 1, 5: 1, 6: 1, 7: 1}


def test_count_formula_runs_the_brute_force_once_per_distinct_profile(monkeypatch):
    from tropmoduli import cli

    calls = count_calls(monkeypatch, cli, "brute_force_partition_count")
    assert invoke("count", "--check", "formula", "--n", "7")[0] == EXIT_OK
    profiles = set(complex_for(7).vertex_profiles)
    assert len(profiles) == 13
    assert sum(calls.values()) <= sum(map(len, profiles))


def test_each_automorphism_fact_is_checked_once(monkeypatch):
    # one reconstruction per generator (4 + 5 at n = 5, 6) plus one per
    # distinct sample that is no generator (68 and 94 of the 100 draws at
    # n = 5, 6); the poset search runs only when asked for
    from tropmoduli import automorphisms

    calls = Counter()

    def counted(name):
        fn = getattr(automorphisms, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(automorphisms, name, wrapper)

    counted("reconstruct_sigma")
    counted("aut_via_poset")
    assert invoke("report", "--max-n", "6")[0] == EXIT_OK
    assert calls["reconstruct_sigma"] == 171
    calls.clear()
    assert invoke("aut", "--n", "6", "--method", "graph")[0] == EXIT_OK
    assert calls == {"reconstruct_sigma": 5}
    assert invoke("aut", "--n", "6", "--method", "both")[0] == EXIT_OK
    assert calls["aut_via_poset"] == 1


def test_each_generator_cell_map_runs_once(monkeypatch):
    # each distinct element is cell-checked once, keyed by n and by how
    # often it was reconstructed before: the graph route checks its
    # generators before any reconstruction (5 at n = 6, 6 at n = 7, and
    # the n = 4 ones, which are never reconstructed), and report checks
    # each distinct sample that is no generator after reconstructing it
    # (68 and 94 of the 100 draws at n = 5, 6).  The poset search's own
    # completions are not counted.
    from tropmoduli import automorphisms
    from tropmoduli.cones import ConeComplex

    rebuilt = count_calls(monkeypatch, automorphisms, "reconstruct_sigma", lambda f: f.ray_perm)
    checked = count_calls(
        monkeypatch, ConeComplex, "unmapped_cell", lambda cx, p: (cx.n, tuple(p), rebuilt[tuple(p)])
    )
    poset = automorphisms.aut_via_poset

    def uncounted_poset(cx):
        before = checked.copy()
        group = poset(cx)
        checked.clear()
        checked.update(before)
        return group

    monkeypatch.setattr(automorphisms, "aut_via_poset", uncounted_poset)
    for argv, want in (
        (("aut", "--n", "6", "--method", "graph"), {(6, 0): 5}),
        (("aut", "--n", "4"), {(4, 0): 2}),
        (("aut", "--n", "7"), {(7, 0): 6}),
        (("report", "--max-n", "6"), {(4, 0): 2, (5, 0): 4, (5, 1): 68, (6, 0): 5, (6, 1): 94}),
    ):
        rebuilt.clear()
        checked.clear()
        assert invoke(*argv)[0] == EXIT_OK
        assert set(checked.values()) == {1}, argv
        assert Counter((n, before) for n, _, before in checked) == want, argv


def _faulty_catalog(monkeypatch, fault):
    """Let every complex be built from a catalog whose cell table
    ``fault`` rewrites, given the catalog."""
    from dataclasses import replace

    from tropmoduli import cones

    enumerate_ = cones.enumerate_strata

    def faulty(n):
        catalog = enumerate_(n)
        return replace(catalog, cell_rays=fault(catalog))

    monkeypatch.setattr(cones, "enumerate_strata", faulty)


def test_a_catalog_missing_a_face_fails_the_check(monkeypatch):
    # with one 2-cell dropped at n = 6, a 3-cell has a face that is no cell
    def drop_a_two_cell(catalog):
        first = catalog.dim_ranges[2].start
        return catalog.cell_rays[:first] + catalog.cell_rays[first + 1:]

    _faulty_catalog(monkeypatch, drop_a_two_cell)
    code, out, err = invoke("aut", "--n", "6")
    assert (code, out) == (EXIT_FAIL, "")
    assert " gives no cell" in one_check_failed(err)


def test_a_catalog_listing_a_cell_twice_fails_the_check():
    # the last maximal cell at n = 6 appended twice more, and the first
    # ray listed twice in place
    def repeat_the_last_cell(catalog):
        return catalog.cell_rays + catalog.cell_rays[-1:] * 2

    def repeat_the_first_ray(catalog):
        return catalog.cell_rays[:2] + catalog.cell_rays[1:]

    for fault, line in (
        (repeat_the_last_cell, "check failed: cell {5,6} | {4,5,6} | {3,4,5,6} is listed twice"),
        (repeat_the_first_ray, "check failed: cell {2,3} is listed twice"),
    ):
        with pytest.MonkeyPatch.context() as mp:
            _faulty_catalog(mp, fault)
            for argv in (("count", "--check", "formula", "--n", "6"), ("aut", "--n", "6")):
                code, out, err = invoke(*argv)
                assert (code, out) == (EXIT_FAIL, ""), argv
                assert one_check_failed(err) == line, argv


def test_order_check_sifts_each_schreier_generator_once(monkeypatch):
    # the cross-check's chain starts from the search's base, so at n = 7
    # one round (one _first_residue call) completes it: 126 Schreier
    # generators are sifted (a chain restarted from level 0 makes 581
    # sifts and 5 rounds)
    from tropmoduli.groups import _StabilizerChain

    work = Counter()

    def counted(name):
        method = getattr(_StabilizerChain, name)

        def wrapper(self, *args):
            work[name] += 1
            return method(self, *args)

        return wrapper

    for name in ("_sift", "_first_residue"):
        monkeypatch.setattr(_StabilizerChain, name, counted(name))
    assert invoke("aut", "--n", "7")[0] == EXIT_OK
    assert 0 < work["_sift"] <= 150
    assert work["_first_residue"] == 1


def test_genus2_lists_each_edge_group_once(monkeypatch):
    from tropmoduli import genus2

    # 7 cells, each enumerating its graph's self-isomorphisms at most once
    calls = Counter()
    isomorphisms = genus2.weighted_graph_isomorphisms

    def counted(g, h):
        calls["self"] += g is h
        return isomorphisms(g, h)

    monkeypatch.setattr(genus2, "weighted_graph_isomorphisms", counted)
    assert invoke("genus2")[0] == EXIT_OK
    assert 0 < calls["self"] <= 7


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
        ("aut", "--n", "3"),
        ("count", "--check", "formula", "--n", "5", "--bound", "20"),
        ("count", "--check", "formula", "--n", "3"),
        ("aut", "--n", "5", "--method", "poset"),
    ):
        code, out, err = invoke(*argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "error" in err
    # the flag that does not apply is named, not silently ignored
    assert "--n" in invoke("count", "--check", "lemma", "--n", "5")[2]
    assert "--n" in invoke("aut", "--n", "3")[2]
    assert "--n" in invoke("count", "--check", "formula", "--n", "3")[2]
    assert "--method" in invoke("aut", "--n", "5", "--method", "poset")[2]
    assert "--bound" in invoke("count", "--check", "formula", "--n", "5", "--bound", "20")[2]


def test_oversized_runs_exit_before_work():
    too_big = str(ENVELOPE_MAX_N + 1)
    for argv in (
        ("count", "--check", "lemma", "--bound", str(LEMMA_MAX_BOUND + 1)),
        ("report", "--max-n", too_big),
        ("aut", "--n", too_big),
        ("count", "--check", "formula", "--n", too_big),
        ("complex", "--n", too_big),
    ):
        code, out, err = invoke(*argv)
        assert code == EXIT_ENVELOPE, argv
        assert out == "" and "envelope" in err
        assert "PASS" not in err


def test_aut_checks_the_envelope_before_the_expected_order(monkeypatch):
    # the expected order of a huge n is n!, which takes seconds to minutes
    # to compute; the envelope must reject n before anything asks for it
    asked = []
    monkeypatch.setattr(math, "factorial", asked.append)
    for method in ("graph", "both"):
        code, out, err = invoke("aut", "--n", "1000000", "--method", method)
        assert code == EXIT_ENVELOPE, method
        assert out == "" and "envelope" in err
    assert asked == []


def test_every_subcommand_has_one_handler():
    # a subcommand added without a handler fails here, not at run time
    from tropmoduli import cli

    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(cli.HANDLERS) == set(sub.choices)
