"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Everything is exact; the only tolerances are the stated runtime
budgets."""

import io
import json
import time

from tropmoduli.automorphisms import (
    DEFAULT_SEED,
    aut_via_compat_graph,
    aut_via_poset,
    main_theorem_report,
    sn_kernel,
)
from tropmoduli.cli import run
from tropmoduli.cones import star_count
from tropmoduli.counting import expansion_count_formula, lemma_power_sweep
from tropmoduli.enumeration import count_maximal, enumerate_strata, expansions
from tropmoduli.genus2 import aut_m2, bridge_loop_swap_violation, build_m2_complex

from shared import catalog, complex_for
from tree_oracles import automorphisms_of_tree


def _conclude(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_automorphism_orders_and_method_agreement():
    started = time.perf_counter()
    orders = {}
    for n in range(4, 8):
        orders[n] = aut_via_compat_graph(complex_for(n)).order()
    graph_elapsed = time.perf_counter() - started
    expected = {4: 6, 5: 120, 6: 720, 7: 5040}
    agree = all(
        aut_via_compat_graph(complex_for(n)).equals(aut_via_poset(complex_for(n)))
        for n in range(4, 7)
    )
    ok = orders == expected and graph_elapsed < 60 and agree
    _conclude(
        1,
        f"|Aut| = {orders} (expected {expected}), graph method {graph_elapsed:.1f}s "
        f"< 60s, graph/poset agreement for n<=6: {agree}",
        ok,
    )


def test_criterion_2_sn_surjectivity_with_reconstruction():
    results = {}
    for n in (5, 6):
        report = main_theorem_report(complex_for(n), DEFAULT_SEED, 100, poset=False)
        report = report["surjectivity"]
        results[n] = (report["ok"], report["checked"], report["verdict"])
    ok = all(v == "PASS" and got == total for got, total, v in results.values())
    _conclude(
        2,
        "sigma reconstruction round-trips 100% of generators and 100 random "
        f"elements for n=5,6: {results}",
        ok,
    )


def test_criterion_3_counting_formula():
    mismatch = 0
    strata = 0
    for n in range(3, 8):
        for form in catalog(n).all_forms():
            t = form.to_tree()
            strata += 1
            if expansion_count_formula(t) != len(expansions(t)):
                mismatch += 1
    star_mismatch = 0
    for n in range(3, 7):
        cx = complex_for(n)
        for i, form in enumerate(cx.cells):
            if star_count(cx, i) != expansion_count_formula(form.to_tree()):
                star_mismatch += 1
    ok = mismatch == 0 and star_mismatch == 0
    _conclude(
        3,
        f"expansion formula = brute force on {strata} strata (n<=7, "
        f"{mismatch} mismatches) and = star counts for n<=6 "
        f"({star_mismatch} mismatches)",
        ok,
    )


def test_criterion_4_enumeration_counts():
    maximal = {n: catalog(n).f_vector()[-1] for n in range(4, 9)}
    rays = {n: catalog(n).f_vector()[1] for n in range(4, 9)}
    expected_maximal = {n: count_maximal(n) for n in range(4, 9)}
    ok = (
        maximal == expected_maximal
        and list(expected_maximal.values()) == [3, 15, 105, 945, 10395]
        and rays == {n: 2 ** (n - 1) - n - 1 for n in range(4, 9)}
        and list(rays.values()) == [3, 10, 25, 56, 119]
        and maximal[4] == 3
    )
    _conclude(
        4,
        f"maximal strata {maximal} match (2n-5)!! and rays {rays} match "
        "2^(n-1)-n-1 for n=4..8",
        ok,
    )


def test_criterion_5_rigidity():
    checked = 0
    nontrivial = 0
    for n in range(3, 8):
        for form in catalog(n).all_forms():
            t = form.to_tree()
            checked += 1
            if automorphisms_of_tree(t) != [tuple(range(t.num_vertices))]:
                nontrivial += 1
    ok = nontrivial == 0
    _conclude(
        5,
        f"every one of {checked} stable strata (n<=7) has exactly the "
        f"identity automorphism ({nontrivial} exceptions)",
        ok,
    )


def test_criterion_6_lemma_sweep():
    started = time.perf_counter()
    checked, violations = lemma_power_sweep(20)
    elapsed = time.perf_counter() - started
    ok = violations == [] and elapsed < 10
    _conclude(
        6,
        f"power-of-two sweep: {checked} equal-sum pairs with entries <= 20, "
        f"{len(violations)} counterexamples, {elapsed:.2f}s < 10s",
        ok,
    )


def test_criterion_7_genus2():
    cx = build_m2_complex()
    result = aut_m2(cx)
    witness = bridge_loop_swap_violation(cx)
    theta_order = cx.cells[cx.cell_index("theta")].edge_group.order()
    ok = (
        len(cx.cells) == 7
        and result.group.order() == 1
        and result.classes == 1
        and {witness.face, witness.image_face} == {"figure_eight", "lollipop"}
        and theta_order == 6
    )
    _conclude(
        7,
        f"7-cell fixture has trivial Aut (order {result.group.order()}), the "
        f"bridge/loop swap fails on the {witness.face}/{witness.image_face} "
        f"arrows, and the theta edge action has order {theta_order}",
        ok,
    )


def test_criterion_8_klein_kernel():
    kernel = sorted(sn_kernel(complex_for(4)))
    expected = sorted([(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)])
    ok = kernel == expected
    _conclude(
        8,
        f"kernel of the marking action at n=4 is exactly the Klein "
        f"four-group: {kernel}",
        ok,
    )


def test_criterion_9_headless_report_deterministic():
    def run_report():
        out, err = io.StringIO(), io.StringIO()
        code = run(["report", "--max-n", "6"], stdout=out, stderr=err)
        return code, json.loads(out.getvalue())

    code1, report1 = run_report()
    code2, report2 = run_report()
    verdicts = [c["verdict"] for c in report1["payload"]["checks"]]
    ok = (
        code1 == code2 == 0
        and report1["verdict"] == "PASS"
        and all(v == "PASS" for v in verdicts)
        and report1["payload"] == report2["payload"]
    )
    _conclude(
        9,
        f"report --max-n 6 exits 0 with {len(verdicts)} PASS verdicts and "
        "byte-identical payloads across two runs",
        ok,
    )
