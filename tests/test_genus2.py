"""The genus-2 fixture: integrity of the seven strata, edge groups,
face arrows, and triviality of the automorphism search."""

import itertools

import pytest

from tropmoduli import genus2
from tropmoduli.cli import EXIT_FAIL
from tropmoduli.genus2 import (
    QuotientCell,
    WeightedGraph,
    _check_cell,
    _edge_class,
    aut_m2,
    bridge_loop_swap_violation,
    build_m2_complex,
    contract_weighted_edge,
    m2_cells,
    weighted_graph_isomorphisms,
)
from tropmoduli.groups import compose_perms, identity_perm

from functools import lru_cache

from genus2_reference import (
    check_candidate,
    edge_maps_equivalent,
    reference_search,
    whole_candidates,
)
from shared import count_calls, invoke, one_check_failed, unreached_raises


@lru_cache(maxsize=1)
def m2():
    return build_m2_complex()


def cell(name):
    cx = m2()
    return cx.cells[cx.cell_index(name)]


# ---------------------------------------------------------------------------
# weighted graphs


def test_genus_two_everywhere():
    for c in m2().cells:
        assert c.graph.genus == 2


def test_stability_everywhere():
    for c in m2().cells:
        assert c.graph.is_stable()


def test_unstable_example():
    # a weight-0 vertex of valence 2 is not allowed
    g = WeightedGraph((0, 1), ((0, 1), (0, 1)))
    assert g.genus == 2 and not g.is_stable()


def test_valence_counts_loops_twice():
    assert cell("figure_eight").graph.valence(0) == 4
    assert cell("lollipop").graph.valence(0) == 3


def test_rejects_disconnected():
    with pytest.raises(ValueError):
        WeightedGraph((1, 1), ())


@pytest.mark.parametrize(
    "weights,edges,message",
    [
        ((), (), "need at least one vertex"),
        ((1, -1), ((0, 1),), "weights must be non-negative"),
        ((1,), ((0, 1),), "edge (0,1) has unknown endpoint"),
    ],
)
def test_malformed_graph_is_rejected(weights, edges, message):
    with pytest.raises(ValueError) as info:
        WeightedGraph(weights, edges)
    assert str(info.value) == message


def test_f_vector():
    assert m2().f_vector() == [1, 2, 2, 2]


# ---------------------------------------------------------------------------
# edge groups


def test_theta_edge_group_is_symmetric_on_three_edges():
    assert cell("theta").edge_group.order() == 6
    assert set(cell("theta").edge_group_elements) == {
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    }


def test_dumbbell_edge_group_swaps_loops_fixes_bridge():
    assert cell("dumbbell").edge_group.order() == 2
    assert set(cell("dumbbell").edge_group_elements) == {(0, 1, 2), (2, 1, 0)}


def test_figure_eight_edge_group():
    assert cell("figure_eight").edge_group.order() == 2


def test_remaining_edge_groups_trivial():
    for name in ("lollipop", "loop_w1", "bridge_w1_w1", "point_w2"):
        assert cell(name).edge_group.order() == 1


def test_every_edge_group_is_a_group():
    # the listed edge maps hold the identity, are closed under composition,
    # and are as many as the group their chain generates, counted apart
    for c in m2().cells:
        elements = c.edge_group_elements
        assert identity_perm(c.dimension) in elements
        assert {compose_perms(g, h) for g in elements for h in elements} == set(elements)
        assert len(elements) == c.edge_group.order()


def test_isomorphism_respects_weights():
    g = WeightedGraph((0, 1), ((0, 0), (0, 1)))
    h = WeightedGraph((1, 0), ((1, 1), (0, 1)))
    assert next(weighted_graph_isomorphisms(g, h), None) is not None
    k = WeightedGraph((0, 0), ((0, 0), (0, 1)))
    assert next(weighted_graph_isomorphisms(g, k), None) is None


def test_isomorphism_needs_matching_edge_classes():
    # same weights and edge count, but three parallel edges against two
    # loops and a bridge
    dumbbell, theta = cell("dumbbell").graph, cell("theta").graph
    assert next(weighted_graph_isomorphisms(dumbbell, theta), None) is None
    assert next(weighted_graph_isomorphisms(theta, dumbbell), None) is None


def test_theta_self_isomorphisms():
    # 2 vertex maps times 6 bijections of the parallel class
    theta = cell("theta").graph
    pairs = list(weighted_graph_isomorphisms(theta, theta))
    assert len(pairs) == 12 and len(set(pairs)) == 12
    assert len({emap for _, emap in pairs}) == 6


def test_two_parallel_classes_self_isomorphisms():
    # two loops at 0 and two edges 0-1: the identity vertex map with every
    # swap within each class.  Edge maps are tried in permutation order,
    # so (0, 3, 2, 1) comes second; a product over per-class permutations
    # would give (2, 1, 0, 3) second.  Only the set and the first pair,
    # which build_m2_complex reads, are relied on.
    g = WeightedGraph((0, 0), ((0, 1), (0, 0), (0, 1), (0, 0)))
    pairs = list(weighted_graph_isomorphisms(g, g))
    assert pairs[0] == ((0, 1), (0, 1, 2, 3))
    assert sorted(pairs) == [
        ((0, 1), (0, 1, 2, 3)),
        ((0, 1), (0, 3, 2, 1)),
        ((0, 1), (2, 1, 0, 3)),
        ((0, 1), (2, 3, 0, 1)),
    ]


# ---------------------------------------------------------------------------
# contraction and face arrows


def test_contract_loop_adds_weight():
    g = cell("figure_eight").graph
    c = contract_weighted_edge(g, 0)
    assert c.weights == (1,) and len(c.edges) == 1


def test_contract_bridge_merges_weights():
    g = cell("bridge_w1_w1").graph
    c = contract_weighted_edge(g, 0)
    assert c.weights == (2,) and c.edges == ()


def test_contract_rejects_bad_index():
    with pytest.raises(ValueError):
        contract_weighted_edge(cell("theta").graph, 5)


def test_contraction_keeps_the_genus():
    # every edge of every fixture cell, of a few graphs whose other edges
    # become loops or stay parallel when an edge is contracted, and of one
    # whose contracted edge (0, 2) has a vertex numbered after it, so the
    # later vertices move down: per graph, each edge's contraction as
    # (weights, edges)
    graphs = {
        cell("point_w2").graph: [],
        cell("bridge_w1_w1").graph: [((2,), ())],
        cell("loop_w1").graph: [((2,), ())],
        cell("figure_eight").graph: [((1,), ((0, 0),))] * 2,
        cell("lollipop").graph: [((1, 1), ((0, 1),)), ((1,), ((0, 0),))],
        cell("dumbbell").graph: [
            ((1, 0), ((0, 1), (1, 1))),
            ((0,), ((0, 0), (0, 0))),
            ((0, 1), ((0, 0), (0, 1))),
        ],
        cell("theta").graph: [((0,), ((0, 0), (0, 0)))] * 3,
        WeightedGraph((0, 0, 0), ((0, 1), (1, 2), (2, 0), (0, 1))): [
            ((0, 0), ((0, 1), (0, 1), (0, 0))),
            ((0, 0), ((0, 1), (0, 1), (0, 1))),
            ((0, 0), ((0, 1), (0, 1), (0, 1))),
            ((0, 0), ((0, 0), (0, 1), (0, 1))),
        ],
        WeightedGraph((1, 0, 2), ((0, 1), (1, 2), (1, 1), (2, 2))): [
            ((1, 2), ((0, 1), (0, 0), (1, 1))),
            ((1, 2), ((0, 1), (1, 1), (1, 1))),
            ((1, 1, 2), ((0, 1), (1, 2), (2, 2))),
            ((1, 0, 3), ((0, 1), (1, 2), (1, 1))),
        ],
        WeightedGraph((0, 3), ((0, 1), (0, 1), (0, 0))): [
            ((3,), ((0, 0), (0, 0))),
            ((3,), ((0, 0), (0, 0))),
            ((1, 3), ((0, 1), (0, 1))),
        ],
        WeightedGraph((0, 1, 2, 0), ((0, 2), (2, 3), (1, 3), (1, 2), (0, 0))): [
            ((2, 1, 0), ((0, 2), (1, 2), (0, 1), (0, 0))),
            ((0, 1, 2), ((0, 2), (1, 2), (1, 2), (0, 0))),
            ((0, 1, 2), ((0, 2), (1, 2), (1, 2), (0, 0))),
            ((0, 3, 0), ((0, 1), (1, 2), (1, 2), (0, 0))),
            ((1, 1, 2, 0), ((0, 2), (2, 3), (1, 3), (1, 2))),
        ],
    }
    assert len(graphs) == len(m2_cells()) + 4
    for g, expected in graphs.items():
        contracted = [contract_weighted_edge(g, e) for e in range(len(g.edges))]
        assert [(c.weights, c.edges) for c in contracted] == expected
        assert all(c.genus == g.genus for c in contracted)


def test_specialization_arrows_complete():
    # the covering relations of the face poset, by cell name
    cx = m2()
    covers = {
        c.name: {cx.cells[face].name for face, _ in per_edge}
        for c, per_edge in zip(cx.cells, cx.arrows)
    }
    assert covers == {
        "theta": {"figure_eight"},
        "dumbbell": {"figure_eight", "lollipop"},
        "figure_eight": {"loop_w1"},
        "lollipop": {"loop_w1", "bridge_w1_w1"},
        "loop_w1": {"point_w2"},
        "bridge_w1_w1": {"point_w2"},
        "point_w2": set(),
    }


def test_retained_edge_maps_are_pinned():
    # each arrow keeps the first isomorphism the search yields onto its
    # face, so a change in which isomorphism comes first shows here
    assert m2().arrows == (
        (),
        ((0, {}),),
        ((0, {}),),
        ((2, {1: 0}), (2, {0: 0})),
        ((1, {1: 0}), (2, {0: 0})),
        ((4, {1: 1, 2: 0}), (3, {0: 0, 2: 1}), (4, {0: 0, 1: 1})),
        ((3, {1: 0, 2: 1}), (3, {0: 0, 2: 1}), (3, {0: 0, 1: 1})),
    )


def with_cells(monkeypatch, cells):
    monkeypatch.setattr(genus2, "m2_cells", lambda: cells)


def genus2_check_failed():
    """The one line that ``tropmoduli genus2`` prints when it fails a check."""
    code, out, err = invoke("genus2")
    assert (code, out) == (EXIT_FAIL, "")
    return one_check_failed(err)


def test_build_rejects_wrong_genus(monkeypatch):
    with_cells(monkeypatch, m2_cells() + (QuotientCell("point_w3", WeightedGraph((3,), ())),))
    with pytest.raises(AssertionError, match="point_w3 does not have genus 2"):
        build_m2_complex()
    assert genus2_check_failed() == "check failed: point_w3 does not have genus 2"


def test_build_rejects_unstable_cell(monkeypatch):
    bad = QuotientCell("bivalent", WeightedGraph((0, 1), ((0, 1), (0, 1))))
    with_cells(monkeypatch, m2_cells() + (bad,))
    with pytest.raises(AssertionError, match="bivalent is not stable"):
        build_m2_complex()
    assert genus2_check_failed() == "check failed: bivalent is not stable"


def test_build_rejects_ambiguous_contraction(monkeypatch):
    cells = m2_cells()
    loop = cells[2]
    assert loop.name == "loop_w1"
    with_cells(monkeypatch, cells[:3] + (loop,) + cells[3:])
    with pytest.raises(AssertionError, match="edge 0 of figure_eight matches 2 strata"):
        build_m2_complex()
    assert genus2_check_failed() == (
        "check failed: contracting edge 0 of figure_eight matches 2 strata"
    )


def test_build_rejects_contraction_to_no_stratum(monkeypatch):
    # without the weight-1 loop, contracting a loop of the figure eight
    # gives no cell
    cells = m2_cells()
    assert cells[2].name == "loop_w1"
    with_cells(monkeypatch, cells[:2] + cells[3:])
    assert genus2_check_failed() == (
        "check failed: contracting edge 0 of figure_eight matches 0 strata"
    )


def test_build_rejects_face_after_its_cell(monkeypatch):
    with_cells(monkeypatch, m2_cells()[::-1])
    with pytest.raises(
        AssertionError, match="face figure_eight of theta does not come before it"
    ):
        build_m2_complex()
    assert genus2_check_failed() == (
        "check failed: face figure_eight of theta does not come before it"
    )


def test_a_face_check_that_accepts_everything_fails_the_swap_witness(monkeypatch):
    monkeypatch.setattr(genus2, "_check_cell", lambda cx, cell_map, edge_maps, i: None)
    assert genus2_check_failed() == (
        "check failed: the bridge/loop swap was unexpectedly accepted"
    )


GENUS2_FAULT_ROWS = (
    test_build_rejects_wrong_genus,
    test_build_rejects_unstable_cell,
    test_build_rejects_ambiguous_contraction,
    test_build_rejects_contraction_to_no_stratum,
    test_build_rejects_face_after_its_cell,
    test_a_face_check_that_accepts_everything_fails_the_swap_witness,
)


def test_every_genus2_check_raise_has_a_fault_row():
    # a raise no fault row reaches is either untested or cannot fire
    assert unreached_raises(genus2, GENUS2_FAULT_ROWS) == []


def test_face_arrows_commute_with_edge_groups():
    # contracting edge g(e) lands in the same face as contracting e, for
    # every edge-group element g of the source
    cx = m2()
    for i, c in enumerate(cx.cells):
        for g in c.edge_group_elements:
            for e in range(c.dimension):
                assert cx.arrows[i][e][0] == cx.arrows[i][g[e]][0]


# ---------------------------------------------------------------------------
# the automorphism search


def test_aut_is_trivial():
    result = aut_m2(m2())
    assert result.group.order() == 1
    assert result.classes == 1
    # the surviving strict candidates are exactly the per-cell edge-group
    # choices around the identity
    expected = 1
    for c in m2().cells:
        expected *= c.edge_group.order()
    assert result.valid == expected


def test_search_work_bound():
    # one check per (cell, image, edge bijection) on a surviving branch,
    # against 1,152 whole candidates for the exhaustive product
    result = aut_m2(m2())
    assert result.candidates <= 100
    assert result.valid == 24


def test_each_edge_class_is_computed_once(monkeypatch):
    # the 24 valid candidates share their (cell, image, edge bijection)
    # keys: 14 distinct ones, against 24 x 7 = 168 computed per candidate
    calls = count_calls(monkeypatch, genus2, "_edge_class", lambda cx, i, i2, phi: (i, i2, phi))
    result = aut_m2(m2())
    assert (len(calls), sum(calls.values())) == (14, 14)
    assert (result.candidates, result.valid, result.classes) == (65, 24, 1)


def first_violation(cx, cell_map, edge_maps):
    # a whole candidate checked cell by cell, cells and edges in order
    violations = (_check_cell(cx, cell_map, edge_maps, i) for i in range(len(cx.cells)))
    return next((v for v in violations if v is not None), None)


def test_check_candidate_matches_reference():
    cx = m2()
    ref = reference_search(cx)
    assert ref.candidates == 1152
    accepted = []
    for cell_map, edge_maps in whole_candidates(cx):
        violation = first_violation(cx, cell_map, edge_maps)
        assert violation == check_candidate(cx, cell_map, edge_maps)
        if violation is None:
            accepted.append((cell_map, edge_maps))
    assert accepted == ref.valid and len(accepted) == 24


def test_aut_m2_matches_reference():
    cx = m2()
    ref = reference_search(cx)
    result = aut_m2(cx)
    assert (result.valid, result.classes) == (len(ref.valid), len(ref.classes))
    assert result.classes == 1


def test_class_key_matches_pairwise_equivalence():
    cx = m2()
    orders = set()
    for i, c in enumerate(cx.cells):
        for i2, image in enumerate(cx.cells):
            if image.dimension != c.dimension:
                continue
            orders.add((c.edge_group.order(), image.edge_group.order()))
            perms = list(itertools.permutations(range(c.dimension)))
            for phi1, phi2 in itertools.product(perms, repeat=2):
                same_key = _edge_class(cx, i, i2, phi1) == _edge_class(cx, i, i2, phi2)
                assert same_key == edge_maps_equivalent(cx, i, i2, phi1, phi2)
    # theta's order-6 group and the dumbbell's order-2 group, on either side
    assert {(6, 6), (2, 2), (2, 6), (6, 2)} <= orders


def test_identity_candidate_is_accepted():
    cx = m2()
    cell_map = tuple(range(len(cx.cells)))
    edge_maps = tuple(tuple(range(c.dimension)) for c in cx.cells)
    assert first_violation(cx, cell_map, edge_maps) is None


def test_bridge_loop_swap_rejected_with_witness():
    w = bridge_loop_swap_violation(m2())
    assert w.cell == "dumbbell"
    assert {w.face, w.image_face} == {"figure_eight", "lollipop"}
    assert w.describe() == (
        "contracting edge 0 of dumbbell gives lollipop, "
        "but the image edge contracts to figure_eight"
    )
