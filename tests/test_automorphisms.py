"""Automorphism computations: the graph search against known groups,
method agreement, the marking action, permutation reconstruction, and
the assembled reports."""

import dataclasses
import itertools
import random
from functools import lru_cache

import pytest

from tropmoduli import automorphisms
from tropmoduli import (
    ComplexAutomorphism,
    Split,
    aut_via_compat_graph,
    aut_via_poset,
    reconstruct_sigma,
    sn_action,
    sn_kernel,
    verify_main_theorem,
    verify_sn_surjectivity,
)
from tropmoduli.automorphisms import (
    DEFAULT_SEED,
    ReconstructionError,
    graph_automorphism_group,
    marking_ray_permutation,
    sn_image_group,
)
from tropmoduli.enumeration import EnvelopeError
from tropmoduli.groups import PermutationGroup, compose_perms, perm_cycles
from tropmoduli.trees import compose_marking_perms

from shared import complex_for


# ---------------------------------------------------------------------------
# the graph automorphism search on known graphs


def _nbrs(v, edges):
    out = [[] for _ in range(v)]
    for a, b in edges:
        out[a].append(b)
        out[b].append(a)
    return out


GRAPH_CASES = [
    (3, [], 6),  # empty graph: all of S_3
    (4, [(0, 1), (1, 2), (2, 3)], 2),  # path: reversal only
    (5, [(i, (i + 1) % 5) for i in range(5)], 10),  # 5-cycle: dihedral
    (4, [(a, b) for a in range(4) for b in range(a + 1, 4)], 24),  # K4
    (6, [(0, 1), (2, 3), (4, 5)], 48),  # 3 disjoint edges: S_2 wr S_3
    (1, [], 1),
    (0, [], 1),
    # regular graphs, on which refinement alone splits nothing
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 72),  # 2 triangles
    (6, [(a, b) for a in range(3) for b in range(3, 6)], 72),  # K3,3
    (8, [(a, a ^ 1 << i) for a in range(8) for i in range(3) if a < a ^ 1 << i], 48),  # cube
    # C6 + 2 triangles: Aut(C6) x (S_3 wr S_2)
    (12, [(i, (i + 1) % 6) for i in range(6)] + [(6 + i, 6 + (i + 1) % 3) for i in range(3)]
     + [(9 + i, 9 + (i + 1) % 3) for i in range(3)], 864),
]


@pytest.mark.parametrize("v,edges,order", GRAPH_CASES)
def test_graph_groups(v, edges, order):
    assert graph_automorphism_group(_nbrs(v, edges)).order() == order


def _random_graphs(count=240, max_v=7, seed=2014):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        v = rng.randint(0, max_v)
        density = rng.random()
        edges = [e for e in itertools.combinations(range(v), 2) if rng.random() < density]
        graphs.append((v, edges))
    return graphs


@lru_cache(maxsize=None)
def random_graph_cases():
    """Seeded random graphs on at most 7 vertices with their group orders,
    counted over all vertex permutations (no code shared with the search)."""
    cases = []
    for v, edges in _random_graphs():
        edge_set = {frozenset(e) for e in edges}
        order = sum(
            all(frozenset((p[a], p[b])) in edge_set for a, b in edges)
            for p in itertools.permutations(range(v))
        )
        cases.append((v, edges, order))
    return tuple(cases)


def test_random_graph_orders_match_brute_force():
    for v, edges, order in random_graph_cases():
        assert graph_automorphism_group(_nbrs(v, edges)).order() == order, (v, edges)


def test_traces_only_prune(monkeypatch):
    # with every refinement trace equal nothing is pruned, and the leaf
    # checks alone must still give the exact orders
    monkeypatch.setattr(automorphisms, "hash", lambda _: 0, raising=False)
    for v, edges, order in random_graph_cases() + tuple(GRAPH_CASES):
        assert graph_automorphism_group(_nbrs(v, edges)).order() == order, (v, edges)
    assert graph_automorphism_group(complex_for(5).compat_neighbors()).order() == 120


def test_leaf_checks_decide_without_refinement(monkeypatch):
    # with refinement switched off the search is plain individualization
    # backtracking, and only the leaf's adjacency check rejects maps
    monkeypatch.setattr(automorphisms, "_refine", lambda nbrs, colors: (colors, ()))
    for v, edges, order in random_graph_cases():
        assert graph_automorphism_group(_nbrs(v, edges)).order() == order, (v, edges)


def test_leaf_maps_must_carry_the_level_coloring(monkeypatch):
    # every leaf map is the swap of 0 and 1, an automorphism of K4; it is
    # kept only where it sends the level's vertex to the candidate (0 to
    # 1 at the top level), so the search finds exactly the group it makes
    monkeypatch.setattr(automorphisms, "_find_iso", lambda *args: (1, 0, 2, 3))
    k4 = list(itertools.combinations(range(4), 2))
    group = graph_automorphism_group(_nbrs(4, k4))
    assert group.generators == ((1, 0, 2, 3),)
    assert group.order() == 2


def test_petersen_graph():
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[a], idx[b])
        for a, b in itertools.combinations(pairs, 2)
        if not set(a) & set(b)
    ]
    assert graph_automorphism_group(_nbrs(10, edges)).order() == 120


def test_generators_are_automorphisms():
    cx = complex_for(5)
    nbrs = cx.compat_neighbors()
    group = aut_via_compat_graph(cx)
    for g in group.generators:
        for v in range(len(nbrs)):
            assert {g[u] for u in nbrs[v]} == set(nbrs[g[v]])


# ---------------------------------------------------------------------------
# the two methods


@pytest.mark.parametrize("n,order", [(3, 1), (4, 6), (5, 120), (6, 720)])
def test_graph_method_orders(n, order):
    assert aut_via_compat_graph(complex_for(n)).order() == order


@pytest.mark.parametrize("n,order", [(3, 1), (4, 6), (5, 120), (6, 720)])
def test_poset_method_orders(n, order):
    assert aut_via_poset(complex_for(n)).order() == order


def test_methods_agree_as_groups():
    for n in (4, 5, 6):
        cx = complex_for(n)
        poset_group = aut_via_poset(cx)
        assert len(poset_group.generators) <= 10
        assert aut_via_compat_graph(cx).equals(poset_group)


def test_poset_envelope():
    # the envelope is the only cap: n = 9 stops when the complex is built
    with pytest.raises(EnvelopeError):
        aut_via_poset(complex_for(9))


# ---------------------------------------------------------------------------
# the marking action


def test_identity_acts_trivially():
    cx = complex_for(5)
    f = sn_action(cx, (1, 2, 3, 4, 5))
    assert f.is_identity()


def test_klein_element_acts_trivially_n4():
    cx = complex_for(4)
    assert sn_action(cx, (2, 1, 4, 3)).is_identity()


def test_transposition_ray_action_n4():
    cx = complex_for(4)
    f = sn_action(cx, (2, 1, 3, 4))
    moved = {
        tuple(cx.rays[r].side()): tuple(cx.rays[f.ray_perm[r]].side())
        for r in range(3)
    }
    assert moved == {(2, 3): (2, 4), (2, 4): (2, 3), (3, 4): (3, 4)}


def test_kernel_is_klein_n4():
    assert sorted(sn_kernel(complex_for(4))) == [
        (1, 2, 3, 4),
        (2, 1, 4, 3),
        (3, 4, 1, 2),
        (4, 3, 2, 1),
    ]


def test_kernel_trivial_n5_n6():
    for n in (5, 6):
        assert sn_kernel(complex_for(n)) == [tuple(range(1, n + 1))]


def test_action_is_homomorphism_all_of_s4_s5():
    for n in (4, 5):
        cx = complex_for(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        rays = {sigma: marking_ray_permutation(cx, sigma) for sigma in perms}
        for sigma in perms:
            for tau in perms:
                assert rays[compose_marking_perms(sigma, tau)] == compose_perms(
                    rays[sigma], rays[tau]
                )


def test_image_group_orders():
    assert sn_image_group(complex_for(4)).order() == 6
    assert sn_image_group(complex_for(5)).order() == 120


def test_cell_map_preserves_dimension_and_faces():
    cx = complex_for(5)
    f = sn_action(cx, (2, 3, 4, 5, 1))
    for i, j in enumerate(f.cell_map):
        assert cx.dims[i] == cx.dims[j]
        for r, tgt in zip(cx.cell_rays[i], cx.codim1[i]):
            image_face, _ = cx.face(j, [f.split_image(cx.rays[r])])
            assert f.cell_map[tgt] == image_face


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_round_trip_generators():
    for n in (5, 6):
        cx = complex_for(n)
        for g in aut_via_compat_graph(cx).generators:
            sigma = reconstruct_sigma(ComplexAutomorphism(cx, g))
            assert sn_action(cx, sigma).ray_perm == tuple(g)


def test_reconstruct_known_sigma():
    cx = complex_for(5)
    for sigma in [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1), (1, 3, 2, 5, 4)]:
        assert reconstruct_sigma(sn_action(cx, sigma)) == sigma


def test_reconstruct_identity():
    cx = complex_for(5)
    assert reconstruct_sigma(sn_action(cx, (1, 2, 3, 4, 5))) == (1, 2, 3, 4, 5)


def test_reconstruct_refuses_n4():
    cx = complex_for(4)
    with pytest.raises(ValueError):
        reconstruct_sigma(sn_action(cx, (2, 1, 3, 4)))


def _type_breaking_swap(cx):
    """The ray transposition of {2,3} with {2,3,4} at n = 6: a 2-side
    ray with a 3-side ray, which cannot extend to the complex."""
    a = cx.ray_index[Split.from_side(6, [2, 3])]
    b = cx.ray_index[Split.from_side(6, [2, 3, 4])]
    perm = list(range(len(cx.rays)))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def test_reconstruct_rejects_non_automorphism():
    # sigma comes out as the identity from the untouched strata {1,j}; the
    # ray check then names the first swapped ray
    cx = complex_for(6)
    f = ComplexAutomorphism(cx, _type_breaking_swap(cx))
    with pytest.raises(ReconstructionError, match=r"sends ray \{2,3\} to \{2,3\}, "):
        reconstruct_sigma(f)


def test_cell_map_rejects_non_automorphism():
    # some cell holding one of the swapped rays maps to a ray set that is
    # no cell, and the error names the first such cell
    cx = complex_for(6)
    perm = _type_breaking_swap(cx)
    cells = set(cx.cell_ray_sets())
    bad = next(
        i
        for i, s in enumerate(cx.cell_ray_sets())
        if frozenset(perm[r] for r in s) not in cells
    )
    with pytest.raises(ValueError, match=rf"\bcell {bad}\b"):
        ComplexAutomorphism(cx, perm).cell_map


def test_cell_map_names_a_cell_sent_to_another_dimension():
    # relabel the ray {3,4} at n = 5 as a 2-cell: swapping markings 2 and
    # 4 sends the ray {2,3} there, and the error names {2,3}, which comes
    # first
    cx = complex_for(5)
    c23, c34 = (cx.index[(cx.ray_index[Split.from_side(5, s)],)] for s in ([2, 3], [3, 4]))
    assert c23 < c34
    dims = list(cx.dims)
    dims[c34] = 2
    broken = dataclasses.replace(cx)
    broken.__dict__["dims"] = tuple(dims)
    f = ComplexAutomorphism(broken, marking_ray_permutation(cx, (1, 4, 3, 2, 5)))
    with pytest.raises(ValueError, match=rf"map cell {c23} \(\{{2,3\}}\) to a cell"):
        f.cell_map


def test_list_given_automorphism_is_normalised():
    cx = complex_for(5)
    sigma = (2, 1, 3, 4, 5)
    perm = marking_ray_permutation(cx, sigma)
    f = ComplexAutomorphism(cx, list(perm))
    assert reconstruct_sigma(f) == sigma
    assert f == ComplexAutomorphism(cx, perm)
    assert hash(f) == hash(ComplexAutomorphism(cx, perm))


def test_surjectivity_reports_a_failing_generator():
    cx = complex_for(6)
    swap = _type_breaking_swap(cx)
    report = verify_sn_surjectivity(cx, PermutationGroup(len(cx.rays), (swap,)), samples=0)
    assert report["verdict"] == "FAIL"
    assert (report["checked"], report["ok"]) == (1, 0)
    assert len(report["failures"]) == 1
    assert report["failures"][0].startswith("generator:")


def test_surjectivity_n5_n6():
    for n in (5, 6):
        report = verify_sn_surjectivity(complex_for(n), samples=100)
        assert report["verdict"] == "PASS"
        assert report["ok"] == report["checked"]


def test_report_samples_reach_odd_marking_permutations():
    # the graph search's generators are all odd at these n, so a product
    # of a fixed number of them stays in one half of S_n; the report's
    # uniform sample must reach both halves
    for n in (5, 6):
        cx = complex_for(n)
        sample = aut_via_compat_graph(cx).random_elements(100, DEFAULT_SEED)
        sigmas = [reconstruct_sigma(ComplexAutomorphism(cx, p)) for p in sample]
        odd = [s for s in sigmas if sum(len(c) - 1 for c in perm_cycles([x - 1 for x in s])) % 2]
        assert 0 < len(odd) < len(sigmas)


def test_reconstruct_samples_n7():
    cx = complex_for(7)
    group = aut_via_compat_graph(cx)
    for perm in group.random_elements(10, seed=99):
        sigma = reconstruct_sigma(ComplexAutomorphism(cx, perm))
        assert marking_ray_permutation(cx, sigma) == perm


def test_no_four_vertex_chains_below_n6():
    # the smallest n with a stable 4-vertex chain is 6
    from shared import catalog

    def chains4(n):
        out = []
        for form in catalog(n).by_dimension.get(3, ()):
            t = form.to_tree()
            if t.num_vertices == 4 and sorted(
                t.valence(v) for v in range(4)
            ) == [1, 1, 2, 2]:
                out.append(form)
        return out

    assert chains4(5) == []
    assert len(chains4(6)) > 0


def test_chain_middle_edge_preserved():
    # on every 4-vertex chain, any automorphism sends the edge touching
    # no leaf to the edge touching no leaf
    cx = complex_for(6)
    group = aut_via_compat_graph(cx)

    def middle_split(t):
        for e, (u, v) in enumerate(t.edges):
            if t.valence(u) == 2 and t.valence(v) == 2:
                return t.splits[e]
        raise AssertionError("chain without a middle edge")

    checked = 0
    for i in cx.dim_ranges[3]:
        t = cx.cells[i].to_tree()
        if t.num_vertices != 4 or sorted(t.valence(v) for v in range(4)) != [1, 1, 2, 2]:
            continue
        for g in group.generators:
            f = ComplexAutomorphism(cx, g)
            image = cx.cells[f.cell_map[i]].to_tree()
            assert f.split_image(middle_split(t)) == middle_split(image)
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# the assembled reports


def test_verify_main_theorem_n4():
    report = verify_main_theorem(4)
    assert report["verdict"] == "PASS"
    assert report["order"] == 6
    assert report["kernel_is_klein"]
    assert report["marking_image_matches"]


def test_verify_main_theorem_n5():
    report = verify_main_theorem(5)
    assert report["verdict"] == "PASS"
    assert report["order"] == 120
    assert report["methods_agree"]
    assert report["reconstruction_ok"]


def test_verify_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_main_theorem(3)
    with pytest.raises(EnvelopeError):
        verify_main_theorem(9)
