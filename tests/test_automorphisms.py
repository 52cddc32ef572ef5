"""Automorphism computations: the graph search against known groups,
method agreement, the marking action, permutation reconstruction, and
the cellwise witnesses."""

import itertools

import pytest

from tropmoduli import (
    ComplexAutomorphism,
    Split,
    aut_via_compat_graph,
    aut_via_poset,
    check_cellwise_permutation,
    reconstruct_sigma,
    sn_action,
    sn_kernel,
    verify_main_theorem,
    verify_sn_surjectivity,
)
from tropmoduli.automorphisms import (
    CellwiseError,
    ReconstructionError,
    graph_automorphism_group,
    image_marking_side,
    marking_ray_permutation,
    sn_image_group,
)
from tropmoduli.enumeration import EnvelopeError
from tropmoduli.groups import PermutationGroup, compose_perms, identity_perm
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


@pytest.mark.parametrize(
    "v,edges,order",
    [
        (3, [], 6),  # empty graph: all of S_3
        (4, [(0, 1), (1, 2), (2, 3)], 2),  # path: reversal only
        (5, [(i, (i + 1) % 5) for i in range(5)], 10),  # 5-cycle: dihedral
        (4, [(a, b) for a in range(4) for b in range(a + 1, 4)], 24),  # K4
        (6, [(0, 1), (2, 3), (4, 5)], 48),  # 3 disjoint edges: S_2 wr S_3
        (1, [], 1),
        (0, [], 1),
    ],
)
def test_graph_groups(v, edges, order):
    assert graph_automorphism_group(_nbrs(v, edges)).order() == order


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
    with pytest.raises(EnvelopeError):
        aut_via_poset(complex_for(7))


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
        for s, tgt in cx.codim1[i]:
            image_face, _ = cx.face(j, [f.split_image(s)])
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
    cx = complex_for(6)
    f = ComplexAutomorphism(cx, _type_breaking_swap(cx))
    with pytest.raises((ReconstructionError, ValueError)):
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


def test_reconstruct_samples_n7():
    cx = complex_for(7)
    group = aut_via_compat_graph(cx)
    for perm in group.random_elements(10, seed=99):
        sigma = reconstruct_sigma(ComplexAutomorphism(cx, perm))
        assert marking_ray_permutation(cx, sigma) == perm


def test_nested_side_images_stay_nested():
    # nested 2-vertex strata keep nested images under every generator;
    # n=6 also exercises the ambiguous half-size sides
    for n in (5, 6):
        cx = complex_for(n)
        sides = [
            frozenset(c)
            for r in range(2, n - 1)
            for c in itertools.combinations(range(1, n + 1), r)
        ]
        for g in aut_via_compat_graph(cx).generators:
            f = ComplexAutomorphism(cx, g)
            for small, big in itertools.permutations(sides, 2):
                if small < big:
                    assert image_marking_side(f, small) < image_marking_side(f, big)


# ---------------------------------------------------------------------------
# cellwise witnesses


def test_cellwise_identity():
    cx = complex_for(5)
    ident = ComplexAutomorphism(cx, identity_perm(len(cx.rays)))
    for i in range(len(cx.cells)):
        w = check_cellwise_permutation(ident, i)
        assert w.image_cell == i


def test_cellwise_every_cell_every_generator():
    for n in (4, 5):
        cx = complex_for(n)
        for g in aut_via_compat_graph(cx).generators:
            f = ComplexAutomorphism(cx, g)
            for i in range(len(cx.cells)):
                w = check_cellwise_permutation(f, i)
                t = cx.cells[i].to_tree()
                image = cx.cells[w.image_cell].to_tree()
                # the witness really maps the tree onto the image tree
                from tropmoduli import apply_marking_permutation

                assert (
                    apply_marking_permutation(w.sigma, t).canonical_form
                    == image.canonical_form
                )


def test_cellwise_two_vertex_leg_counts():
    # 2-vertex strata: the witness pairs vertices with equal leg counts
    cx = complex_for(6)
    f = sn_action(cx, (2, 3, 1, 5, 6, 4))
    for i in cx.dim_ranges[1]:
        w = check_cellwise_permutation(f, i)
        t = cx.cells[i].to_tree()
        image = cx.cells[w.image_cell].to_tree()
        for v in range(2):
            assert t.leg_count(v) == image.leg_count(w.vertex_map[v])


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
    # no leaf to the edge touching no leaf, and the cellwise witness
    # reproduces the whole edge action
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
            witness = check_cellwise_permutation(f, i)
            assert middle_split(t).permuted(witness.sigma) == middle_split(image)
            checked += 1
    assert checked > 0


def test_cellwise_reports_falsifying_cell():
    # hand-build a ray permutation that maps the cells of a 2-dim stratum
    # wrongly: swap two incompatible rays inside one cell's split set
    cx = complex_for(6)
    # find a pair of cells of equal dimension whose split multisets cannot
    # be matched by any marking permutation: a chain vs a star in dim 3
    star = chain = None
    for i in cx.dim_ranges[3]:
        t = cx.cells[i].to_tree()
        vals = sorted(t.valence(v) for v in range(t.num_vertices))
        if vals == [1, 1, 1, 3]:
            star = i
        elif vals == [1, 1, 2, 2]:
            chain = i
    assert star is not None and chain is not None
    star_splits = cx.cells[star].splits
    chain_splits = cx.cells[chain].splits
    perm = list(range(len(cx.rays)))
    for a, b in zip(star_splits, chain_splits):
        perm[cx.ray_index[a]] = cx.ray_index[b]
        perm[cx.ray_index[b]] = cx.ray_index[a]
    try:
        f = ComplexAutomorphism(cx, tuple(perm))
        f.cell_map
    except ValueError:
        return  # not even a cell permutation: detected earlier, fine
    with pytest.raises(CellwiseError):
        check_cellwise_permutation(f, star)


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
    with pytest.raises(ValueError):
        verify_main_theorem(8)
