"""Automorphism computations: the graph search against known groups,
method agreement, the marking action, permutation reconstruction, and
the assembled reports."""

import ast
import copy
import dataclasses
import hashlib
import inspect
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest

from tropmoduli import automorphisms
from tropmoduli.automorphisms import (
    DEFAULT_SEED,
    ComplexAutomorphism,
    ReconstructionError,
    aut_via_compat_graph,
    aut_via_poset,
    expected_order,
    graph_automorphism_group,
    main_theorem_report,
    marking_ray_permutation,
    reconstruct_sigma,
    sn_image_group,
    sn_kernel,
)
from tropmoduli.cones import ConeComplex
from tropmoduli.enumeration import ENVELOPE_MAX_N, EnvelopeError, all_splits, count_maximal
from tropmoduli.groups import (
    PermutationGroup,
    compose_perms,
    format_cycles,
    identity_perm,
    perm_cycles,
)
from tropmoduli.trees import Split

from shared import complex_for, count_calls
from poset_reference import aut_via_poset as reference_aut_via_poset
from refine_reference import _refine as reference_refine
from tree_oracles import (
    compose_marking_perms,
    face,
    permuted,
    split_image,
    tree_splits,
    tuple_cell_map,
)


def induced(cx, sigma):
    """The complex automorphism a marking permutation induces."""
    return ComplexAutomorphism(cx, marking_ray_permutation(cx, sigma))


def ray_of(cx, side):
    """The index of the ray with the given side."""
    return cx.ray_by_mask[Split.from_side(cx.n, side).mask]


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


def brute_force_order(v, edges):
    """The order of a graph's automorphism group, counted over all vertex
    permutations (no code shared with the search)."""
    edge_set = {frozenset(e) for e in edges}
    return sum(
        all(frozenset((p[a], p[b])) in edge_set for a, b in edges)
        for p in itertools.permutations(range(v))
    )


@lru_cache(maxsize=None)
def random_graph_cases():
    """Seeded random graphs on at most 7 vertices with their group orders."""
    return tuple((v, edges, brute_force_order(v, edges)) for v, edges in _random_graphs())


def test_random_graph_orders_match_brute_force():
    for v, edges, order in random_graph_cases():
        assert graph_automorphism_group(_nbrs(v, edges)).order() == order, (v, edges)


def test_leaf_checks_decide_without_refinement(monkeypatch):
    # with refinement switched off the search is plain individualization
    # backtracking, and only the leaf's adjacency check rejects maps
    monkeypatch.setattr(automorphisms, "_refine", lambda adj, cells, new: cells)
    for v, edges, order in random_graph_cases():
        assert graph_automorphism_group(_nbrs(v, edges)).order() == order, (v, edges)


def test_leaf_maps_must_carry_the_level_coloring(monkeypatch):
    # every leaf map is the swap of 0 and 1, an automorphism of K4; it is
    # kept only where it sends the level's vertex to the candidate (0 to
    # 1 at the top level), so the search finds exactly the group it makes
    monkeypatch.setattr(automorphisms, "_map_from_discrete", lambda *args: (1, 0, 2, 3))
    k4 = list(itertools.combinations(range(4), 2))
    group = graph_automorphism_group(_nbrs(4, k4))
    assert group.generators == ((1, 0, 2, 3),)
    assert group.order() == 2


def splits_graph(n):
    """The compatibility graph on ``all_splits(n)``, built with no cell:
    two marking-1-free sides are compatible when disjoint or nested."""
    masks = [s.mask for s in all_splits(n)]
    return [
        [j for j, b in enumerate(masks) if j != i and (a & b) in (0, a, b)]
        for i, a in enumerate(masks)
    ]


def coloring(cells):
    """The color tuple of an ordered partition: each vertex's cell position."""
    colors = {u: c for c, cell in enumerate(cells) for u in cell}
    return tuple(colors[u] for u in range(len(colors)))


def partition(colors):
    """The ordered partition of a coloring whose colors are 0..k-1."""
    cells = [[] for _ in set(colors)]
    for u, c in enumerate(colors):
        cells[c].append(u)
    return cells


def reference_search(monkeypatch, nbrs):
    """The search run with the reference refinement, and the (partition,
    new cells) arguments and the result of each refinement it made."""
    refined = []

    def spy(adj, cells, new):
        refined.append((cells, new, partition(reference_refine(nbrs, coloring(cells)))))
        return refined[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(automorphisms, "_refine", spy)
        return graph_automorphism_group(nbrs), refined


def test_refinement_matches_the_reference(monkeypatch):
    # counting only the cells the last round created (after individualizing,
    # v's old cell and its singleton) gives the reference's coloring on
    # every coloring the search refines, so the search finds the
    # reference's generators
    graphs = [splits_graph(n) for n in range(4, 9)]
    assert graphs[3] == complex_for(7).compat_neighbors()
    cases = [(v, edges) for v, edges, _ in GRAPH_CASES + list(random_graph_cases())]
    graphs += [_nbrs(v, edges) for v, edges in cases + _random_graphs(400, 16, 2016)]
    for nbrs in graphs:
        adj = [sum(1 << u for u in nb) for nb in nbrs]
        group, refined = reference_search(monkeypatch, nbrs)
        for cells, new, want in refined:
            assert automorphisms._refine(adj, cells, new) == want, (nbrs, cells, new)
        assert graph_automorphism_group(nbrs).generators == group.generators, nbrs


def test_refinement_leaves_the_shared_cells_unchanged(monkeypatch):
    # the path's levels share cells with the partitions refined from them,
    # so neither refinement may change the partition it is given; each
    # returns every vertex exactly once, in ascending cells
    calls = Counter()

    def checked(name):
        refine = getattr(automorphisms, name)

        def spy(adj, cells, *args):
            given = copy.deepcopy(cells)
            out = refine(adj, cells, *args)
            assert cells == given, (name, given, args)
            assert sorted(u for cell in out for u in cell) == list(range(len(adj))), (name, out)
            assert all(cell == sorted(cell) for cell in out), (name, out)
            calls[name] += 1
            return out

        monkeypatch.setattr(automorphisms, name, spy)

    checked("_refine")
    checked("_refine_at")
    graphs = [splits_graph(n) for n in range(4, 9)]
    graphs += [_nbrs(v, edges) for v, edges in _random_graphs(400, 16, 2016)]
    for nbrs in graphs:
        graph_automorphism_group(nbrs)
    assert calls["_refine"] > calls["_refine_at"] > 0


@pytest.mark.parametrize(
    "n,refinements,leaves", [(4, 6, 2), (5, 15, 4), (6, 17, 5), (7, 28, 6), (8, 32, 7), (9, 45, 8)]
)
def test_the_search_never_backtracks_on_compatibility_graphs(monkeypatch, n, refinements, leaves):
    # one refinement per path step and per candidate step, and every leaf
    # map the search reaches is a generator: no candidate is abandoned
    refined = count_calls(monkeypatch, automorphisms, "_refine")
    mapped = count_calls(monkeypatch, automorphisms, "_map_from_discrete")
    group = graph_automorphism_group(splits_graph(n))
    assert (refined.total(), mapped.total()) == (refinements, leaves)
    assert len(group.generators) == leaves


def test_a_leaf_that_is_not_discrete_is_rejected(monkeypatch):
    # refinement does not split this graph's candidates as it splits the
    # first path, so two leaves the search reaches are not discrete; they
    # are rejected and the search backtracks to the exact group
    edges = [(0, 4), (0, 7), (1, 2), (1, 6), (2, 6), (3, 5), (3, 6), (4, 7), (5, 7), (6, 7)]
    discrete = count_calls(
        monkeypatch, automorphisms, "_map_from_discrete", lambda nbrs, ca, cb: len(cb) == len(nbrs)
    )
    assert graph_automorphism_group(_nbrs(8, edges)).order() == brute_force_order(8, edges) == 8
    assert discrete[False] == 2


def test_generators_past_the_cell_envelope_are_pinned():
    # the n = 9 compatibility graph alone (246 rays); the pin is the sha256
    # of the generators' repr as the reference refinement finds them
    group = graph_automorphism_group(splits_graph(9))
    assert group.order() == math.factorial(9)
    digest = hashlib.sha256(repr(group.generators).encode()).hexdigest()
    assert digest == "0064a0781f82651fff3175fbe2a7aa025a701a75c8a8c9edf06ad2cd305c0d59"


def test_petersen_graph():
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[a], idx[b])
        for a, b in itertools.combinations(pairs, 2)
        if not set(a) & set(b)
    ]
    assert graph_automorphism_group(_nbrs(10, edges)).order() == 120


def _graph_autos(cx):
    """The graph route's generators as complex automorphisms."""
    return [ComplexAutomorphism(cx, g) for g in aut_via_compat_graph(cx).generators]


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


@pytest.mark.parametrize("n,order", [(3, 1), (4, 6), (5, 120), (6, 720), (7, 5040)])
def test_poset_method_orders(n, order):
    assert aut_via_poset(complex_for(n)).order() == order


def test_methods_agree_as_groups():
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        poset_group = aut_via_poset(cx)
        assert len(poset_group.generators) <= 10
        assert aut_via_compat_graph(cx).equals(poset_group)


def test_poset_search_matches_the_reference_generators():
    # forward checking only drops branches the reference search abandons,
    # so each level finds the same first completion
    for n in (4, 5, 6, 7, 8):
        cx = complex_for(n)
        assert aut_via_poset(cx).generators == reference_aut_via_poset(cx).generators


@pytest.mark.parametrize("n", [5, 6])
def test_poset_search_finds_the_stabilizer_of_a_dropped_cell(n):
    # without its last maximal cell the complex keeps only the marking
    # permutations that fix that cell
    cx = complex_for(n)
    dropped = {1 << r for r in cx.cell_rays[-1]}
    fixing = sum(
        {1 << w for w in map(marking_ray_permutation(cx, sigma).__getitem__, cx.cell_rays[-1])}
        == dropped
        for sigma in itertools.permutations(range(1, n + 1))
    )
    assert fixing == 8
    assert aut_via_poset(dataclasses.replace(cx, cell_rays=cx.cell_rays[:-1])).order() == fixing


def test_poset_search_reads_no_part_of_the_graph():
    cx = complex_for(6)
    blind = dataclasses.replace(cx, compat_masks=None)
    assert aut_via_poset(blind).generators == aut_via_poset(cx).generators


def test_poset_search_keeps_nothing_per_cell():
    # the search's state grows with the rays, not the cells: its peak stays
    # below one 32-byte int object per cell, and any table holding a ray
    # mask per cell (119-bit ints at n = 8) would cost more than that
    cx = complex_for(8)
    tracemalloc.start()
    try:
        aut_via_poset(cx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(cx.cell_rays) * sys.getsizeof(1 << 30)


def test_poset_envelope():
    # the envelope is the only cap: the first n past it stops when the
    # complex is built
    with pytest.raises(EnvelopeError):
        aut_via_poset(complex_for(ENVELOPE_MAX_N + 1))


# ---------------------------------------------------------------------------
# the marking action


def test_identity_acts_trivially():
    cx = complex_for(5)
    assert marking_ray_permutation(cx, (1, 2, 3, 4, 5)) == identity_perm(len(cx.rays))


def test_klein_element_acts_trivially_n4():
    cx = complex_for(4)
    assert marking_ray_permutation(cx, (2, 1, 4, 3)) == identity_perm(len(cx.rays))


def test_transposition_ray_action_n4():
    cx = complex_for(4)
    perm = marking_ray_permutation(cx, (2, 1, 3, 4))
    moved = {
        tuple(cx.rays[r].side()): tuple(cx.rays[perm[r]].side())
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


def test_mask_action_matches_split_oracle():
    # the ray action read off masks equals relabelling each Split
    for n in (4, 5, 6):
        cx = complex_for(n)
        for sigma in itertools.permutations(range(1, n + 1)):
            assert marking_ray_permutation(cx, sigma) == tuple(
                cx.ray_by_mask[permuted(s, sigma).mask] for s in cx.rays
            )


def test_image_group_orders():
    assert sn_image_group(complex_for(4)).order() == 6
    assert sn_image_group(complex_for(5)).order() == 120


def test_cell_map_preserves_dimension_and_faces():
    cx = complex_for(5)
    f = induced(cx, (2, 3, 4, 5, 1))
    f.check_cells()
    cell_map = tuple_cell_map(f)
    codim1 = tuple(cx.codim1)
    for i, j in enumerate(cell_map):
        assert len(cx.cell_rays[i]) == len(cx.cell_rays[j])
        for r, tgt in zip(cx.cell_rays[i], codim1[i]):
            image_face, _ = face(cx, j, [split_image(f, cx.rays[r])])
            assert cell_map[tgt] == image_face


def test_cell_map_matches_tuple_route():
    # the mask route builds each image from its prefix face's image; the
    # reference maps, sorts and looks up each cell's ray tuple, and checks
    # that the images are a dimension-preserving permutation of the cells
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        group = aut_via_compat_graph(cx)
        for p in group.generators + tuple(group.random_elements(50, DEFAULT_SEED)):
            f = ComplexAutomorphism(cx, p)
            f.check_cells()
            tuple_cell_map(f)


def test_automorphisms_keep_only_their_ray_permutation():
    # the cell check caches nothing on the automorphism
    cx = complex_for(6)
    for f in _graph_autos(cx):
        reconstruct_sigma(f)
        assert set(vars(f)) == {"cx", "ray_perm"}


def test_cell_check_keeps_nothing_per_cell():
    # the check streams the top cells' images: its peak stays below one
    # 32-byte int object per cell, as the poset search's does, and any
    # list holding an image per cell (119-bit ints at n = 8) would not
    cx = complex_for(8)
    f = ComplexAutomorphism(cx, aut_via_compat_graph(cx).generators[0])
    tracemalloc.start()
    try:
        f.check_cells()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(cx.cell_rays) * sys.getsizeof(1 << 30)


class _LookupBits(dict):
    """A cell index that records the popcount of each mask looked up."""

    def __init__(self, index):
        super().__init__(index)
        self.bits = Counter()

    def __contains__(self, mask):
        self.bits[mask.bit_count()] += 1
        return super().__contains__(mask)


def _recording_index(cx):
    """A copy of ``cx`` whose cell index records its lookups, and the record."""
    view, index = dataclasses.replace(cx), _LookupBits(cx.index)
    vars(view)["index"] = index
    return view, index.bits


def test_cell_checks_look_up_only_the_top_cells():
    cx = complex_for(7)
    view, bits = _recording_index(cx)
    ComplexAutomorphism(view, aut_via_compat_graph(cx).generators[0]).check_cells()
    assert bits == {4: count_maximal(7)} == {4: 945}
    view, bits = _recording_index(complex_for(6))
    aut_via_poset(view)
    assert set(bits) == {3}
    # one top cell pass per distinct element the report judges, its
    # generators and its sampled elements together
    view, bits = _recording_index(complex_for(6))
    report = main_theorem_report(view, DEFAULT_SEED, 100, poset=False)
    group = aut_via_compat_graph(complex_for(6))
    checked = len({*group.generators, *group.random_elements(100, DEFAULT_SEED)})
    assert report["surjectivity"]["verdict"] == "PASS"
    assert bits == {3: checked * count_maximal(6)}


def test_automorphisms_read_no_cell_index():
    # the cell-image check belongs to cones.py (ConeComplex.unmapped_cell)
    tree = ast.parse(inspect.getsource(automorphisms))
    readers = [
        ast.unparse(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "index"
    ]
    assert readers == []


def _both_routes_raise(f):
    """The error message of the mask route's ``check_cells``, checked
    equal to the tuple route's."""
    with pytest.raises(ValueError) as mask_route:
        f.check_cells()
    with pytest.raises(ValueError) as tuple_route:
        tuple_cell_map(f)
    assert str(mask_route.value) == str(tuple_route.value)
    return str(mask_route.value)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_round_trip_generators():
    for n in (5, 6):
        cx = complex_for(n)
        for f in _graph_autos(cx):
            sigma = reconstruct_sigma(f)
            assert marking_ray_permutation(cx, sigma) == f.ray_perm


def _split_two_set_sigma(f):
    """The marking permutation from the images of the strata {1,j},
    read off Split objects: the route the mask reading replaced."""
    n = f.cx.n
    two_sets = {}
    for j in range(2, n + 1):
        side = set(split_image(f, Split.from_side(n, (1, j))).side())
        (two_sets[j],) = (p for p in (side, set(range(1, n + 1)) - side) if len(p) == 2)
    (one,) = two_sets[2] & two_sets[3]
    return (one,) + tuple(min(two_sets[j] - {one}) for j in range(2, n + 1))


def test_reconstruct_matches_split_oracle():
    for n in (5, 6):
        cx = complex_for(n)
        for f in _graph_autos(cx):
            assert reconstruct_sigma(f) == _split_two_set_sigma(f)


def test_reconstruct_known_sigma():
    cx = complex_for(5)
    for sigma in [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1), (1, 3, 2, 5, 4)]:
        assert reconstruct_sigma(induced(cx, sigma)) == sigma


def test_reconstruct_every_marking_permutation():
    # the reconstruction inverts the marking action on all of S_5 and S_6
    for n in (5, 6):
        cx = complex_for(n)
        for sigma in itertools.permutations(range(1, n + 1)):
            assert reconstruct_sigma(induced(cx, sigma)) == sigma


def test_reconstruct_identity():
    cx = complex_for(5)
    assert reconstruct_sigma(induced(cx, (1, 2, 3, 4, 5))) == (1, 2, 3, 4, 5)


def test_reconstruct_refuses_n4():
    cx = complex_for(4)
    with pytest.raises(ValueError):
        reconstruct_sigma(induced(cx, (2, 1, 3, 4)))


def _type_breaking_swap(cx):
    """The ray transposition of {2,3} with {2,3,4} at n = 6: a 2-side
    ray with a 3-side ray, which cannot extend to the complex."""
    a, b = ray_of(cx, [2, 3]), ray_of(cx, [2, 3, 4])
    perm = list(range(len(cx.rays)))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def _one_generator_report(monkeypatch, cx, perm, samples=0):
    """The theorem report, without the poset search, when the graph
    search finds the group one ray permutation generates."""
    group = PermutationGroup(len(cx.rays), (perm,))
    monkeypatch.setattr(automorphisms, "aut_via_compat_graph", lambda cx: group)
    return main_theorem_report(cx, DEFAULT_SEED, samples, poset=False)


def test_reconstruct_rejects_non_automorphism():
    # sigma comes out as the identity from the untouched strata {1,j}; the
    # ray check then names the first swapped ray
    cx = complex_for(6)
    f = ComplexAutomorphism(cx, _type_breaking_swap(cx))
    with pytest.raises(ReconstructionError, match=r"sends ray \{2,3\} to \{2,3\}, "):
        reconstruct_sigma(f)


def test_reconstruct_rejects_a_lost_two_leg_vertex(monkeypatch):
    # swapping the ray of {1,2} (stored side {3,4,5,6}) with {2,3,4} sends
    # the 2-leg stratum on {1,2} to a ray with two 3-leg sides; its side
    # {1,5,6} shares only 1 with {1,3}, so sigma(2) is 6, as sigma(6) is
    cx = complex_for(6)
    a, b = ray_of(cx, [3, 4, 5, 6]), ray_of(cx, [2, 3, 4])
    perm = list(range(len(cx.rays)))
    perm[a], perm[b] = b, a
    with pytest.raises(ReconstructionError) as excinfo:
        reconstruct_sigma(ComplexAutomorphism(cx, perm))
    assert str(excinfo.value) == (
        "recovered map (1, 6, 3, 4, 5, 6) is not a permutation of the markings"
    )
    # with no sample the report judges the one generator, once, and names it
    report = _one_generator_report(monkeypatch, cx, tuple(perm))
    assert report["sigma_of_generator"] == [None]
    assert report["failures"] == [
        "order",
        "reconstruction_ok",
        f"generator:{format_cycles(perm)}",
    ]


def _ray_swap(cx, side_a, side_b):
    """The ray permutation swapping the rays with the given sides."""
    a, b = ray_of(cx, side_a), ray_of(cx, side_b)
    perm = list(range(len(cx.rays)))
    perm[a], perm[b] = b, a
    return tuple(perm)


def test_reconstruct_rejects_two_leg_images_without_one_common_marking():
    # the 2-leg stratum on {1,3} goes to {4,5}, which shares no marking
    # with the image {1,2} of the untouched {1,2}, so sigma(1) reads 0
    cx = complex_for(5)
    with pytest.raises(ReconstructionError) as excinfo:
        reconstruct_sigma(ComplexAutomorphism(cx, _ray_swap(cx, [1, 3], [4, 5])))
    assert str(excinfo.value) == (
        "recovered map (0, 2, 5, 4, 5) is not a permutation of the markings"
    )


def test_reconstruct_rejects_a_two_leg_image_missing_the_image_of_1():
    # {1,2} and {1,3} are untouched, so sigma(1) = 1, and {1,4} goes to
    # {2,3}, so sigma(4) reads 3 as sigma(3) does
    cx = complex_for(5)
    with pytest.raises(ReconstructionError) as excinfo:
        reconstruct_sigma(ComplexAutomorphism(cx, _ray_swap(cx, [1, 4], [2, 3])))
    assert str(excinfo.value) == (
        "recovered map (1, 2, 3, 3, 5) is not a permutation of the markings"
    )


def test_reconstruct_rejects_every_ray_transposition():
    # no automorphism swaps two rays alone: 45 transpositions at n = 5
    # (10 rays) and 300 at n = 6 (25 rays)
    for n, count in ((5, 45), (6, 300)):
        cx = complex_for(n)
        swaps = list(itertools.combinations(range(len(cx.rays)), 2))
        assert len(swaps) == count
        for a, b in swaps:
            perm = list(range(len(cx.rays)))
            perm[a], perm[b] = b, a
            with pytest.raises(ReconstructionError):
                reconstruct_sigma(ComplexAutomorphism(cx, perm))


def test_reconstruct_returns_an_inducing_sigma_or_raises_reconstruction_error():
    # seeded ray permutations of three kinds at n = 5..7: uniform, the
    # action of a random marking permutation, and that action with two
    # rays swapped.  Each either reconstructs to a sigma whose action is
    # the permutation or raises ReconstructionError, and nothing else.
    rng = random.Random(DEFAULT_SEED)
    for n in (5, 6, 7):
        cx = complex_for(n)
        rays = list(range(len(cx.rays)))
        outcomes = Counter()
        for _ in range(200):
            uniform = rng.sample(rays, len(rays))
            sigma = rng.sample(range(1, n + 1), n)
            action = list(marking_ray_permutation(cx, sigma))
            swapped = action.copy()
            a, b = rng.sample(rays, 2)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            for perm in (uniform, action, swapped):
                try:
                    found = reconstruct_sigma(ComplexAutomorphism(cx, perm))
                except ReconstructionError:
                    outcomes["rejected"] += 1
                    continue
                assert marking_ray_permutation(cx, found) == tuple(perm)
                outcomes["induced"] += 1
        assert outcomes["induced"] >= 200 and outcomes["rejected"] >= 400


def test_automorphism_rejects_a_ray_map_that_is_no_permutation():
    cx = complex_for(5)
    with pytest.raises(ValueError, match="^not a permutation of the rays$"):
        ComplexAutomorphism(cx, [0] * len(cx.rays))


def test_cell_map_rejects_non_automorphism():
    # some cell holding one of the swapped rays maps to a ray set that is
    # no cell, and the error names the first such cell
    cx = complex_for(6)
    perm = _type_breaking_swap(cx)
    cells = {frozenset(c) for c in cx.cell_rays}
    bad = next(
        i
        for i, c in enumerate(cx.cell_rays)
        if frozenset(perm[r] for r in c) not in cells
    )
    with pytest.raises(ValueError, match=rf"\bcell {bad}\b"):
        ComplexAutomorphism(cx, perm).check_cells()
    assert f"cell {bad} " in _both_routes_raise(ComplexAutomorphism(cx, perm))


def test_a_repeated_sample_is_checked_once_and_listed_per_draw(monkeypatch):
    # each distinct drawn element is reconstructed once and, when that
    # passes, cell-checked once after it; a drawn generator is judged by
    # its own reconstruction, not again.  Failures, checked and ok count
    # draws.  A cell check is keyed by its element and the number of
    # times that element was reconstructed before it.
    cx = complex_for(5)
    bad = _ray_swap(cx, [1, 3], [4, 5])
    good = marking_ray_permutation(cx, (2, 3, 1, 5, 4))
    generator = marking_ray_permutation(cx, (2, 1, 3, 4, 5))
    draws = [bad, good, bad, generator, good, good]
    monkeypatch.setattr(PermutationGroup, "random_elements", lambda self, k, seed: draws)
    rebuilt = count_calls(monkeypatch, automorphisms, "reconstruct_sigma", lambda f: f.ray_perm)
    checked = count_calls(
        monkeypatch, ConeComplex, "unmapped_cell", lambda cx, p: (tuple(p), rebuilt[tuple(p)])
    )
    report = _one_generator_report(monkeypatch, cx, generator, samples=6)["surjectivity"]
    assert report["failures"] == [f"sample:{format_cycles(bad)}"] * 2
    assert (report["checked"], report["ok"], report["verdict"]) == (7, 5, "FAIL")
    assert rebuilt == {generator: 1, bad: 1, good: 1}
    assert checked == {(good, 1): 1}


def test_list_given_automorphism_is_normalised():
    cx = complex_for(5)
    sigma = (2, 1, 3, 4, 5)
    perm = marking_ray_permutation(cx, sigma)
    f = ComplexAutomorphism(cx, list(perm))
    assert reconstruct_sigma(f) == sigma
    assert f.ray_perm == perm


def test_surjectivity_reports_a_failing_generator(monkeypatch):
    # a sample that draws nothing still judges and counts the generators
    cx = complex_for(6)
    swap = _type_breaking_swap(cx)
    monkeypatch.setattr(PermutationGroup, "random_elements", lambda self, k, seed: [])
    report = _one_generator_report(monkeypatch, cx, swap, samples=1)["surjectivity"]
    assert report["verdict"] == "FAIL"
    assert (report["checked"], report["ok"]) == (1, 0)
    assert len(report["failures"]) == 1
    assert report["failures"][0].startswith("generator:")


def test_surjectivity_n5_n6():
    for n in (5, 6):
        report = main_theorem_report(complex_for(n), DEFAULT_SEED, 100, poset=False)
        report = report["surjectivity"]
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
    autos = _graph_autos(cx)
    for f in autos:
        f.check_cells()
    cell_maps = [(f, tuple_cell_map(f)) for f in autos]

    def middle_split(t):
        for e, (u, v) in enumerate(t.edges):
            if t.valence(u) == 2 and t.valence(v) == 2:
                return tree_splits(t)[e]
        raise AssertionError("chain without a middle edge")

    checked = 0
    for i in cx.dim_ranges[3]:
        t = cx.cells[i].to_tree()
        if t.num_vertices != 4 or sorted(t.valence(v) for v in range(4)) != [1, 1, 2, 2]:
            continue
        for f, cell_map in cell_maps:
            image = cx.cells[cell_map[i]].to_tree()
            assert split_image(f, middle_split(t)) == middle_split(image)
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# the assembled reports


def test_verify_main_theorem_n4():
    report = main_theorem_report(complex_for(4), DEFAULT_SEED, 0)
    assert report["verdict"] == "PASS"
    assert report["order"] == 6
    assert report["kernel_is_klein"]
    assert report["marking_image_matches"]


def test_verify_main_theorem_n5():
    report = main_theorem_report(complex_for(5), DEFAULT_SEED, 0)
    assert report["verdict"] == "PASS"
    assert report["order"] == 120
    assert report["methods_agree"]
    assert report["reconstruction_ok"]


def test_theorem_report_rejects_n_below_4():
    # the theorem says nothing below n = 4: such a complex is refused
    # before any search instead of reported as order 1 = expected 1
    for n in (2, 3):
        with pytest.raises(ValueError, match=rf"\bn={n}\b"):
            expected_order(n)
    with pytest.raises(ValueError, match=r"\bn=3\b"):
        main_theorem_report(complex_for(3), DEFAULT_SEED, 0)
