"""Trees, splits, canonical forms: unit examples plus the structural
round-trip and group-action properties."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tropmoduli.trees import LeggedTree, Split, splits_compatible, tree_from_splits

from shared import catalog
from tree_oracles import (
    apply_marking_permutation,
    are_isomorphic,
    automorphisms_of_tree,
    canonical_form,
    compose_marking_perms,
    contract,
    form_from_splits,
    legged_isomorphisms,
    single_vertex_tree,
    tree_splits,
    two_vertex_tree,
)


def chain_tree(n, leg_groups):
    """A path v0 - v1 - ... with the given leg sets per vertex."""
    legs = [None] * n
    for v, group in enumerate(leg_groups):
        for j in group:
            legs[j - 1] = v
    V = len(leg_groups)
    return LeggedTree(n, V, tuple((i, i + 1) for i in range(V - 1)), tuple(legs))


# ---------------------------------------------------------------------------
# stability


def test_single_vertex_is_stable():
    assert single_vertex_tree(4).is_stable


def test_two_vertex_balanced_is_stable():
    assert two_vertex_tree(4, [3, 4]).is_stable


def test_bare_vertex_is_unstable():
    t = LeggedTree(4, 2, ((0, 1),), (0, 0, 0, 0))
    assert not t.is_stable


# ---------------------------------------------------------------------------
# splits and compatibility


def test_split_normalizes_away_from_marking_1():
    s = Split.from_side(4, [1, 2])
    assert s.side() == (3, 4)


def test_split_rejects_small_sides():
    with pytest.raises(ValueError):
        Split.from_side(4, [2])
    with pytest.raises(ValueError):
        Split.from_side(4, [2, 3, 4])


def test_compatible_disjoint():
    assert splits_compatible(Split.from_side(5, [2, 3]), Split.from_side(5, [4, 5]))


def test_compatible_nested():
    assert splits_compatible(Split.from_side(5, [2, 3]), Split.from_side(5, [2, 3, 4]))


def test_incompatible_crossing():
    # all four pairwise intersections of sides/complements are nonempty
    a, b = Split.from_side(5, [2, 3]), Split.from_side(5, [2, 4])
    markings = set(range(1, 6))
    for x in (set(a.side()), markings - set(a.side())):
        for y in (set(b.side()), markings - set(b.side())):
            assert x & y
    assert not splits_compatible(a, b)


def test_compatible_rejects_mismatched_n():
    with pytest.raises(ValueError):
        splits_compatible(Split.from_side(5, [2, 3]), Split.from_side(6, [2, 3]))


# ---------------------------------------------------------------------------
# canonical forms / tree_from_splits


def test_two_vertex_split_set():
    assert canonical_form(two_vertex_tree(5, [2, 3])).splits == (Split.from_side(5, [2, 3]),)


def test_single_vertex_has_no_splits():
    assert canonical_form(single_vertex_tree(5)).splits == ()


def test_caterpillar_splits_by_component_deletion():
    t = chain_tree(5, [(2, 3), (4,), (1, 5)])
    forms = canonical_form(t)
    assert len(forms.splits) == 2
    # oracle: delete each edge, collect the markings of each side
    expected = set()
    for e in range(len(t.edges)):
        remaining = [f for i, f in enumerate(t.edges) if i != e]
        comp = {t.edges[e][0]}
        grew = True
        while grew:
            grew = False
            for u, v in remaining:
                if u in comp and v not in comp:
                    comp.add(v)
                    grew = True
                elif v in comp and u not in comp:
                    comp.add(u)
                    grew = True
        side = [j for j in range(1, 6) if t.legs[j - 1] in comp]
        expected.add(Split.from_side(5, side))
    assert set(forms.splits) == expected
    assert {s.size for s in forms.splits} <= {2, 3}


def test_tree_from_splits_empty():
    t = tree_from_splits(5, [])
    assert t.num_vertices == 1 and are_isomorphic(t, single_vertex_tree(5))


def test_tree_from_splits_single():
    t = tree_from_splits(5, [Split.from_side(5, [2, 3])])
    assert are_isomorphic(t, two_vertex_tree(5, [2, 3]))


def test_tree_from_splits_chain():
    ss = [Split.from_side(5, [2, 3]), Split.from_side(5, [2, 3, 4])]
    t = tree_from_splits(5, ss)
    assert canonical_form(t) == form_from_splits(5, ss)
    assert are_isomorphic(t, chain_tree(5, [(2, 3), (4,), (1, 5)]))


def test_tree_from_splits_rejects_incompatible():
    with pytest.raises(ValueError):
        tree_from_splits(5, [Split.from_side(5, [2, 3]), Split.from_side(5, [2, 4])])


def test_round_trip_over_catalog():
    for n in (4, 5, 6):
        for form in catalog(n).all_forms():
            t = form.to_tree()
            assert t.is_stable
            assert canonical_form(t) == form


def test_distinct_edges_give_distinct_splits():
    # tree_oracles.canonical_form proves this instead of checking it at
    # run time (test_exports checks that trees raises no AssertionError)
    for n in (4, 5, 6, 7):
        for form in catalog(n).all_forms():
            t = form.to_tree()
            assert len(set(tree_splits(t))) == len(t.edges)


# ---------------------------------------------------------------------------
# contraction


def test_contract_nothing():
    t = chain_tree(5, [(2, 3), (4,), (1, 5)])
    res = contract(t, [])
    assert canonical_form(res.tree) == canonical_form(t)
    assert res.edge_map == {0: 0, 1: 1}


def test_contract_everything():
    t = chain_tree(5, [(2, 3), (4,), (1, 5)])
    res = contract(t, [0, 1])
    assert are_isomorphic(res.tree, single_vertex_tree(5))
    assert res.edge_map == {}


def test_contract_named_edge_of_caterpillar():
    # the 3-vertex chain with legs {2,3} / {4} / {1,5}: contracting the
    # edge for split {2,3,4} leaves the 2-vertex tree on {2,3}
    t = chain_tree(5, [(2, 3), (4,), (1, 5)])
    idx = tree_splits(t).index(Split.from_side(5, [2, 3, 4]))
    res = contract(t, [idx])
    assert canonical_form(res.tree) == canonical_form(two_vertex_tree(5, [2, 3]))
    other = tree_splits(t).index(Split.from_side(5, [2, 3]))
    assert res.edge_map == {other: 0}


def test_contract_rejects_non_edges():
    t = chain_tree(5, [(2, 3), (4,), (1, 5)])
    with pytest.raises(ValueError):
        contract(t, [7])


def test_contract_keeps_splits_of_retained_edges():
    for n in (5, 6):
        for form in catalog(n).by_dimension[n - 3]:
            t = form.to_tree()
            for e in range(len(t.edges)):
                res = contract(t, [e])
                for old, new in res.edge_map.items():
                    assert tree_splits(res.tree)[new] == tree_splits(t)[old]


def test_contraction_functoriality():
    # contracting in two steps equals contracting the union
    for form in catalog(6).by_dimension[3]:
        t = form.to_tree()
        edge_ids = range(len(t.edges))
        for s1 in (set(c) for r in range(3) for c in itertools.combinations(edge_ids, r)):
            first = contract(t, s1)
            rest = [e for e in edge_ids if e not in s1]
            for s2 in (set(c) for c in itertools.combinations(rest, 1)):
                mapped = {first.edge_map[e] for e in s2}
                two_step = contract(first.tree, mapped).tree
                one_step = contract(t, s1 | s2).tree
                assert canonical_form(two_step) == canonical_form(one_step)


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_to_itself():
    t = chain_tree(5, [(2, 3), (4,), (1, 5)])
    assert are_isomorphic(t, t)


def test_different_splits_not_isomorphic():
    assert not are_isomorphic(two_vertex_tree(5, [2, 3]), two_vertex_tree(5, [4, 5]))


def test_relabeled_encoding_is_isomorphic():
    a = chain_tree(6, [(2, 3), (4,), (1, 5, 6)])
    # same shape, different vertex numbering: middle vertex last
    b = LeggedTree(6, 3, ((0, 2), (1, 2)), (1, 0, 0, 2, 1, 1))
    assert are_isomorphic(a, b)
    assert canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# marking permutations


def test_identity_acts_trivially():
    t = two_vertex_tree(4, [2, 3])
    assert are_isomorphic(apply_marking_permutation((1, 2, 3, 4), t), t)


def test_transposition_moves_split():
    # (1 2) sends side {2,3} to {1,3}, i.e. the split with side {2,4}
    t = apply_marking_permutation((2, 1, 3, 4), two_vertex_tree(4, [2, 3]))
    assert canonical_form(t) == canonical_form(two_vertex_tree(4, [2, 4]))


def test_transposition_fixing_split():
    t = apply_marking_permutation((2, 1, 3, 4), two_vertex_tree(4, [3, 4]))
    assert canonical_form(t) == canonical_form(two_vertex_tree(4, [3, 4]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_action_is_left_action(data):
    n = data.draw(st.integers(4, 6))
    forms = list(catalog(n).all_forms())
    form = data.draw(st.sampled_from(forms))
    sigma = tuple(data.draw(st.permutations(range(1, n + 1))))
    tau = tuple(data.draw(st.permutations(range(1, n + 1))))
    t = form.to_tree()
    one = apply_marking_permutation(compose_marking_perms(sigma, tau), t)
    two = apply_marking_permutation(sigma, apply_marking_permutation(tau, t))
    assert canonical_form(one) == canonical_form(two)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_action_preserves_catalog(data):
    n = data.draw(st.integers(4, 6))
    cat = catalog(n)
    sigma = tuple(data.draw(st.permutations(range(1, n + 1))))
    for dim, forms in cat.by_dimension.items():
        images = {
            canonical_form(apply_marking_permutation(sigma, f.to_tree())) for f in forms
        }
        assert images == set(forms)


# ---------------------------------------------------------------------------
# automorphisms


def test_stable_trees_are_rigid_small():
    for n in (4, 5):
        for form in catalog(n).all_forms():
            t = form.to_tree()
            assert automorphisms_of_tree(t) == [tuple(range(t.num_vertices))]


def test_unstable_star_has_six_automorphisms():
    # three bare leaves around a center carrying all legs
    t = LeggedTree(3, 4, ((0, 1), (0, 2), (0, 3)), (0, 0, 0))
    assert len(automorphisms_of_tree(t)) == 6


def test_isomorphisms_respect_legs_exactly():
    t = two_vertex_tree(6, [2, 3, 4])  # both vertices carry 3 legs
    # the leg sets differ, so only the identity survives
    assert list(legged_isomorphisms(t, t)) == [(0, 1)]


# ---------------------------------------------------------------------------
# hypothesis: split systems from random compatible sets


@st.composite
def compatible_split_sets(draw):
    n = draw(st.integers(4, 7))
    pool = []
    for size in range(2, n - 1):
        pool.extend(itertools.combinations(range(2, n + 1), size))
    chosen: list[Split] = []
    for side in draw(st.permutations(pool)):
        s = Split.from_side(n, side)
        if all(splits_compatible(s, t) for t in chosen):
            chosen.append(s)
        if len(chosen) >= draw(st.integers(0, n - 3)):
            break
    return n, chosen


@settings(max_examples=80, deadline=None)
@given(compatible_split_sets())
def test_round_trip_random_split_sets(ns):
    n, splits = ns
    t = tree_from_splits(n, splits)
    assert t.is_stable
    assert canonical_form(t) == form_from_splits(n, splits)
    assert len(t.edges) == len(set(splits))
