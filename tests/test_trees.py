"""Trees, splits, canonical forms: unit examples plus the structural
round-trip and group-action properties, each checked exhaustively at the
small n and on seeded draws above them."""

import itertools
import random

import pytest

from tropmoduli.automorphisms import DEFAULT_SEED
from tropmoduli.trees import (
    CanonicalForm,
    LeggedTree,
    Split,
    check_marking_perm,
    splits_compatible,
)

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
# canonical forms / CanonicalForm.to_tree


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
    assert {s.mask.bit_count() for s in forms.splits} <= {2, 3}


def test_to_tree_empty():
    t = form_from_splits(5, []).to_tree()
    assert t.num_vertices == 1 and are_isomorphic(t, single_vertex_tree(5))


def test_to_tree_single():
    t = form_from_splits(5, [Split.from_side(5, [2, 3])]).to_tree()
    assert are_isomorphic(t, two_vertex_tree(5, [2, 3]))


def test_to_tree_chain():
    ss = [Split.from_side(5, [2, 3]), Split.from_side(5, [2, 3, 4])]
    form = form_from_splits(5, ss)
    t = form.to_tree()
    assert canonical_form(t) == form
    assert are_isomorphic(t, chain_tree(5, [(2, 3), (4,), (1, 5)]))


def test_to_tree_numbers_vertices_in_split_order():
    # vertex 0 is the root, vertex j + 1 the j-th split in (size, mask)
    # order: {2,3}, {5,6}, {2,3,4}; each split hangs from its least
    # superset and each marking sits at its least holder.  The round trips
    # only see the tree up to isomorphism, and expansions' children
    # follow this numbering.
    sides = ([2, 3, 4], [5, 6], [2, 3])
    t = form_from_splits(6, [Split.from_side(6, side) for side in sides]).to_tree()
    assert t.num_vertices == 4
    assert t.edges == ((1, 3), (0, 2), (0, 3))
    assert t.legs == (0, 1, 1, 3, 2, 2)


def _split(n, *side):
    return Split.from_side(n, side)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: check_marking_perm(3, (1, 2, 2)), "not a permutation of 1..3: (1, 2, 2)"),
        (lambda: Split(5, 0b00011), "stored side of a split must not contain marking 1"),
        (lambda: Split(4, 0b10110), "side contains markings beyond n"),
        (lambda: Split.from_side(4, [2, 5]), "marking 5 outside 1..4"),
        (lambda: CanonicalForm(5, (_split(5, 2, 3),) * 2), "splits must be strictly sorted"),
        (lambda: CanonicalForm(5, (_split(6, 2, 3),)), "split marking count differs from form"),
        (
            lambda: CanonicalForm(5, (_split(5, 2, 3), _split(5, 2, 4))),
            "incompatible splits Split(5, {2,3}) and Split(5, {2,4})",
        ),
        (lambda: LeggedTree(2, 1, (), (0, 0)), "need at least 3 markings, got 2"),
        (lambda: LeggedTree(3, 0, (), (0, 0, 0)), "need at least one vertex"),
        (
            lambda: LeggedTree(3, 1, (), (0, 0)),
            "leg assignment must cover every marking exactly once",
        ),
        (lambda: LeggedTree(3, 1, (), (0, 0, 1)), "leg assigned to unknown vertex"),
        (lambda: LeggedTree(3, 2, ((0, 2),), (0, 0, 1)), "edge (0,2) has unknown endpoint"),
        (lambda: LeggedTree(3, 2, ((1, 1),), (0, 0, 1)), "loops not allowed in a genus-0 tree"),
        (
            lambda: LeggedTree(3, 2, ((0, 1), (1, 0)), (0, 0, 1)),
            "parallel edges not allowed in a genus-0 tree",
        ),
        (lambda: LeggedTree(3, 3, ((0, 1),), (0, 1, 2)), "a tree on V vertices has exactly V-1 edges"),
        (
            lambda: LeggedTree(3, 4, ((1, 2), (2, 3), (1, 3)), (1, 2, 3)),
            "underlying graph is not connected",
        ),
    ],
)
def test_malformed_input_is_rejected(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_round_trip_over_catalog():
    # every form at n = 4..7 (3,018), rebuilt from its splits listed in a
    # seeded shuffled order
    rng = random.Random(DEFAULT_SEED)
    for n in (4, 5, 6, 7):
        for form in catalog(n).all_forms():
            splits = list(form.splits)
            rng.shuffle(splits)
            assert form_from_splits(n, splits) == form
            t = form.to_tree()
            assert t.is_stable
            assert canonical_form(t) == form
            assert len(t.edges) == len(splits)


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


def _random_perm(rng, n):
    return tuple(rng.sample(range(1, n + 1), n))


def test_action_is_left_action():
    # every (form, sigma, tau) at n = 4 (2,304), then 60 seeded triples
    # at each of n = 5 and 6
    triples = [
        (form, sigma, tau)
        for form in catalog(4).all_forms()
        for sigma in itertools.permutations(range(1, 5))
        for tau in itertools.permutations(range(1, 5))
    ]
    rng = random.Random(DEFAULT_SEED)
    for n in (5, 6):
        forms = catalog(n).cells
        for _ in range(60):
            triples.append((rng.choice(forms), _random_perm(rng, n), _random_perm(rng, n)))
    for form, sigma, tau in triples:
        t = form.to_tree()
        one = apply_marking_permutation(compose_marking_perms(sigma, tau), t)
        two = apply_marking_permutation(sigma, apply_marking_permutation(tau, t))
        assert canonical_form(one) == canonical_form(two)


def test_action_preserves_catalog():
    # every sigma in S_4 and S_5, then 60 seeded ones at n = 6
    rng = random.Random(DEFAULT_SEED)
    sigmas = [(n, sigma) for n in (4, 5) for sigma in itertools.permutations(range(1, n + 1))]
    sigmas += [(6, _random_perm(rng, 6)) for _ in range(60)]
    for n, sigma in sigmas:
        for forms in catalog(n).by_dimension.values():
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
# split systems from random compatible sets


def _random_compatible_splits(rng, n):
    """Sides of size 2..n-2 not holding marking 1, in a shuffled order,
    kept greedily while compatible with those already kept, up to a drawn
    count in 0..n-3."""
    pool = [
        side
        for size in range(2, n - 1)
        for side in itertools.combinations(range(2, n + 1), size)
    ]
    rng.shuffle(pool)
    target = rng.randint(0, n - 3)
    chosen: list[Split] = []
    for side in pool:
        if len(chosen) >= target:
            break
        s = Split.from_side(n, side)
        if all(splits_compatible(s, t) for t in chosen):
            chosen.append(s)
    return chosen


def test_round_trip_random_split_sets():
    # 80 seeded compatible split sets at each of n = 4..7
    rng = random.Random(DEFAULT_SEED)
    for n in (4, 5, 6, 7):
        for _ in range(80):
            splits = _random_compatible_splits(rng, n)
            form = form_from_splits(n, splits)
            t = form.to_tree()
            assert t.is_stable
            assert canonical_form(t) == form
            assert len(t.edges) == len(set(splits))
