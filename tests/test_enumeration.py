"""Stratum enumeration: frozen counts, the leaf-insertion f-vector
oracle, the expansion-route cross-check, expansion/contraction duality,
and envelope behavior."""

import itertools

import pytest

from tropmoduli.enumeration import (
    ENVELOPE_MAX_N,
    EnvelopeError,
    all_splits,
    count_f_vector,
    count_maximal,
    enumerate_strata,
    expansions,
)
from shared import catalog
from tree_oracles import (
    apply_marking_permutation,
    canonical_form,
    contract,
    form_sort_key,
    single_vertex_tree,
    two_vertex_tree,
)

# dimension 0..n-3 counts; n=4 and the n=5 line are forced by the ray
# count 2^(n-1)-n-1 and the double factorial, the rest cross-checked by
# the expansion BFS below and by hand via leg-distribution counting
F_VECTORS = {
    3: [1],
    4: [1, 3],
    5: [1, 10, 15],
    6: [1, 25, 105, 105],
    7: [1, 56, 490, 1260, 945],
}


@pytest.mark.parametrize("n,expected", sorted(F_VECTORS.items()))
def test_f_vectors(n, expected):
    assert catalog(n).f_vector() == expected


@pytest.mark.parametrize("n", range(3, 9))
def test_catalog_is_one_flat_table_in_dimension_order(n):
    cat = catalog(n)
    assert type(cat.cell_rays) is tuple
    assert all(type(c) is tuple for c in cat.cell_rays)
    ranges = list(cat.dim_ranges.values())
    assert [len(r) for r in ranges] == count_f_vector(n)
    assert [r.start for r in ranges[1:]] == [r.stop for r in ranges[:-1]]
    assert (ranges[0].start, ranges[-1].stop) == (0, len(cat.cell_rays))
    for d, r in cat.dim_ranges.items():
        assert {len(cat.cell_rays[i]) for i in r} == {d}


def expansion_catalog(n):
    """Strata by dimension through the tree route: breadth-first one-edge
    expansions from the single-vertex tree, deduplicated by canonical
    form."""
    level = {canonical_form(single_vertex_tree(n))}
    out = {}
    while level:
        out[len(out)] = tuple(sorted(level, key=form_sort_key))
        level = {
            canonical_form(child)
            for form in level
            for child, _ in expansions(form.to_tree())
        }
    return out


def test_catalog_matches_expansion_bfs():
    # the clique enumeration against the expansion route, forms and order
    for n in (4, 5, 6, 7):
        assert catalog(n).by_dimension == expansion_catalog(n), n


def test_f_vector_recurrence_matches_frozen_counts():
    for n, expected in F_VECTORS.items():
        assert count_f_vector(n) == expected


@pytest.mark.parametrize("n", range(3, 9))
def test_f_vector_recurrence_matches_enumeration(n):
    fv = count_f_vector(n)
    assert catalog(n).f_vector() == fv
    assert fv[-1] == count_maximal(n)


def test_f_vector_recurrence_rejects_small_n():
    with pytest.raises(ValueError):
        count_f_vector(2)


def test_maximal_count_rejects_small_n():
    with pytest.raises(ValueError) as info:
        count_maximal(2)
    assert str(info.value) == "need n >= 3, got 2"


def test_ray_counts():
    for n in range(4, 9):
        count = 2 ** (n - 1) - n - 1
        assert len(all_splits(n)) == count
        if n <= 7:
            assert len(catalog(n).by_dimension[1]) == count


def test_rejects_small_n():
    with pytest.raises(ValueError):
        enumerate_strata(2)


def test_rejects_beyond_envelope():
    with pytest.raises(EnvelopeError):
        enumerate_strata(ENVELOPE_MAX_N + 1)


def test_count_maximal_values():
    assert [count_maximal(n) for n in range(3, 9)] == [1, 3, 15, 105, 945, 10395]


def test_count_maximal_matches_catalog():
    for n in range(3, 8):
        cat = catalog(n)
        assert len(cat.by_dimension[cat.max_dimension]) == count_maximal(n)


def test_no_duplicates_and_all_stable():
    for n in (4, 5, 6):
        for dim, forms in catalog(n).by_dimension.items():
            assert len(set(forms)) == len(forms)
            for form in forms:
                t = form.to_tree()
                assert t.is_stable and len(t.edges) == dim


def test_maximal_strata_are_trivalent():
    for n in (4, 5, 6, 7):
        cat = catalog(n)
        for form in cat.by_dimension[cat.max_dimension]:
            t = form.to_tree()
            assert all(
                t.valence(v) + t.leg_count(v) == 3 for v in range(t.num_vertices)
            )


def test_dimension_zero_is_unique():
    for n in (3, 4, 5, 6, 7):
        assert len(catalog(n).by_dimension[0]) == 1


# ---------------------------------------------------------------------------
# expansions


def test_trivalent_tree_has_no_expansions():
    form = catalog(5).by_dimension[2][0]
    assert expansions(form.to_tree()) == []


def test_expansions_of_point_n4():
    children = expansions(single_vertex_tree(4))
    forms = {canonical_form(child) for child, _ in children}
    assert forms == {
        canonical_form(two_vertex_tree(4, side)) for side in ([2, 3], [2, 4], [3, 4])
    }


def test_expansions_of_point_n5():
    # oracle: subsets of {1..5} of size 2 or 3, modulo complementation
    subsets = [
        frozenset(c)
        for r in (2, 3)
        for c in itertools.combinations(range(1, 6), r)
    ]
    full = frozenset(range(1, 6))
    distinct = {frozenset((s, full - s)) for s in subsets}
    children = expansions(single_vertex_tree(5))
    assert len(children) == len(distinct) == 10


def test_expansions_are_pairwise_nonisomorphic():
    for n in (5, 6):
        for form in catalog(n).all_forms():
            children = expansions(form.to_tree())
            forms = [canonical_form(c) for c, _ in children]
            assert len(set(forms)) == len(forms)


def test_contracting_new_edge_recovers_parent():
    for n in (5, 6):
        for form in catalog(n).all_forms():
            t = form.to_tree()
            for child, new_edge in expansions(t):
                assert child.is_stable
                back = contract(child, [new_edge]).tree
                assert canonical_form(back) == form


def test_every_stratum_is_an_expansion_of_each_contraction():
    for n in (5, 6):
        cat = catalog(n)
        for dim in range(1, cat.max_dimension + 1):
            for form in cat.by_dimension[dim]:
                t = form.to_tree()
                for e in range(len(t.edges)):
                    parent = contract(t, [e]).tree
                    children = {
                        canonical_form(c) for c, _ in expansions(parent)
                    }
                    assert form in children


def test_catalog_closed_under_marking_action():
    n = 5
    cat = catalog(n)
    for sigma in itertools.permutations(range(1, n + 1)):
        for dim, forms in cat.by_dimension.items():
            images = {
                canonical_form(apply_marking_permutation(sigma, f.to_tree()))
                for f in forms
            }
            assert images == set(forms)
