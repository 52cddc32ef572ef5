"""Counting: the closed-form expansion count against brute force, and
the power-of-two sweep."""

import itertools
from collections import Counter

import pytest

from tropmoduli import counting
from tropmoduli.cones import star_count
from tropmoduli.counting import (
    LEMMA_MAX_BOUND,
    brute_force_partition_count,
    expansion_count_formula,
    lemma_power_sweep,
    per_vertex_partition_count,
)
from tropmoduli.enumeration import expansions
from tropmoduli.trees import LeggedTree

from shared import catalog, complex_for
from tree_oracles import single_vertex_tree, vertex_profile


def test_per_vertex_against_brute_force():
    for k in range(3, 13):
        # split k between legs and valence arbitrarily; only the sum matters
        assert per_vertex_partition_count(k, 0) == brute_force_partition_count(k)
        assert per_vertex_partition_count(k - 2, 2) == brute_force_partition_count(k)


def test_per_vertex_small_values():
    assert per_vertex_partition_count(3, 0) == 0
    assert per_vertex_partition_count(2, 2) == 3
    assert per_vertex_partition_count(5, 0) == 10


def test_per_vertex_rejects_unstable():
    with pytest.raises(ValueError):
        per_vertex_partition_count(1, 1)


def test_formula_rejects_unstable_tree():
    # vertex 1 carries no marking and one edge
    with pytest.raises(ValueError) as info:
        expansion_count_formula(LeggedTree(3, 2, ((0, 1),), (0, 0, 0)))
    assert str(info.value) == "expansion counts are defined for stable trees"


def test_formula_point_n4():
    assert expansion_count_formula(single_vertex_tree(4)) == 3


def test_formula_point_n5():
    assert expansion_count_formula(single_vertex_tree(5)) == 10


def test_formula_zero_on_trivalent():
    for form in catalog(6).by_dimension[3]:
        assert expansion_count_formula(form.to_tree()) == 0


def test_formula_equals_brute_force_expansions():
    for n in (4, 5, 6):
        for form in catalog(n).all_forms():
            t = form.to_tree()
            assert expansion_count_formula(t) == len(expansions(t))


def test_clade_tree_profiles_match_the_tree_route():
    # oracle: the vertex profile of each cell's legged tree, and the
    # count of its one-edge expansions built as trees
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        for i, pairs in enumerate(cx.vertex_profiles):
            tree = cx.cells[i].to_tree()
            assert pairs == vertex_profile(tree)
            brute = sum(brute_force_partition_count(legs + val) for legs, val in pairs)
            assert brute == len(expansions(tree))


def test_formula_equals_star_count():
    for n in (4, 5):
        cx = complex_for(n)
        for i, form in enumerate(cx.cells):
            assert expansion_count_formula(form.to_tree()) == star_count(cx, i)


def test_vertex_profile_invariants():
    # every recorded profile is that of a stable tree with n legs and one
    # edge per ray of the cell
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        for pairs, dim in zip(cx.vertex_profiles, map(len, cx.cell_rays)):
            assert len(pairs) == dim + 1
            assert sum(legs for legs, _ in pairs) == n
            assert sum(val for _, val in pairs) == 2 * dim
            assert all(legs + val >= 3 for legs, val in pairs)


# ---------------------------------------------------------------------------
# the power-of-two lemma


def lemma_pairs_oracle(bound, power_sum):
    """(equal-sum pairs, those that also have equal power sums) over all
    pairs of distinct exponent multisets with entries <= bound, found by
    comparing every pair; each pair is in increasing order."""
    multisets = sorted({tuple(sorted(t)) for t in itertools.product(range(bound + 1), repeat=3)})
    checked, violations = 0, []
    for a, b in itertools.combinations(multisets, 2):
        if sum(a) == sum(b):
            checked += 1
            if power_sum(a) == power_sum(b):
                violations.append((a, b))
    return checked, violations


@pytest.mark.parametrize("bound", range(2, 9))
def test_lemma_sweep_matches_pairwise_oracle(bound):
    checked, violations = lemma_power_sweep(bound)
    assert (checked, sorted(violations)) == lemma_pairs_oracle(
        bound, lambda t: sum(2**a for a in t)
    )


def test_lemma_sweep_reports_every_colliding_pair(monkeypatch):
    # with a power sum that collides, the sweep must report exactly the
    # pairs the oracle finds
    def collide(triple):
        return max(triple)

    monkeypatch.setattr(counting, "_power_sum", collide)
    checked, violations = lemma_power_sweep(6)
    expected = lemma_pairs_oracle(6, collide)
    assert expected[1]
    assert (checked, sorted(violations)) == expected


def test_lemma_sweep_at_the_envelope():
    # no violation up to the largest bound, and every equal-sum pair of
    # sorted triples covered: sum over s of C(N_s, 2), N_s counted by a
    # loop of its own over the sorted triples with sum s
    bound = LEMMA_MAX_BOUND
    per_sum = Counter(
        a + b + c
        for a in range(bound + 1)
        for b in range(a, bound + 1)
        for c in range(b, bound + 1)
    )
    checked, violations = lemma_power_sweep(bound)
    assert violations == []
    assert checked == sum(k * (k - 1) // 2 for k in per_sum.values())


def test_lemma_sweep_small():
    checked, violations = lemma_power_sweep(8)
    assert violations == []
    assert checked > 0


def test_two_vertex_expansion_count_determines_leg_multiset():
    # strata with two vertices and equal expansion counts have equal leg
    # multisets; exhaustive over the formula for n <= 10
    for n in range(4, 11):
        counts = {}
        for a in range(2, n - 1):
            value = (2**a - (a + 2)) + (2 ** (n - a) - (n - a + 2))
            counts.setdefault(value, set()).add(frozenset((a, n - a)))
        for value, multisets in counts.items():
            assert len(multisets) == 1, (n, value, multisets)
