"""Closed-form stratum-expansion counts and the power-of-two lemma.

The number of one-edge expansions of a stable tree has an exact closed
form, summed over vertices; this module evaluates it (big-integer safe)
and provides the exhaustive sweep showing that a sum of three powers of
two, together with the exponent sum, determines the exponent multiset.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .enumeration import EnvelopeError
from .trees import LeggedTree

__all__ = [
    "per_vertex_partition_count",
    "expansion_count_formula",
    "lemma_power_sweep",
    "LEMMA_MAX_BOUND",
    "brute_force_partition_count",
]


def per_vertex_partition_count(legs: int, valence: int) -> int:
    """Number of unordered partitions of the legs+edges at one vertex into
    two parts of size >= 2, i.e. (2^k - 2(k+1)) / 2 for k = legs+valence."""
    k = legs + valence
    if k < 3:
        raise ValueError(f"stable vertices have legs + valence >= 3, got {k}")
    return 2 ** (k - 1) - (k + 1)


def brute_force_partition_count(k: int) -> int:
    """The count of :func:`per_vertex_partition_count` by brute force, as
    the counting check compares them: enumerate all subsets of a k-element
    set and count unordered 2-part partitions with both parts of size >= 2."""
    return sum(1 for bits in range(1 << k) if 2 <= bits.bit_count() <= k - 2) // 2


def expansion_count_formula(t: LeggedTree) -> int:
    """Closed form for the number of one-edge expansions of a stable tree:
    the sum over vertices of 2^(legs+valence-1) - (legs+valence+1)."""
    if not t.is_stable:
        raise ValueError("expansion counts are defined for stable trees")
    return sum(
        per_vertex_partition_count(t.leg_count(v), t.valence(v))
        for v in range(t.num_vertices)
    )


LEMMA_MIN_BOUND = 2  # the first equal-sum pair: (0, 0, 2) and (0, 1, 1)
LEMMA_MAX_BOUND = 100


_POW2 = tuple(1 << a for a in range(LEMMA_MAX_BOUND + 1))


def _power_sum(triple) -> int:
    return _POW2[triple[0]] + _POW2[triple[1]] + _POW2[triple[2]]


def lemma_power_sweep(bound: int) -> tuple[int, list[tuple[tuple, tuple]]]:
    """Exhaustive sweep over all pairs of triples with entries <= bound and
    equal sums; returns (number of equal-sum pairs covered, counterexamples).

    Both statistics are symmetric, so sweeping sorted triples covers every
    pair.  Within each sum class, pairs with different 2-power sums are
    vacuously consistent, so a class is grouped by 2-power sum only when
    two of them are equal.  The sorted triples are distinct multisets, so
    every pair that also has equal 2-power sums is a counterexample.
    Bounds below LEMMA_MIN_BOUND cover no pair and raise ValueError; cost
    grows about cubically, so bounds above LEMMA_MAX_BOUND raise
    EnvelopeError.
    """
    if bound < LEMMA_MIN_BOUND:
        raise ValueError(
            f"bound must be >= {LEMMA_MIN_BOUND}: smaller bounds cover no pair, got {bound}"
        )
    if bound > LEMMA_MAX_BOUND:
        raise EnvelopeError(f"lemma sweep supports bound <= {LEMMA_MAX_BOUND}, got {bound}")
    by_sum: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for triple in itertools.combinations_with_replacement(range(bound + 1), 3):
        by_sum[sum(triple)].append(triple)
    checked = 0
    violations = []
    for group in by_sum.values():
        checked += len(group) * (len(group) - 1) // 2
        powers = list(map(_power_sum, group))
        if len(set(powers)) == len(powers):
            continue
        by_power: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for power, triple in zip(powers, group):
            by_power[power].append(triple)
        for same_power in by_power.values():
            violations.extend(itertools.combinations(same_power, 2))
    return checked, violations
