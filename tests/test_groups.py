"""Permutation groups: orders, membership, and agreement of the
stabilizer chain with a brute-force element closure."""

import itertools
import math
import random
from collections import Counter

import pytest

from tropmoduli.automorphisms import _checked_group
from tropmoduli.groups import (
    PermutationGroup,
    _StabilizerChain,
    compose_perms,
    format_cycles,
    identity_perm,
    invert_perm,
    perm_cycles,
    point_orbit,
)


def cycle(degree, *points):
    p = list(range(degree))
    for a, b in zip(points, points[1:]):
        p[a] = b
    p[points[-1]] = points[0]
    return tuple(p)


def symmetric_gens(degree):
    return (cycle(degree, 0, 1), tuple(range(1, degree)) + (0,))


def closure(degree, gens):
    """Reference element set: breadth-first closure under the generators,
    sharing no code with the chain."""
    elements = {tuple(range(degree))}
    queue = list(elements)
    for p in queue:
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in elements:
                elements.add(q)
                queue.append(q)
    return elements


def test_compose_applies_right_factor_first():
    a = cycle(3, 0, 1)
    b = cycle(3, 1, 2)
    assert compose_perms(a, b) == (1, 2, 0)


def test_invert():
    p = (2, 0, 1)
    assert compose_perms(p, invert_perm(p)) == identity_perm(3)


def test_cycles_and_formatting():
    assert perm_cycles((1, 0, 2, 4, 3)) == [(0, 1), (3, 4)]
    assert format_cycles((1, 0, 2, 4, 3)) == "(0 1)(3 4)"
    assert format_cycles(identity_perm(4)) == "()"


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7])
def test_symmetric_group_orders(degree):
    gens = symmetric_gens(degree) if degree > 1 else ()
    g = PermutationGroup(degree, gens)
    assert g.order() == math.factorial(degree)


def test_trivial_group():
    g = PermutationGroup(5)
    assert g.order() == 1 and g.generators == ()
    assert identity_perm(5) in g
    assert (1, 0, 2, 3, 4) not in g


def test_klein_group():
    g = PermutationGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1)))
    assert g.order() == 4
    assert g.elements() == {
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    }


def test_membership():
    g = PermutationGroup(4, (cycle(4, 0, 1, 2, 3),))
    assert cycle(4, 0, 2)(0) if False else True
    assert compose_perms(*[cycle(4, 0, 1, 2, 3)] * 2) in g
    assert cycle(4, 0, 1) not in g


CHAIN_CASES = [
    (5, symmetric_gens(5)),
    (6, (cycle(6, 0, 1, 2), cycle(6, 3, 4, 5), cycle(6, 0, 3))),
    (7, (cycle(7, 0, 1, 2, 3, 4, 5, 6),)),
    (4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    (6, (cycle(6, 0, 1, 2, 3), cycle(6, 4, 5))),
]


def random_cases(count, seed=4):
    """Seeded groups of degree <= 8, each generated by one to three
    permutations that move at most four points."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        degree = rng.randint(5, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(degree), rng.randint(2, 4))
            p = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                p[a] = b
            gens.append(tuple(p))
        cases.append((degree, tuple(gens)))
    return cases


def assert_matches_closure(group, reference):
    assert group.order() == len(reference)
    assert group.elements() == reference
    assert all(p in group for p in reference)
    outside = itertools.islice(
        (p for p in itertools.permutations(range(group.degree)) if p not in reference), 200
    )
    assert not any(p in group for p in outside)


def seeded(degree, gens, base):
    """The group of ``gens`` with its chain started from ``base``."""
    group = PermutationGroup(degree, gens)
    group._chain = _StabilizerChain(degree, group.generators, base)
    return group


def test_chain_agrees_with_closure():
    for degree, gens in CHAIN_CASES:
        assert_matches_closure(PermutationGroup(degree, gens), closure(degree, gens))


@pytest.mark.parametrize("degree, gens", CHAIN_CASES + random_cases(8))
def test_chain_from_any_starting_base(degree, gens):
    reference = closure(degree, gens)
    complete = PermutationGroup(degree, gens)._chain
    empty, reverse = (), tuple(reversed(range(degree)))
    redundant = (degree - 1, degree - 1, 0) + tuple(range(degree)) + (0,)
    for base in (empty, reverse, redundant):
        assert_matches_closure(seeded(degree, gens, base), reference)
    # started from a base for which they are a strong generating set, the
    # strong generators need no residue
    strong = _StabilizerChain(degree, complete.strong, complete.base)
    assert strong.strong == complete.strong and strong.base == complete.base
    assert_matches_closure(seeded(degree, tuple(complete.strong), complete.base), reference)


@pytest.mark.parametrize("base", [(), (0,), (3, 2, 1, 0), (0, 1, 2), (2, 2, 0, 3)])
def test_checked_group_rejects_a_wrong_search_order(base):
    gens = [cycle(4, 0, 1, 2, 3), cycle(4, 0, 1)]
    with pytest.raises(AssertionError, match="search order 4 disagrees with generated group order 24"):
        _checked_group(4, gens, 4, base)
    assert _checked_group(4, gens, 24, base).order() == 24


def test_equals():
    a = PermutationGroup(3, (cycle(3, 0, 1), cycle(3, 0, 1, 2)))
    b = PermutationGroup(3, (cycle(3, 1, 2),  cycle(3, 0, 2)))
    assert a.equals(b)
    c = PermutationGroup(3, (cycle(3, 0, 1, 2),))
    assert not a.equals(c)


def test_equals_tells_apart_groups_of_equal_order():
    # both have order 2, so only the generator membership tells them apart
    assert not PermutationGroup(3, [(1, 0, 2)]).equals(PermutationGroup(3, [(0, 2, 1)]))


def test_orbits():
    gens = (cycle(5, 0, 1, 2),)
    assert [point_orbit(p, gens) for p in (0, 2, 3)] == [{0, 1, 2}, {0, 1, 2}, {3}]
    assert point_orbit(4, ()) == {4}


def test_random_elements_deterministic_and_members():
    g = PermutationGroup(5, symmetric_gens(5))
    a = g.random_elements(20, seed=7)
    b = g.random_elements(20, seed=7)
    assert a == b
    assert all(p in g for p in a)
    assert g.random_elements(5, seed=8) != g.random_elements(5, seed=9)


def test_random_elements_are_uniform():
    # S_4 from a transposition and a 4-cycle, both odd: a product of a
    # fixed number of generators stays in one parity class, a draw of
    # one coset representative per chain level reaches every element
    g = PermutationGroup(4, ((1, 0, 2, 3), (1, 2, 3, 0)))
    counts = Counter(g.random_elements(2400, 7))
    assert set(counts) == g.elements()
    assert min(counts.values()) > 50  # 100 expected per element
    assert PermutationGroup(3).random_elements(4, 7) == [identity_perm(3)] * 4


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        PermutationGroup(3, ((0, 0, 1),))
