"""Permutation groups: orders, membership, and agreement of the
stabilizer chain with a brute-force element closure."""

import itertools
import math

import pytest

from tropmoduli.groups import (
    PermutationGroup,
    compose_perms,
    format_cycles,
    identity_perm,
    invert_perm,
    perm_cycles,
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
    assert g.order() == 1 and g.is_trivial()
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


def test_chain_agrees_with_closure():
    cases = [
        (5, symmetric_gens(5)),
        (6, (cycle(6, 0, 1, 2), cycle(6, 3, 4, 5), cycle(6, 0, 3))),
        (7, (cycle(7, 0, 1, 2, 3, 4, 5, 6),)),
        (4, ((1, 0, 3, 2), (2, 3, 0, 1))),
        (6, (cycle(6, 0, 1, 2, 3), cycle(6, 4, 5))),
    ]
    for degree, gens in cases:
        reference = closure(degree, gens)
        group = PermutationGroup(degree, gens)
        assert group.order() == len(reference)
        assert group.elements() == reference
        assert all(p in group for p in reference)
        outside = [p for p in itertools.permutations(range(degree)) if p not in reference]
        assert not any(p in group for p in outside[:200])


def test_equals():
    a = PermutationGroup(3, (cycle(3, 0, 1), cycle(3, 0, 1, 2)))
    b = PermutationGroup(3, (cycle(3, 1, 2),  cycle(3, 0, 2)))
    assert a.equals(b)
    c = PermutationGroup(3, (cycle(3, 0, 1, 2),))
    assert not a.equals(c)


def test_orbits():
    g = PermutationGroup(5, (cycle(5, 0, 1, 2),))
    assert g.orbit(0) == {0, 1, 2}
    assert g.orbits() == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4})]


def test_random_elements_deterministic_and_members():
    g = PermutationGroup(5, symmetric_gens(5))
    a = g.random_elements(20, seed=7)
    b = g.random_elements(20, seed=7)
    assert a == b
    assert all(p in g for p in a)
    assert g.random_elements(5, seed=8) != g.random_elements(5, seed=9)


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        PermutationGroup(3, ((0, 0, 1),))
