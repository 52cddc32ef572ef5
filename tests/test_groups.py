"""Permutation groups: orders, membership, and agreement of the
stabilizer chain with a brute-force element closure."""

import hashlib
import itertools
import math
import random
import re
from collections import Counter

import pytest

from tropmoduli import groups
from tropmoduli.automorphisms import DEFAULT_SEED, aut_via_compat_graph, aut_via_poset
from tropmoduli.groups import (
    PermutationGroup,
    _StabilizerChain,
    compose_perms,
    format_cycles,
    identity_perm,
    invert_perm,
    perm_cycles,
    point_orbit,
    sims_group,
)

from shared import complex_for


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
    # the genus-2 point cell composes degree-0 edge maps
    assert compose_perms((), ()) == ()
    assert compose_perms((0,), (0,)) == (0,)


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
    assert all(p in g for p in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))


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
    # equal order and membership of every reference element decide the set
    assert group.order() == len(reference)
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


def test_a_round_builds_each_level_at_most_once(monkeypatch):
    # the default-base chain of the n = 7 graph generators makes 6 rounds
    # and 332 sifts; a round builds the levels deepest first and stops at
    # its first residue, so it walks 18 orbits, not 6 rounds' full 23
    gens = aut_via_compat_graph(complex_for(7)).generators
    work = Counter()

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(*args):
            work[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(_StabilizerChain, "_first_residue")
    counted(_StabilizerChain, "_sift")
    counted(groups, "_orbit_transversal")
    chain = _StabilizerChain(56, gens)
    assert math.prod(len(t) for t in chain.transversals) == 5040
    assert work == {"_first_residue": 6, "_sift": 332, "_orbit_transversal": 18}


# per n, the sha256 of the graph group's chain and of its seeded sample
GRAPH_GROUP_PINS = {
    6: (
        "4899a0968bc5f9d0313662d34a5df70bc655ac089c3778efd57dfd990d762781",
        "1786652e29872cea6b3021b1c195d4a57b572a5ea5c0c20afb0b9119eb6c3f42",
    ),
    7: (
        "a47537796e6d40247736c9bf119f93f41c2873b7341a51fa5900f5df7c9f4b74",
        "c0a1791f1df71f952113b6000f611469af4d943444cccaa24d84c6ca17c1c3a7",
    ),
}


@pytest.mark.parametrize("n", sorted(GRAPH_GROUP_PINS))
def test_graph_group_chains_and_samples_are_pinned(n):
    # the sha256 of the chain's base, strong generators and transversal
    # sizes, and of the seeded sample, whose draws also read each
    # transversal's order: a reordered product or sift moves a pin
    chain_pin, sample_pin = GRAPH_GROUP_PINS[n]
    group = aut_via_compat_graph(complex_for(n))
    chain = group._chain
    shape = (chain.base, chain.strong, [len(t) for t in chain.transversals])
    assert hashlib.sha256(repr(shape).encode()).hexdigest() == chain_pin
    sample = group.random_elements(100, DEFAULT_SEED)
    assert hashlib.sha256(repr(sample).encode()).hexdigest() == sample_pin


def test_sims_group_rejects_a_wrong_search_order():
    # a true search for S_4: at point p the transposition (p w) fixes the
    # points below p, so the orbit product 2 * 3 * 4 is the group's order
    levels = [(p, range(p + 1, 4), lambda w, p=p: cycle(4, p, w)) for p in (2, 1, 0)]
    group = sims_group(4, levels)
    assert group.order() == 24 and group.generators == ((0, 1, 3, 2), (0, 2, 1, 3), (1, 0, 2, 3))
    # a search that skips the levels below 0: its one level's finds
    # return (0 1), then (0 1 2 3), an orbit product of 4 against S_4
    finds = iter([cycle(4, 0, 1), cycle(4, 0, 1, 2, 3)])
    with pytest.raises(AssertionError, match="search order 4 disagrees with generated group order 24"):
        sims_group(4, [(0, (1, 2, 3), lambda w: next(finds))])


@pytest.mark.parametrize("base", [(), (0,), (3, 2, 1, 0), (0, 1, 2), (2, 2, 0, 3)])
def test_checked_group_rejects_a_wrong_search_order(base, monkeypatch):
    # the group sims_group checks has order 24 whatever base its chain
    # starts from, so a search claiming 4 raises and one claiming 24 passes
    chain = groups._StabilizerChain
    monkeypatch.setattr(groups, "_StabilizerChain", lambda degree, gens, _=(): chain(degree, gens, base))
    finds = iter([cycle(4, 0, 1), cycle(4, 0, 1, 2, 3)])
    with pytest.raises(AssertionError, match="search order 4 disagrees with generated group order 24"):
        sims_group(4, [(0, (1, 2, 3), lambda w: next(finds))])
    levels = [(p, range(p + 1, 4), lambda w, p=p: cycle(4, p, w)) for p in (2, 1, 0)]
    group = sims_group(4, levels)
    assert group.order() == 24 and group._chain.base[: len(base)] == list(base)


def test_equals():
    a = PermutationGroup(3, (cycle(3, 0, 1), cycle(3, 0, 1, 2)))
    b = PermutationGroup(3, (cycle(3, 1, 2),  cycle(3, 0, 2)))
    assert a.equals(b)
    c = PermutationGroup(3, (cycle(3, 0, 1, 2),))
    assert not a.equals(c)
    assert not PermutationGroup(3).equals(PermutationGroup(4))


def test_equals_tells_apart_groups_of_equal_order():
    # both have order 2, so only the generator membership tells them apart
    assert not PermutationGroup(3, [(1, 0, 2)]).equals(PermutationGroup(3, [(0, 2, 1)]))


def test_equals_sifts_only_the_other_side(monkeypatch):
    # equal orders plus one inclusion decide equality: a.equals(b) sifts
    # b's generators through a's chain and never a's through b's
    a = PermutationGroup(5, symmetric_gens(5))
    b = PermutationGroup(5, (cycle(5, 0, 1), cycle(5, 1, 2), cycle(5, 2, 3), cycle(5, 3, 4)))
    assert a.order() == b.order()
    sifted = []
    contains = PermutationGroup.__contains__

    def spy(self, p):
        sifted.append((self, p))
        return contains(self, p)

    monkeypatch.setattr(PermutationGroup, "__contains__", spy)
    assert a.equals(b)
    assert len(sifted) == len(b.generators) == 4
    assert all(group is a for group, _ in sifted)


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
    assert len(counts) == 24 == g.order()
    assert all(p in g for p in counts)
    assert min(counts.values()) > 50  # 100 expected per element
    assert PermutationGroup(3).random_elements(4, 7) == [identity_perm(3)] * 4


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        PermutationGroup(3, ((0, 0, 1),))


def test_the_search_orbits_and_the_chain_share_no_orbit_walk(monkeypatch):
    # a point_orbit that drops one orbit point shrinks each search's orbit
    # product; the chain's transversals come from their own BFS, so both
    # searches at n = 5 still meet the true order and raise
    orbit = groups.point_orbit

    def drops_a_point(point, gens):
        found = orbit(point, gens)
        return found - {max(found)} if len(found) > 1 else found

    monkeypatch.setattr(groups, "point_orbit", drops_a_point)
    cx = complex_for(5)
    for search, name, order in ((aut_via_compat_graph, "graph", 18), (aut_via_poset, "poset", 45)):
        message = f"{name} search at n=5: search order {order} disagrees with generated group order"
        with pytest.raises(AssertionError, match=f"^{re.escape(message)} 120$"):
            search(cx)
