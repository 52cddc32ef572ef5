"""Finite permutation groups on {0, ..., degree-1} given by generators.

Order, membership, equality and uniform sampling all go through one
base/strong-generating-set (Schreier-Sims) chain, so the arithmetic is
exact at every scale this package reaches, and no routine lists a
group's elements.  :func:`sims_group` runs a Sims-style search and
builds its group, the chain started from the search's base.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

__all__ = [
    "identity_perm",
    "compose_perms",
    "invert_perm",
    "check_perm",
    "perm_cycles",
    "format_cycles",
    "point_orbit",
    "PermutationGroup",
    "sims_group",
]


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose_perms(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Composition applying b first: (a*b)[i] = a[b[i]].  Degrees 0 and 1
    take the generator, as ``itemgetter`` returns a scalar for one index
    and raises for none."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    return tuple(a[x] for x in b)


def invert_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def check_perm(degree: int, p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of 0..{degree - 1}: {p!r}")
    return p


def perm_cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Nontrivial cycles of a permutation, each starting at its minimum."""
    seen = set()
    cycles = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def format_cycles(p: Sequence[int]) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def _orbit_transversal(degree, point, gens):
    """BFS orbit of a point; transversal[x] maps point to x."""
    transversal = {point: identity_perm(degree)}
    queue = [point]
    for x in queue:
        rep = transversal[x]
        for g in gens:
            y = g[x]
            if y not in transversal:
                transversal[y] = compose_perms(g, rep)
                queue.append(y)
    return transversal


def point_orbit(point: int, gens: Sequence[Sequence[int]]) -> set[int]:
    """BFS orbit of a point under the generators."""
    orbit = {point}
    queue = [point]
    for x in queue:
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                queue.append(g[x])
    return orbit


class _StabilizerChain:
    """Deterministic Schreier-Sims from a starting base, which may be
    empty, redundant or too short: the base grows by the first point a
    strong generator moves when it fixes the whole base.  A round builds
    the levels deepest first, each once, and sifts each Schreier
    generator u_{s(x)}^-1 s u_x of level i through the levels below,
    since it fixes base[:i+1]; tree edges (s u_x = u_{s(x)}) give the
    identity and are skipped.  The first non-identity residue ends the
    round, before the levels above are built, and becomes a strong
    generator; a round that leaves no residue proves the chain complete,
    whatever base it started from."""

    def __init__(self, degree: int, gens: Sequence[tuple[int, ...]], base: Sequence[int] = ()):
        """``gens`` must be distinct non-identity permutations."""
        self.degree = degree
        self._identity = identity_perm(degree)
        self.strong = list(gens)
        self.base = list(base)
        for g in self.strong:
            self._extend_base_for(g)
        while (residue := self._first_residue()) is not None:
            self.strong.append(residue)
            self._extend_base_for(residue)

    def _extend_base_for(self, g):
        if all(g[p] == p for p in self.base):
            self.base.append(next(i for i in range(self.degree) if g[i] != i))

    def _first_residue(self):
        """Build and sift the levels, deepest first; the first non-identity
        residue, else None."""
        depth = len(self.base)
        self.transversals: list[dict[int, tuple[int, ...]]] = [{}] * depth
        self._inverses = [{}] * depth
        for i in reversed(range(depth)):
            gens = [s for s in self.strong if all(s[p] == p for p in self.base[:i])]
            trans = self.transversals[i] = _orbit_transversal(self.degree, self.base[i], gens)
            inverses = self._inverses[i] = {x: invert_perm(u) for x, u in trans.items()}
            for x, rep in trans.items():
                for s in gens:
                    su = compose_perms(s, rep)
                    if su != trans[s[x]]:
                        residue = self._sift(compose_perms(inverses[s[x]], su), i + 1)
                        if residue is not None:
                            return residue
        return None

    def _sift(self, g, start=0):
        """Strip g through the levels from ``start`` on; the non-identity
        residue when g is not generated, else None."""
        for point, inverses in zip(self.base[start:], self._inverses[start:]):
            x = g[point]
            if x != point:
                if x not in inverses:
                    return g
                g = compose_perms(inverses[x], g)
        return None if g == self._identity else g


@dataclass
class PermutationGroup:
    """A permutation group given by generators, with exact order,
    membership, equality and uniform sampling."""

    degree: int
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        ident = identity_perm(self.degree)
        gens = []
        for g in self.generators:
            g = check_perm(self.degree, g)
            if g != ident and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)

    @cached_property
    def _chain(self) -> _StabilizerChain:
        return _StabilizerChain(self.degree, self.generators)

    def order(self) -> int:
        return math.prod(len(t) for t in self._chain.transversals)

    def __contains__(self, p) -> bool:
        return self._chain._sift(check_perm(self.degree, p)) is None

    def equals(self, other: "PermutationGroup") -> bool:
        """Equality as permutation groups (same degree, same element set)."""
        if self.degree != other.degree:
            return False
        if self.order() != other.order():
            return False
        # a subgroup of equal finite order is the whole group
        return all(g in self for g in other.generators)

    def random_elements(self, count: int, seed: int) -> list[tuple[int, ...]]:
        """Deterministic uniform sample of group elements: each is the
        product of one seeded random coset representative per chain level."""
        rng = random.Random(seed)
        levels = [tuple(t.values()) for t in self._chain.transversals]
        out = []
        for _ in range(count):
            p = rng.choice(levels[0]) if levels else identity_perm(self.degree)
            for reps in levels[1:]:
                p = compose_perms(p, rng.choice(reps))
            out.append(p)
        return out


def sims_group(degree: int, levels: Iterable[tuple]) -> PermutationGroup:
    """The group of a Sims-style search.  ``levels`` yields ``(point,
    images, find)`` from the last base point up; the generators found so
    far fix the earlier points, so ``find(w)`` (a permutation or None)
    runs once per image outside the orbit, and |G| is the orbit sizes'
    product.  That order is cross-checked against the generated group,
    whose chain starts from the points with a nontrivial orbit, top
    level first.  The chain is complete from any starting base, so the
    check does not rest on the search's orbits; a disagreement raises
    ``AssertionError``.  The search's orbits come from
    :func:`point_orbit` and the chain's transversals from
    ``_orbit_transversal``, so this cross-check shares no BFS."""
    gens: list[tuple[int, ...]] = []
    order = 1
    base = []
    for point, images, find in levels:
        orbit = point_orbit(point, gens)
        for w in images:
            if w not in orbit and (g := find(w)) is not None:
                gens.append(g)
                orbit = point_orbit(point, gens)
        order *= len(orbit)
        if len(orbit) > 1:
            base.append(point)
    group = PermutationGroup(degree, tuple(gens))
    group._chain = _StabilizerChain(degree, group.generators, base[::-1])
    if group.order() != order:
        raise AssertionError(
            f"search order {order} disagrees with generated group order {group.order()}"
        )
    return group
