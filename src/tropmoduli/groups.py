"""Finite permutation groups on {0, ..., degree-1} given by generators.

Order, membership, equality and element enumeration all go through one
base/strong-generating-set (Schreier-Sims) chain, so the arithmetic is
exact at every scale this package reaches without listing the elements
of large groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

__all__ = [
    "identity_perm",
    "compose_perms",
    "invert_perm",
    "check_perm",
    "perm_cycles",
    "format_cycles",
    "point_orbit",
    "PermutationGroup",
]


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def compose_perms(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Composition applying b first: (a*b)[i] = a[b[i]]."""
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
    strong generator moves when it fixes the whole base.  Each round
    builds every level's transversal and its inverses once, then sifts
    each Schreier generator u_{s(x)}^-1 s u_x of level i from level i + 1
    down, since it fixes base[:i+1]; tree edges (s u_x = u_{s(x)}) give
    the identity and are skipped.  A non-identity residue becomes a
    strong generator and starts the next round; a round that leaves no
    residue proves the chain complete, whatever base it started from."""

    def __init__(self, degree: int, gens: Sequence[tuple[int, ...]], base: Sequence[int] = ()):
        """``gens`` must be distinct non-identity permutations."""
        self.degree = degree
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

    def _level_gens(self, i):
        return [s for s in self.strong if all(s[p] == p for p in self.base[:i])]

    def _recompute_transversals(self):
        self.transversals: list[dict[int, tuple[int, ...]]] = [
            _orbit_transversal(self.degree, self.base[i], self._level_gens(i))
            for i in range(len(self.base))
        ]
        self._inverses = [{x: invert_perm(u) for x, u in t.items()} for t in self.transversals]

    def _first_residue(self):
        """Rebuild the transversals and sift the Schreier generators, deepest
        level first; the first non-identity residue, else None."""
        self._recompute_transversals()
        for i in reversed(range(len(self.base))):
            trans, inverses, gens = self.transversals[i], self._inverses[i], self._level_gens(i)
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
        return None if g == identity_perm(self.degree) else g

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, p) -> bool:
        return self._sift(tuple(p)) is None


@dataclass
class PermutationGroup:
    """A permutation group given by generators, with exact order,
    membership, and orbit queries."""

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
        return self._chain.order()

    def elements(self) -> frozenset:
        """Every element, as the products of one coset representative per
        chain level; meant for small groups."""
        out = [identity_perm(self.degree)]
        for trans in reversed(self._chain.transversals):
            out = [compose_perms(rep, g) for rep in trans.values() for g in out]
        return frozenset(out)

    def __contains__(self, p) -> bool:
        return self._chain.contains(check_perm(self.degree, p))

    def is_trivial(self) -> bool:
        return not self.generators

    def equals(self, other: "PermutationGroup") -> bool:
        """Equality as permutation groups (same degree, same element set)."""
        if self.degree != other.degree:
            return False
        if self.order() != other.order():
            return False
        return all(g in self for g in other.generators) and all(
            g in other for g in self.generators
        )

    def orbit(self, point: int) -> frozenset[int]:
        return frozenset(point_orbit(point, self.generators))

    def orbits(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        out = []
        for v in range(self.degree):
            if v not in seen:
                orb = self.orbit(v)
                seen |= orb
                out.append(orb)
        return out

    def random_elements(self, count: int, seed: int) -> list[tuple[int, ...]]:
        """Deterministic uniform sample of group elements: each is the
        product of one seeded random coset representative per chain level,
        as in :meth:`elements`."""
        rng = random.Random(seed)
        levels = [tuple(t.values()) for t in self._chain.transversals]
        out = []
        for _ in range(count):
            p = identity_perm(self.degree)
            for reps in levels:
                p = compose_perms(p, rng.choice(reps))
            out.append(p)
        return out
