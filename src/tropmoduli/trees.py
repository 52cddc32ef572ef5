"""Stable legged trees, marking splits, and canonical forms.

A legged tree is a finite tree together with an assignment of the
markings ``{1, ..., n}`` to its vertices.  It is *stable* when every
vertex has valence + marking count at least 3.  Each edge separates
the markings into an unordered bipartition, recorded as a
:class:`Split`; because stable legged trees are rigid, the sorted
split set is a complete isomorphism invariant, the
:class:`CanonicalForm`.  The package only goes from a canonical form
to its tree (:meth:`CanonicalForm.to_tree`); the way back, from a tree to
its splits, is a test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "MIN_MARKINGS",
    "Split",
    "CanonicalForm",
    "LeggedTree",
    "splits_compatible",
    "check_marking_perm",
]

MIN_MARKINGS = 3


def check_marking_perm(n: int, sigma: Sequence[int]) -> tuple[int, ...]:
    """Validate a permutation of the markings 1..n given in one-line notation."""
    sigma = tuple(sigma)
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    return sigma


@dataclass(frozen=True)
class Split:
    """An unordered bipartition of the markings {1..n} with both parts of
    size >= 2, stored as the bitmask of the part not containing marking 1.

    Bit ``i-1`` of ``mask`` is set iff marking ``i`` lies in the stored
    side.  The (popcount, mask) pair gives the total order used for
    canonical sorting.
    """

    n: int
    mask: int

    def __post_init__(self):
        if self.mask & 1:
            raise ValueError("stored side of a split must not contain marking 1")
        if self.mask >> self.n:
            raise ValueError("side contains markings beyond n")
        size = self.mask.bit_count()
        if size < 2 or self.n - size < 2:
            raise ValueError(
                f"both sides of a split need >= 2 markings (n={self.n}, side size {size})"
            )

    @classmethod
    def from_side(cls, n: int, side: Iterable[int]) -> "Split":
        """Build a split from one side of the bipartition, normalizing away
        from marking 1."""
        mask = 0
        for i in side:
            if not 1 <= i <= n:
                raise ValueError(f"marking {i} outside 1..{n}")
            mask |= 1 << (i - 1)
        if mask & 1:
            mask ^= (1 << n) - 1
        return cls(n, mask)

    def side(self) -> tuple[int, ...]:
        """Markings of the stored (marking-1-free) side, ascending."""
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def sort_key(self) -> tuple[int, int]:
        return (self.mask.bit_count(), self.mask)

    def __repr__(self):
        return f"Split({self.n}, {{{','.join(map(str, self.side()))}}})"


def splits_compatible(a: Split, b: Split) -> bool:
    """Whether two splits can occur together in one tree: with both sides
    normalized away from marking 1, nested or disjoint."""
    if a.n != b.n:
        raise ValueError(f"splits on different marking sets: n={a.n} vs n={b.n}")
    common = a.mask & b.mask
    return common == 0 or common == a.mask or common == b.mask


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical form of a stable legged tree: its splits, strictly
    sorted under the (size, mask) order.  Two stable trees are isomorphic
    iff their canonical forms are equal."""

    n: int
    splits: tuple[Split, ...]

    def __post_init__(self):
        keys = [s.sort_key() for s in self.splits]
        if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
            raise ValueError("splits must be strictly sorted")
        for s in self.splits:
            if s.n != self.n:
                raise ValueError("split marking count differs from form")
        for a, b in itertools.combinations(self.splits, 2):
            if not splits_compatible(a, b):
                raise ValueError(f"incompatible splits {a} and {b}")

    def to_tree(self) -> "LeggedTree":
        """Build the stable tree with these splits.

        The normalized sides (all avoiding marking 1) form a laminar
        family, so each split nests in a unique minimal strictly-larger
        one; that nesting forest, hung from a root holding marking 1, is
        the tree.  Inverse, up to isomorphism, of reading a stable tree's
        split set.
        """
        n, ss = self.n, self.splits
        # vertex 0 is the root and vertex j + 1 is split j.  The family is
        # laminar, so a split's supersets and a marking's holders each form a
        # chain, whose least member comes first in (size, mask) order: a
        # split hangs from its first later superset, and marking m + 1 sits
        # at its first holder (marking 1, which no side holds, at the root).
        parents = [
            next((j + 1 for j in range(i + 1, len(ss)) if s.mask & ss[j].mask == s.mask), 0)
            for i, s in enumerate(ss)
        ]
        legs = tuple(next((j + 1 for j, s in enumerate(ss) if s.mask >> m & 1), 0) for m in range(n))
        # always stable: a childless split vertex keeps >= 2 legs, a one-child
        # vertex keeps the size difference, and branching vertices have
        # valence >= 3 already
        return LeggedTree(n, len(ss) + 1, tuple(enumerate(parents, 1)), legs)


@dataclass(frozen=True, eq=False)
class LeggedTree:
    """A tree with vertices 0..num_vertices-1, an indexed edge list, and
    an assignment of markings 1..n to vertices (legs[i-1] carries marking i).

    Vertex identifiers are arbitrary, so equality is identity: compare
    trees by their canonical forms.
    """

    n: int
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]

    def __post_init__(self):
        if self.n < MIN_MARKINGS:
            raise ValueError(f"need at least {MIN_MARKINGS} markings, got {self.n}")
        if self.num_vertices < 1:
            raise ValueError("need at least one vertex")
        if len(self.legs) != self.n:
            raise ValueError("leg assignment must cover every marking exactly once")
        if any(not 0 <= v < self.num_vertices for v in self.legs):
            raise ValueError("leg assigned to unknown vertex")
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) has unknown endpoint")
            if u == v:
                raise ValueError("loops not allowed in a genus-0 tree")
            norm.append((u, v) if u < v else (v, u))
        if len(set(norm)) != len(norm):
            raise ValueError("parallel edges not allowed in a genus-0 tree")
        object.__setattr__(self, "edges", tuple(norm))
        if len(self.edges) != self.num_vertices - 1:
            raise ValueError("a tree on V vertices has exactly V-1 edges")
        # connectivity (acyclicity then follows from the edge count)
        seen = {0}
        stack = [0]
        adj = self.adjacency
        while stack:
            for w, _ in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.num_vertices:
            raise ValueError("underlying graph is not connected")

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the incident (neighbor, edge index) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return tuple(tuple(a) for a in adj)

    def valence(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def leg_sets(self) -> tuple[frozenset[int], ...]:
        sets: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for i, v in enumerate(self.legs):
            sets[v].add(i + 1)
        return tuple(frozenset(s) for s in sets)

    def leg_count(self, v: int) -> int:
        return len(self.leg_sets[v])

    @cached_property
    def is_stable(self) -> bool:
        return all(
            self.valence(v) + self.leg_count(v) >= 3 for v in range(self.num_vertices)
        )
