"""Isomorph-free enumeration of all stable n-legged trees by edge count.

A stable tree is determined by its split set, and the split sets that
occur are exactly the pairwise-compatible ones, so the strata are the
cliques of the compatibility graph on the rays (the splits, in (size,
mask) order).  Each stratum is the sorted tuple of its ray indices, and
cliques are grown level by level from bitmask rows of that graph into
one flat table in (dimension, lexicographic) order; the per-dimension
ranges, the f-vector and the canonical forms are views of it.  The
one-edge expansion route (:func:`expansions`) is only a test oracle for
the expansion formula, whose production brute force counts subsets per
vertex; :func:`count_f_vector` is an independent closed count of every
dimension.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .trees import (
    CanonicalForm,
    LeggedTree,
    MIN_MARKINGS,
    Split,
    splits_compatible,
)

__all__ = [
    "ENVELOPE_MAX_N",
    "EnvelopeError",
    "check_n",
    "StratumCatalog",
    "enumerate_strata",
    "expansions",
    "count_maximal",
    "count_f_vector",
    "all_splits",
]

ENVELOPE_MAX_N = 8


class EnvelopeError(RuntimeError):
    """A request exceeds the supported problem size."""


def check_n(n: int) -> None:
    """Reject an n below the stable range (ValueError) or beyond the
    envelope (EnvelopeError)."""
    if n < MIN_MARKINGS:
        raise ValueError(f"need n >= {MIN_MARKINGS}, got {n}")
    if n > ENVELOPE_MAX_N:
        raise EnvelopeError(
            f"n={n} exceeds the supported envelope (n <= {ENVELOPE_MAX_N}, "
            f"{count_maximal(ENVELOPE_MAX_N)} maximal strata)"
        )


@dataclass(frozen=True)
class StratumCatalog:
    """All strata of the moduli space for one n, in one flat table in
    (dimension, lexicographic) order, which is canonical-form order
    because the rays are in (size, mask) order.  A stratum is the sorted
    tuple of its indices into ``rays``, and its dimension (edge count)
    is its length.  ``compat_masks[r]`` is the bitmask of the rays
    compatible with ray r."""

    n: int
    rays: tuple[Split, ...]
    compat_masks: tuple[int, ...]
    cell_rays: tuple[tuple[int, ...], ...]

    @cached_property
    def dim_ranges(self) -> dict[int, range]:
        """The cells of each dimension, as a range of cell indices, found
        by bisection: cells are in dimension order."""
        cells = self.cell_rays
        bounds = [bisect_left(cells, d, key=len) for d in range(len(cells[-1]) + 2)]
        return {d: range(a, b) for d, (a, b) in enumerate(zip(bounds, bounds[1:]))}

    @property
    def max_dimension(self) -> int:
        return len(self.dim_ranges) - 1

    def f_vector(self) -> list[int]:
        return list(map(len, self.dim_ranges.values()))

    @cached_property
    def cells(self) -> tuple[CanonicalForm, ...]:
        """Each cell as a canonical form, built on first use (tests and
        the benchmark's replay)."""
        return tuple(
            CanonicalForm(self.n, tuple(self.rays[r] for r in c)) for c in self.cell_rays
        )

    @property
    def by_dimension(self) -> dict[int, tuple[CanonicalForm, ...]]:
        """The canonical forms of each dimension."""
        return {d: self.cells[r.start:r.stop] for d, r in self.dim_ranges.items()}

    def total(self) -> int:
        return len(self.cell_rays)

    def all_forms(self):
        return iter(self.cells)


def expansions(t: LeggedTree) -> list[tuple[LeggedTree, int]]:
    """All one-edge expansions of a stable tree, one per unordered
    partition of the legs and incident edges of a vertex into two parts
    of size >= 2.  Each result comes with the index of the new edge;
    contracting it recovers the input tree."""
    out = []
    new_edge_idx = len(t.edges)
    for v in range(t.num_vertices):
        legs_here = sorted(t.leg_sets[v])
        edges_here = sorted(idx for _, idx in t.adjacency[v])
        items = [("leg", j) for j in legs_here] + [("edge", i) for i in edges_here]
        k = len(items)
        if k < 4:
            continue
        # the part keeping items[0] stays at v, so each unordered
        # partition is produced exactly once
        rest = items[1:]
        for size in range(2, k - 1):
            for moved in itertools.combinations(rest, size):
                new_v = t.num_vertices
                edges = list(t.edges)
                legs = list(t.legs)
                for kind, x in moved:
                    if kind == "leg":
                        legs[x - 1] = new_v
                    else:
                        a, b = edges[x]
                        edges[x] = (new_v, b) if a == v else (a, new_v)
                edges.append((v, new_v))
                child = LeggedTree(t.n, t.num_vertices + 1, tuple(edges), tuple(legs))
                out.append((child, new_edge_idx))
    return out


def enumerate_strata(n: int) -> StratumCatalog:
    """Complete, duplicate-free catalog of stable trees for n markings:
    the cliques of the ray-compatibility graph, grown one ray at a time.

    Each clique carries the bitmask of the rays above its largest one
    that are compatible with all of its rays; extending by those rays in
    increasing order, from parents in lexicographic order, yields every
    clique exactly once and each level already sorted.
    """
    check_n(n)
    rays = tuple(all_splits(n))
    rows = tuple(
        sum(1 << j for j, b in enumerate(rays) if j != i and splits_compatible(a, b))
        for i, a in enumerate(rays)
    )
    cell_rays: list[tuple[int, ...]] = []
    level: list[tuple[tuple[int, ...], int]] = [((), (1 << len(rays)) - 1)]
    while level:
        cell_rays += (cell for cell, _ in level)
        grown = []
        for cell, candidates in level:
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                r = low.bit_length() - 1
                grown.append((cell + (r,), candidates & rows[r]))
        level = grown
    return StratumCatalog(n, rays, rows, tuple(cell_rays))


def count_maximal(n: int) -> int:
    """(2n-5)!! via the recursion c(3) = 1, c(n) = (2n-5) c(n-1): the
    number of trivalent strata, used as the enumeration oracle."""
    if n < MIN_MARKINGS:
        raise ValueError(f"need n >= {MIN_MARKINGS}, got {n}")
    c = 1
    for k in range(4, n + 1):
        c *= 2 * k - 5
    return c


def count_f_vector(n: int) -> list[int]:
    """Strata per dimension by leaf insertion, used as the whole-f-vector
    oracle.  Deleting leg n+1 from a stable (n+1)-legged tree with m edges
    leaves an n-legged tree in which the leg was attached either at one
    of its m+1 vertices (m edges) or by subdividing one of its n legs or
    m-1 edges (m-1 edges); so T(3, 0) = 1 and
    T(n+1, m) = (m+1) T(n, m) + (n+m-1) T(n, m-1)."""
    if n < MIN_MARKINGS:
        raise ValueError(f"need n >= {MIN_MARKINGS}, got {n}")
    t = [1]
    for k in range(MIN_MARKINGS, n):
        t = [
            (m + 1) * (t[m] if m < len(t) else 0) + (k + m - 1) * (t[m - 1] if m else 0)
            for m in range(len(t) + 1)
        ]
    return t


def all_splits(n: int) -> list[Split]:
    """Every split of {1..n}, in canonical (size, mask) order."""
    out = []
    for size in range(2, n - 1):
        for side in itertools.combinations(range(2, n + 1), size):
            out.append(Split.from_side(n, side))
    return sorted(out, key=Split.sort_key)
