"""Stable legged trees, marking splits, and canonical forms.

A legged tree is a finite tree together with an assignment of the
markings ``{1, ..., n}`` to its vertices.  It is *stable* when every
vertex has valence + marking count at least 3.  Each edge separates
the markings into an unordered bipartition, recorded as a
:class:`Split`; because stable legged trees are rigid, the sorted
split set is a complete isomorphism invariant and is used as the
canonical form throughout the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "MIN_MARKINGS",
    "Split",
    "CanonicalForm",
    "LeggedTree",
    "Contraction",
    "splits_compatible",
    "contract",
    "tree_from_splits",
    "are_isomorphic",
    "apply_marking_permutation",
    "automorphisms_of_tree",
    "legged_isomorphisms",
    "single_vertex_tree",
    "two_vertex_tree",
    "identity_marking_perm",
    "compose_marking_perms",
    "check_marking_perm",
]

MIN_MARKINGS = 3


def check_marking_perm(n: int, sigma: Sequence[int]) -> tuple[int, ...]:
    """Validate a permutation of the markings 1..n given in one-line notation."""
    sigma = tuple(sigma)
    if len(sigma) != n or sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    return sigma


def identity_marking_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def compose_marking_perms(sigma, tau):
    """Composition acting as sigma after tau: (sigma*tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t - 1] for t in tau)


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

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def side(self) -> tuple[int, ...]:
        """Markings of the stored (marking-1-free) side, ascending."""
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def other_side(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if not self.mask >> i & 1)

    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.side(), self.other_side()

    def permuted(self, sigma: Sequence[int]) -> "Split":
        """Image split under a marking permutation (renormalized)."""
        return Split.from_side(self.n, (sigma[i - 1] for i in self.side()))

    def sort_key(self) -> tuple[int, int]:
        return (self.mask.bit_count(), self.mask)

    def __lt__(self, other: "Split"):
        return self.sort_key() < other.sort_key()

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

    @classmethod
    def from_splits(cls, n: int, splits: Iterable[Split]) -> "CanonicalForm":
        return cls(n, tuple(sorted(set(splits), key=Split.sort_key)))

    def to_tree(self) -> "LeggedTree":
        return tree_from_splits(self.n, self.splits)

    def sort_key(self):
        return tuple(s.sort_key() for s in self.splits)

    def __repr__(self):
        inner = ", ".join(repr(s) for s in self.splits)
        return f"CanonicalForm(n={self.n}, [{inner}])"


class Contraction(NamedTuple):
    """Result of contracting edges: the contracted tree plus the map from
    retained old edge indices to their new indices."""

    tree: "LeggedTree"
    edge_map: dict[int, int]


@dataclass(frozen=True, eq=False)
class LeggedTree:
    """A tree with vertices 0..num_vertices-1, an indexed edge list, and
    an assignment of markings 1..n to vertices (legs[i-1] carries marking i).

    Vertex identifiers are arbitrary: equality and hashing go through the
    canonical form whenever the tree is stable.
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

    @cached_property
    def _edge_child_masks(self) -> tuple[tuple[int, int], ...]:
        """Per edge, (child vertex, bitmask of markings in the child-side
        component) for the tree rooted at vertex 0."""
        parent_edge = [-1] * self.num_vertices
        order = [0]
        seen = {0}
        for v in order:
            for w, idx in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    parent_edge[w] = idx
                    order.append(w)
        masks = [0] * self.num_vertices
        for i, v in enumerate(self.legs):
            masks[v] |= 1 << i
        child_of_edge = [(-1, 0)] * len(self.edges)
        for v in reversed(order[1:]):
            idx = parent_edge[v]
            child_of_edge[idx] = (v, masks[v])
            u, w = self.edges[idx]
            masks[u if u != v else w] |= masks[v]
        return tuple(child_of_edge)

    @cached_property
    def splits(self) -> tuple[Split, ...]:
        """One split per edge, aligned with the edge index.  Requires
        stability (otherwise some edge side can carry fewer than 2
        markings)."""
        return tuple(
            Split(self.n, mask ^ (((1 << self.n) - 1) if mask & 1 else 0))
            for _, mask in self._edge_child_masks
        )

    @cached_property
    def canonical_form(self) -> CanonicalForm:
        if not self.is_stable:
            raise ValueError("canonical forms are defined for stable trees only")
        form = CanonicalForm.from_splits(self.n, self.splits)
        if len(form.splits) != len(self.edges):
            raise AssertionError("distinct edges induced the same split")
        return form

    def split_index(self) -> dict[Split, int]:
        """Inverse of the edge -> split bijection."""
        return {s: i for i, s in enumerate(self.splits)}

    def __eq__(self, other):
        if not isinstance(other, LeggedTree):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_stable and other.is_stable:
            return self.canonical_form == other.canonical_form
        return (
            self.num_vertices == other.num_vertices
            and self.edges == other.edges
            and self.legs == other.legs
        )

    def __hash__(self):
        if self.is_stable:
            return hash(self.canonical_form)
        return hash((self.n, self.num_vertices, self.edges, self.legs))

    def __repr__(self):
        return (
            f"LeggedTree(n={self.n}, V={self.num_vertices}, "
            f"edges={list(self.edges)}, legs={list(self.legs)})"
        )


def single_vertex_tree(n: int) -> LeggedTree:
    """The unique 0-edge stable tree: one vertex carrying all markings."""
    return LeggedTree(n, 1, (), (0,) * n)


def two_vertex_tree(n: int, side: Iterable[int]) -> LeggedTree:
    """The 2-vertex tree whose single edge induces the given bipartition;
    vertex 0 carries the complement of ``side`` (the side with marking 1)."""
    s = Split.from_side(n, side)
    legs = tuple(1 if s.mask >> i & 1 else 0 for i in range(n))
    return LeggedTree(n, 2, ((0, 1),), legs)


def contract(t: LeggedTree, edge_indices: Iterable[int]) -> Contraction:
    """Contract a set of edges (given by index), merging endpoints and
    uniting their leg sets.  Retained edges keep their relative order; the
    returned map sends old retained indices to new ones."""
    idxs = set(edge_indices)
    bad = [i for i in idxs if not (isinstance(i, int) and 0 <= i < len(t.edges))]
    if bad:
        raise ValueError(f"not edges of the tree: {sorted(bad)}")

    parent = list(range(t.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in idxs:
        u, v = t.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    roots = sorted({find(v) for v in range(t.num_vertices)})
    new_id = {r: k for k, r in enumerate(roots)}
    new_edges = []
    edge_map = {}
    for i, (u, v) in enumerate(t.edges):
        if i in idxs:
            continue
        a, b = new_id[find(u)], new_id[find(v)]
        edge_map[i] = len(new_edges)
        new_edges.append((a, b))
    new_legs = tuple(new_id[find(v)] for v in t.legs)
    return Contraction(
        LeggedTree(t.n, len(roots), tuple(new_edges), new_legs), edge_map
    )


def tree_from_splits(n: int, splits: Iterable[Split]) -> LeggedTree:
    """Build the stable tree realizing a pairwise-compatible split set.

    The normalized sides (all avoiding marking 1) form a laminar family,
    so each split nests in a unique minimal strictly-larger one; that
    nesting forest, hung from a root holding marking 1, is the tree.
    Inverse of :attr:`LeggedTree.canonical_form` up to isomorphism.
    """
    ss = sorted(set(splits), key=Split.sort_key)
    for s in ss:
        if s.n != n:
            raise ValueError(f"split {s} has marking count {s.n}, expected {n}")
    for a, b in itertools.combinations(ss, 2):
        if not splits_compatible(a, b):
            raise ValueError(f"incompatible splits {a} and {b}")

    parents = []
    for i, s in enumerate(ss):
        best = 0  # vertex 0 is the root
        best_size = None
        for j, u in enumerate(ss):
            if j != i and s.mask & u.mask == s.mask:
                if best_size is None or u.size < best_size:
                    best, best_size = j + 1, u.size
        parents.append(best)

    edges = tuple((i + 1, p) for i, p in enumerate(parents))
    legs = []
    for marking in range(1, n + 1):
        if marking == 1:
            legs.append(0)
            continue
        bit = 1 << (marking - 1)
        holder, holder_size = 0, None
        for i, s in enumerate(ss):
            if s.mask & bit and (holder_size is None or s.size < holder_size):
                holder, holder_size = i + 1, s.size
        legs.append(holder)
    # always stable: a childless split vertex keeps >= 2 legs, a one-child
    # vertex keeps the size difference, and branching vertices have
    # valence >= 3 already
    return LeggedTree(n, len(ss) + 1, edges, tuple(legs))


def apply_marking_permutation(sigma: Sequence[int], t: LeggedTree) -> LeggedTree:
    """The tree with the same shape and relabeled markings: marking
    sigma(j) now sits where marking j sat.  A left action on canonical
    forms."""
    sigma = check_marking_perm(t.n, sigma)
    new_legs = [0] * t.n
    for j in range(1, t.n + 1):
        new_legs[sigma[j - 1] - 1] = t.legs[j - 1]
    return LeggedTree(t.n, t.num_vertices, t.edges, tuple(new_legs))


def legged_isomorphisms(t1: LeggedTree, t2: LeggedTree) -> Iterator[tuple[int, ...]]:
    """All vertex bijections t1 -> t2 preserving adjacency and mapping each
    leg to the equally-labeled leg (so leg sets must match exactly).

    Vertices carrying legs have forced images; bare vertices are matched
    by backtracking.  Works for unstable trees too.
    """
    if t1.n != t2.n or t1.num_vertices != t2.num_vertices:
        return
    V = t1.num_vertices
    forced: dict[int, int] = {}
    target_by_legs = {t2.leg_sets[w]: w for w in range(V) if t2.leg_sets[w]}
    for v in range(V):
        ls = t1.leg_sets[v]
        if ls:
            w = target_by_legs.get(ls)
            if w is None or t2.valence(w) != t1.valence(v):
                return
            forced[v] = w

    bare1 = [v for v in range(V) if not t1.leg_sets[v]]
    bare2 = [w for w in range(V) if not t2.leg_sets[w]]
    if len(bare1) != len(bare2):
        return
    edges2 = set(t2.edges)

    def ok_so_far(mapping, v, w):
        for u, _ in t1.adjacency[v]:
            if u in mapping:
                a, b = mapping[u], w
                if (min(a, b), max(a, b)) not in edges2:
                    return False
        return True

    def extend(mapping, used, k) -> Iterator[tuple[int, ...]]:
        if k == len(bare1):
            image = tuple(mapping[v] for v in range(V))
            if all(
                (min(image[u], image[v]), max(image[u], image[v])) in edges2
                for u, v in t1.edges
            ):
                yield image
            return
        v = bare1[k]
        for w in bare2:
            if w in used or t2.valence(w) != t1.valence(v):
                continue
            if ok_so_far(mapping, v, w):
                mapping[v] = w
                used.add(w)
                yield from extend(mapping, used, k + 1)
                del mapping[v]
                used.remove(w)

    base = dict(forced)
    if len(set(base.values())) != len(base):
        return
    for v, w in base.items():
        if not ok_so_far(base, v, w):
            return
    yield from extend(base, set(base.values()), 0)


def are_isomorphic(t1: LeggedTree, t2: LeggedTree) -> bool:
    """Isomorphism of legged trees; for stable trees this is canonical-form
    equality (and the witnessing isomorphism is then unique)."""
    if t1.n != t2.n:
        raise ValueError("trees with different marking counts")
    if t1.is_stable and t2.is_stable:
        return t1.canonical_form == t2.canonical_form
    return next(legged_isomorphisms(t1, t2), None) is not None


def automorphisms_of_tree(t: LeggedTree) -> list[tuple[int, ...]]:
    """All self-isomorphisms, as vertex image tuples, by brute-force search
    over leg-compatible vertex bijections.  For stable trees the result is
    exactly the identity."""
    return list(legged_isomorphisms(t, t))
