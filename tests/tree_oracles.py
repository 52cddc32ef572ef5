"""Second routes the tests compare the package against: a tree's splits
and canonical form, legged-tree contraction, isomorphism and rigidity,
the marking action on trees and splits, face lookup by split, vertex
profiles read off a tree, the face maps and automorphism cell maps on
sorted ray tuples, and the contraction check that builds each cell's
clade tree from scratch and recomputes every clade once per edge.

The package computes each of these facts one way, on ray indices and
bitmasks; these routes go through ``LeggedTree`` and ``Split`` objects,
through cells keyed by their sorted ray tuples, or through each cell's
own clade tree, instead and share no code with it beyond those classes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from tropmoduli.trees import CanonicalForm, LeggedTree, Split, check_marking_perm

from shared import cell_of


# ---------------------------------------------------------------------------
# tree fixtures


def single_vertex_tree(n: int) -> LeggedTree:
    """The unique 0-edge stable tree: one vertex carrying all markings."""
    return LeggedTree(n, 1, (), (0,) * n)


def two_vertex_tree(n: int, side: Iterable[int]) -> LeggedTree:
    """The 2-vertex tree whose single edge induces the given bipartition;
    vertex 0 carries the complement of ``side`` (the side with marking 1)."""
    s = Split.from_side(n, side)
    legs = tuple(1 if s.mask >> i & 1 else 0 for i in range(n))
    return LeggedTree(n, 2, ((0, 1),), legs)


# ---------------------------------------------------------------------------
# splits and canonical forms


def _edge_child_masks(t: LeggedTree) -> tuple[tuple[int, int], ...]:
    """Per edge, (child vertex, bitmask of markings in the child-side
    component) for the tree rooted at vertex 0."""
    parent_edge = [-1] * t.num_vertices
    order = [0]
    seen = {0}
    for v in order:
        for w, idx in t.adjacency[v]:
            if w not in seen:
                seen.add(w)
                parent_edge[w] = idx
                order.append(w)
    masks = [0] * t.num_vertices
    for i, v in enumerate(t.legs):
        masks[v] |= 1 << i
    child_of_edge = [(-1, 0)] * len(t.edges)
    for v in reversed(order[1:]):
        idx = parent_edge[v]
        child_of_edge[idx] = (v, masks[v])
        u, w = t.edges[idx]
        masks[u if u != v else w] |= masks[v]
    return tuple(child_of_edge)


def tree_splits(t: LeggedTree) -> tuple[Split, ...]:
    """One split per edge, aligned with the edge index.  Requires
    stability (otherwise some edge side can carry fewer than 2
    markings)."""
    return tuple(
        Split(t.n, mask ^ (((1 << t.n) - 1) if mask & 1 else 0))
        for _, mask in _edge_child_masks(t)
    )


def form_from_splits(n: int, splits: Iterable[Split]) -> CanonicalForm:
    """The canonical form with the given splits, sorted and deduplicated."""
    return CanonicalForm(n, tuple(sorted(set(splits), key=Split.sort_key)))


def form_sort_key(form: CanonicalForm) -> tuple[tuple[int, int], ...]:
    """The order of canonical forms within one dimension: their splits'
    (size, mask) keys, compared in turn."""
    return tuple(s.sort_key() for s in form.splits)


def canonical_form(t: LeggedTree) -> CanonicalForm:
    """The sorted split set of a stable tree."""
    if not t.is_stable:
        raise ValueError("canonical forms are defined for stable trees only")
    # one split per edge: cutting edges e and f leaves an end part A
    # and a middle part B, and summing valence + legs - 2 >= 1 over
    # their vertices gives legs(A) >= 2 and legs(B) >= 1, so the
    # splits {A, B + C} and {A + B, C} differ
    return form_from_splits(t.n, tree_splits(t))


# ---------------------------------------------------------------------------
# contraction


class Contraction(NamedTuple):
    """Result of contracting edges: the contracted tree plus the map from
    retained old edge indices to their new indices."""

    tree: LeggedTree
    edge_map: dict[int, int]


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


def clade_trees(cx) -> Iterator[tuple[list[int], list[int]]]:
    """Per cell, its tree on bitmasks: the parent of each clade and the
    own legs of each vertex.  A cell's clades are its ray masks (the
    marking-1-free sides) in (size, mask) order, so the parent of clade i
    is the first later clade containing it, or else the root
    ``len(parent)`` (the vertex of marking 1).  A vertex's own legs are
    its mask minus its children's."""
    masks = [s.mask for s in cx.rays]
    full = (1 << cx.n) - 1
    for rays in cx.cell_rays:
        clades = [masks[r] for r in rays]
        root = len(clades)
        parent = []
        for k, m in enumerate(clades):
            for j in range(k + 1, root):
                if clades[j] & m == m:
                    break
            else:
                j = root
            parent.append(j)
        own = clades + [full]
        for k, p in enumerate(parent):
            own[p] ^= clades[k]  # children are disjoint parts of their parent
        yield parent, own


def valences(parent: list[int]) -> list[int]:
    """Each vertex's valence; vertex ``len(parent)`` is the root, and every
    other vertex also carries the edge to its parent."""
    valence = [1] * len(parent) + [0]
    for p in parent:
        valence[p] += 1
    return valence


def per_edge_contractions(cx) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Contract every edge of every cell's tree and compare the result
    with the face in ``cx.codim1``; raise ``AssertionError`` naming the
    cell and the edge on the first disagreement.

    The tree is the cell's clade tree (see :func:`clade_trees`) and
    must be stable.  Contracting edge e merges vertex e into its parent,
    which must stay stable (no other vertex changes), the remaining
    clade masks are recomputed bottom-up from the own legs, and they
    must be exactly the rays of the face: the OR of their rays' bits must
    equal the face's key in ``cx.index`` (a clade that is no ray, or two
    clades on one ray, leaves a bit out).  The faces of a cell must be
    distinct (rigidity).  Returns each cell's vertex profile, equal
    profiles as one shared tuple.
    """
    bit_of = {m: 1 << r for m, r in cx.ray_by_mask.items()}
    cell_masks = list(cx.index)
    profiles, seen = [], {}
    for i, ((parent, own), faces) in enumerate(zip(clade_trees(cx), cx.codim1)):
        rays, root = cx.cell_rays[i], len(parent)
        legs, valence = [m.bit_count() for m in own], valences(parent)
        weight = [a + b for a, b in zip(legs, valence)]
        if min(weight) < 3:
            raise AssertionError(f"cell {cx.cell_name(i)} has an unstable vertex")
        for e, tgt in enumerate(faces):
            up = parent[e]
            # the merged vertex loses the contracted edge at both ends
            if weight[up] + weight[e] - 2 < 3:
                raise AssertionError(
                    f"contracting edge {cx.ray_name(rays[e])} of cell "
                    f"{cx.cell_name(i)} leaves an unstable vertex"
                )
            acc = own[:]
            acc[up] |= own[e]
            for k, p in enumerate(parent):
                if k != e:
                    acc[up if p == e else p] |= acc[k]  # children precede their parent
            face = 0
            for m in acc[:e] + acc[e + 1:root]:
                face |= bit_of.get(m, 0)  # a clade that is no ray adds no bit
            if face != cell_masks[tgt]:
                raise AssertionError(
                    f"contracting edge {cx.ray_name(rays[e])} of cell "
                    f"{cx.cell_name(i)} disagrees with split removal"
                )
        if len(set(faces)) < len(faces):
            raise AssertionError(
                f"two one-edge contractions of cell {cx.cell_name(i)} hit the same face"
            )
        pairs = tuple(sorted(zip(legs, valence)))
        profiles.append(seen.setdefault(pairs, pairs))
    return tuple(profiles)


def face(cx, cell_idx: int, drop: Iterable[Split]) -> tuple[int, dict[int, int]]:
    """Face of a complex's cell reached by contracting the given splits of
    it; returns (target index, retained-split injection by position)."""
    cell = cx.cell_rays[cell_idx]
    dropped = {cx.ray_by_mask.get(s.mask) for s in drop}
    if not dropped <= set(cell):
        raise ValueError(f"some split to drop is not in cell {cell_idx}")
    target = tuple(r for r in cell if r not in dropped)
    pos = {r: k for k, r in enumerate(target)}
    retained = {k: pos[r] for k, r in enumerate(cell) if r in pos}
    return cell_of(cx, target), retained


def tuple_index(cx) -> dict[tuple[int, ...], int]:
    """Cell index by the cell's sorted tuple of ray indices."""
    return {c: i for i, c in enumerate(cx.cell_rays)}


def tuple_codim1(cx) -> tuple[tuple[int, ...], ...]:
    """Per cell: the face index reached by dropping each ray, in ray order,
    found by slicing the ray out of the cell's tuple."""
    index = tuple_index(cx)
    return tuple(
        tuple(index[c[:k] + c[k + 1:]] for k in range(len(c))) for c in cx.cell_rays
    )


def tuple_cell_map(f) -> tuple[int, ...]:
    """Image cell per cell index of a complex automorphism: each cell's
    rays are mapped, sorted and looked up as a tuple.  Raises as
    ``ComplexAutomorphism.check_cells`` does, naming the same first cell,
    and also if the images change a dimension or are no permutation."""
    cx = f.cx
    index = tuple_index(cx)
    image = f.ray_perm.__getitem__
    images = map(tuple, map(sorted, map(map, itertools.repeat(image), cx.cell_rays)))
    out = tuple(map(index.get, images))
    dims = tuple(map(len, cx.cell_rays))
    if None in out or tuple(map(dims.__getitem__, out)) != dims:
        i = next(i for i, j in enumerate(out) if j is None or dims[j] != dims[i])
        name = cx.cell_name(i)
        raise ValueError(f"ray permutation does not map cell {i} ({name}) to a cell")
    if len(set(out)) < len(out):
        raise ValueError("cell images do not form a permutation")
    return out


def vertex_profile(t: LeggedTree) -> tuple[tuple[int, int], ...]:
    """The sorted (leg count, valence) pairs of a tree's vertices."""
    return tuple(sorted((t.leg_count(v), t.valence(v)) for v in range(t.num_vertices)))


# ---------------------------------------------------------------------------
# the marking action


def compose_marking_perms(sigma, tau):
    """Composition acting as sigma after tau: (sigma*tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t - 1] for t in tau)


def apply_marking_permutation(sigma: Sequence[int], t: LeggedTree) -> LeggedTree:
    """The tree with the same shape and relabeled markings: marking
    sigma(j) now sits where marking j sat.  A left action on canonical
    forms."""
    sigma = check_marking_perm(t.n, sigma)
    new_legs = [0] * t.n
    for j in range(1, t.n + 1):
        new_legs[sigma[j - 1] - 1] = t.legs[j - 1]
    return LeggedTree(t.n, t.num_vertices, t.edges, tuple(new_legs))


def permuted(s: Split, sigma: Sequence[int]) -> Split:
    """Image split under a marking permutation (renormalized)."""
    return Split.from_side(s.n, (sigma[i - 1] for i in s.side()))


def split_image(f, s: Split) -> Split:
    """The split a complex automorphism sends the given ray's split to."""
    return f.cx.rays[f.ray_perm[f.cx.ray_by_mask[s.mask]]]


# ---------------------------------------------------------------------------
# isomorphism and rigidity


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
        return canonical_form(t1) == canonical_form(t2)
    return next(legged_isomorphisms(t1, t2), None) is not None


def automorphisms_of_tree(t: LeggedTree) -> list[tuple[int, ...]]:
    """All self-isomorphisms, as vertex image tuples, by brute-force search
    over leg-compatible vertex bijections.  For stable trees the result is
    exactly the identity."""
    return list(legged_isomorphisms(t, t))
