"""Automorphisms of the genus-0 tropical moduli cone complex.

An automorphism permutes cells preserving dimension and restricts to a
bijection of edges on every cell, so it is determined by its action on
the rays.  This module computes the full group by two independent
routes (a refinement-pruned backtracking search on the ray-compatibility
graph, and a slower cell-system search on the face poset), realizes the
action of marking permutations, reconstructs the inducing marking
permutation from an abstract automorphism, and packages the comparison
against the expected symmetric-group answer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .cones import ConeComplex, build_complex
from .enumeration import EnvelopeError
from .groups import PermutationGroup, format_cycles, identity_perm
from .trees import (
    LeggedTree,
    Split,
    check_marking_perm,
)

__all__ = [
    "ComplexAutomorphism",
    "ReconstructionError",
    "CellwiseError",
    "CellwiseWitness",
    "graph_automorphism_group",
    "aut_via_compat_graph",
    "aut_via_poset",
    "sn_action",
    "sn_kernel",
    "sn_image_group",
    "reconstruct_sigma",
    "image_marking_side",
    "check_cellwise_permutation",
    "verify_sn_surjectivity",
    "verify_main_theorem",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729

POSET_MAX_N = 6
VERIFY_MIN_N, VERIFY_MAX_N = 4, 7


class ReconstructionError(RuntimeError):
    """A step of the constructive marking-permutation recovery failed;
    this would falsify the symmetric-group description of the group."""


class CellwiseError(RuntimeError):
    """No marking permutation matches a cell's image under the given
    automorphism."""

    def __init__(self, cell_idx: int, message: str):
        super().__init__(f"cell {cell_idx}: {message}")
        self.cell_idx = cell_idx


# ---------------------------------------------------------------------------
# graph automorphisms: color refinement + individualization backtracking


def _refine_pair(nbrs, ca, cb):
    """Refine two colorings of the same graph in lockstep with iterated
    neighbor-signature partitioning.  Returns the stable pair, or None as
    soon as the class structures diverge (no color-preserving bijection
    can exist)."""
    V = len(nbrs)
    while True:
        siga = [
            (ca[v], tuple(sorted(Counter(ca[u] for u in nbrs[v]).items())))
            for v in range(V)
        ]
        sigb = [
            (cb[v], tuple(sorted(Counter(cb[u] for u in nbrs[v]).items())))
            for v in range(V)
        ]
        if sorted(siga) != sorted(sigb):
            return None
        ids = {key: i for i, key in enumerate(sorted(set(siga)))}
        na = tuple(ids[k] for k in siga)
        nb = tuple(ids[k] for k in sigb)
        if na == ca and nb == cb:
            return na, nb
        ca, cb = na, nb


def _individualize(colors, v):
    fresh = max(colors) + 1
    return tuple(fresh if i == v else c for i, c in enumerate(colors))


def _first_nonsingleton(colors):
    counts = Counter(colors)
    for c in sorted(counts):
        if counts[c] > 1:
            return c
    return None


def _members(colors, c):
    return [v for v, col in enumerate(colors) if col == c]


def _map_from_discrete(nbrs, ca, cb):
    """Vertex map matching equal colors of two discrete colorings, verified
    to preserve adjacency; None when it does not."""
    pos = {c: v for v, c in enumerate(cb)}
    perm = tuple(pos[c] for c in ca)
    for v in range(len(nbrs)):
        if {perm[u] for u in nbrs[v]} != set(nbrs[perm[v]]):
            return None
    return perm


def _find_iso(nbrs, ca, cb):
    """One color-preserving automorphism taking the ca-coloring to the
    cb-coloring, or None."""
    pair = _refine_pair(nbrs, ca, cb)
    if pair is None:
        return None
    ca, cb = pair
    c = _first_nonsingleton(ca)
    if c is None:
        return _map_from_discrete(nbrs, ca, cb)
    v = min(_members(ca, c))
    iv = _individualize(ca, v)
    for w in sorted(_members(cb, c)):
        found = _find_iso(nbrs, iv, _individualize(cb, w))
        if found is not None:
            return found
    return None


def _aut_search(nbrs, colors):
    """Generators and order of the color-preserving automorphism group, by
    the orbit-stabilizer recursion: fix the first vertex of the first
    non-singleton class, recurse for its stabilizer, then find one coset
    representative per remaining orbit candidate."""
    c = _first_nonsingleton(colors)
    if c is None:
        return [], 1
    members = _members(colors, c)
    v = members[0]
    iv = _individualize(colors, v)
    stab_colors, _ = _refine_pair(nbrs, iv, iv)
    gens, stab_order = _aut_search(nbrs, stab_colors)
    orbit = PermutationGroup(len(nbrs), tuple(gens)).orbit(v)
    for w in members[1:]:
        if w in orbit:
            continue
        phi = _find_iso(nbrs, iv, _individualize(colors, w))
        if phi is not None:
            gens.append(phi)
            orbit = PermutationGroup(len(nbrs), tuple(gens)).orbit(v)
    return gens, stab_order * len(orbit)


def graph_automorphism_group(neighbors: list[list[int]]) -> PermutationGroup:
    """Full automorphism group of a simple graph given by adjacency lists.

    Self-contained: iterated degree/neighbor-signature refinement with
    individualization backtracking; no canonical-labeling dependency.
    """
    V = len(neighbors)
    if V == 0:
        return PermutationGroup(0)
    uniform = (0,) * V
    colors, _ = _refine_pair(neighbors, uniform, uniform)
    gens, order = _aut_search(neighbors, colors)
    return _checked_group(V, gens, order)


def _checked_group(degree, gens, order) -> PermutationGroup:
    """The group generated by a search's generators, cross-checked against
    the orbit-stabilizer order the search computed."""
    group = PermutationGroup(degree, tuple(gens))
    if group.order() != order:
        raise AssertionError(
            f"search order {order} disagrees with generated group order {group.order()}"
        )
    return group


# ---------------------------------------------------------------------------
# complex automorphisms as ray permutations


@dataclass(frozen=True)
class ComplexAutomorphism:
    """An automorphism of the cone complex, stored as its permutation of
    the rays; the cell permutation and per-cell edge bijections are
    derived (every cell is the set of its pairwise-compatible rays)."""

    cx: ConeComplex
    ray_perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ray_perm", tuple(self.ray_perm))
        if sorted(self.ray_perm) != list(range(len(self.cx.rays))):
            raise ValueError("not a permutation of the rays")

    @cached_property
    def cell_map(self) -> tuple[int, ...]:
        """Image cell per cell index; raises if some image split set is not
        a cell (then the ray permutation is no automorphism at all)."""
        cx = self.cx
        out = []
        for i, cell in enumerate(cx.cell_rays):
            j = cx.index.get(tuple(sorted(self.ray_perm[r] for r in cell)))
            if j is None or cx.dims[j] != cx.dims[i]:
                raise ValueError(f"ray permutation does not map cell {i} to a cell")
            out.append(j)
        if sorted(out) != list(range(len(cx.cells))):
            raise ValueError("cell images do not form a permutation")
        return tuple(out)

    def split_image(self, s: Split) -> Split:
        return self.cx.rays[self.ray_perm[self.cx.ray_index[s]]]

    def edge_map(self, cell_idx: int) -> dict[Split, Split]:
        """The bijection between a cell's splits and its image's splits."""
        return {s: self.split_image(s) for s in self.cx.cells[cell_idx].splits}

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.ray_perm))

    def __eq__(self, other):
        if not isinstance(other, ComplexAutomorphism):
            return NotImplemented
        return self.cx.n == other.cx.n and self.ray_perm == other.ray_perm

    def __hash__(self):
        return hash((self.cx.n, self.ray_perm))


def aut_via_compat_graph(cx: ConeComplex) -> PermutationGroup:
    """The automorphism group of the ray-compatibility graph; every
    generator is checked to extend to a genuine complex automorphism
    (cells map to cells, dimensionwise)."""
    group = graph_automorphism_group(cx.compat_neighbors())
    for g in group.generators:
        ComplexAutomorphism(cx, g).cell_map  # raises when the extension fails
    return group


def aut_via_poset(cx: ConeComplex) -> PermutationGroup:
    """Independent recomputation of the automorphism group from the face
    poset alone: backtracking over dimension-preserving assignments of
    ray images, pruned by per-ray cell-membership signatures and by
    2-cell preservation, with every candidate verified to map the whole
    cell system to itself.  Only one verified completion per orbit of
    the stabilizer of the rays already fixed is searched for.  Slower
    than the graph route; capped at n <= 6."""
    if cx.n > POSET_MAX_N:
        raise EnvelopeError(f"poset search supports n <= {POSET_MAX_N}, got n={cx.n}")
    R = len(cx.rays)
    cells = set(cx.cell_rays)
    counts = [[0] * (cx.max_dimension + 1) for _ in range(R)]
    pair_rows = [0] * R
    for c in cells:
        for r in c:
            counts[r][len(c)] += 1
        if len(c) == 2:
            a, b = c
            pair_rows[a] |= 1 << b
            pair_rows[b] |= 1 << a
    signature = [tuple(row) for row in counts]

    assignment = [-1] * R
    used = [False] * R

    def verify(perm):
        return all(
            tuple(sorted(perm[r] for r in c)) in cells for c in cells if len(c) >= 2
        )

    def candidates(k):
        """Unused images for ray k consistent with assignment[:k]."""
        return [
            w
            for w in range(R)
            if not used[w]
            and signature[w] == signature[k]
            and all(
                (pair_rows[k] >> j & 1) == (pair_rows[w] >> assignment[j] & 1)
                for j in range(k)
            )
        ]

    def complete(k, w):
        """The first verified completion of assignment[:k] that sends ray
        k to w, or None."""
        assignment[k] = w
        used[w] = True
        if k + 1 == R:
            found = tuple(assignment) if verify(assignment) else None
        else:
            found = next(filter(None, (complete(k + 1, v) for v in candidates(k + 1))), None)
        used[w] = False
        return found

    # Sims-style search: with rays 0..k-1 fixed, the generators found so
    # far fix them too, so only one image of ray k per orbit needs a
    # completion; |G| is the product of these orbit sizes.
    gens: list[tuple[int, ...]] = []
    order = 1
    for k in reversed(range(R)):
        assignment[:k] = range(k)
        used[:] = [r < k for r in range(R)]
        orbit = PermutationGroup(R, tuple(gens)).orbit(k)
        for w in candidates(k):
            if w not in orbit and (g := complete(k, w)) is not None:
                gens.append(g)
                orbit = PermutationGroup(R, tuple(gens)).orbit(k)
        order *= len(orbit)
    return _checked_group(R, gens, order)


# ---------------------------------------------------------------------------
# the marking-permutation action


def marking_ray_permutation(cx: ConeComplex, sigma) -> tuple[int, ...]:
    sigma = check_marking_perm(cx.n, sigma)
    return tuple(cx.ray_index[s.permuted(sigma)] for s in cx.rays)


def sn_action(cx: ConeComplex, sigma) -> ComplexAutomorphism:
    """The automorphism induced by a marking permutation (relabel the
    markings of every stratum).  A group homomorphism; injective for
    n >= 5, with the Klein four-group as kernel at n = 4."""
    f = ComplexAutomorphism(cx, marking_ray_permutation(cx, sigma))
    f.cell_map  # force the cells-to-cells verification
    return f


def sn_kernel(cx: ConeComplex) -> list[tuple[int, ...]]:
    """Marking permutations acting trivially on the complex, by direct
    enumeration of the symmetric group."""
    ident = identity_perm(len(cx.rays))
    return [
        sigma
        for sigma in itertools.permutations(range(1, cx.n + 1))
        if marking_ray_permutation(cx, sigma) == ident
    ]


def sn_image_group(cx: ConeComplex) -> PermutationGroup:
    """Image of the marking-permutation action, generated by the images of
    a transposition and an n-cycle."""
    n = cx.n
    transposition = (2, 1) + tuple(range(3, n + 1))
    cycle = tuple(range(2, n + 1)) + (1,)
    return PermutationGroup(
        len(cx.rays),
        (
            marking_ray_permutation(cx, transposition),
            marking_ray_permutation(cx, cycle),
        ),
    )


# ---------------------------------------------------------------------------
# reconstructing the inducing marking permutation


def _two_set_image(f: ComplexAutomorphism, pair: frozenset[int]) -> frozenset[int]:
    """Image leg pair of the 2-vertex stratum with leg set `pair` on one
    vertex: the size-2 side of the image ray."""
    n = f.cx.n
    image = f.split_image(Split.from_side(n, pair))
    for part in image.sides():
        if len(part) == 2:
            return frozenset(part)
    raise ReconstructionError(
        f"image of the 2-leg stratum {set(pair)} has no 2-leg vertex; "
        "leg counts are not preserved"
    )


def image_marking_side(f: ComplexAutomorphism, markings) -> frozenset[int]:
    """The leg set of the image vertex corresponding to the given side of
    a 2-vertex stratum.  For sides of size != n/2 this is the equal-size
    side of the image ray; the ambiguous n/2 case is resolved by where a
    2-element subset lands."""
    n = f.cx.n
    A = frozenset(markings)
    if not 2 <= len(A) <= n - 2:
        raise ValueError("side must have between 2 and n-2 markings")
    image = f.split_image(Split.from_side(n, A))
    parts = [frozenset(p) for p in image.sides()]
    if 2 * len(A) != n:
        for part in parts:
            if len(part) == len(A):
                return part
        raise ReconstructionError(
            f"image of the stratum with side {sorted(A)} preserves no leg count"
        )
    probe = _two_set_image(f, frozenset(sorted(A)[:2]))
    for part in parts:
        if probe <= part:
            return part
    raise ReconstructionError(
        f"image pair {sorted(probe)} straddles the image bipartition of {sorted(A)}"
    )


def reconstruct_sigma(f: ComplexAutomorphism) -> tuple[int, ...]:
    """Recover the marking permutation inducing an automorphism (n >= 5).

    Constructive: the images of the 2-leg strata on {1,2}, {1,3} overlap
    in a single marking i1, which determines i2 and i3; each further
    {1,j} must contain i1 and yields ij.  The candidate sigma(j) = ij is
    then verified against the image of every 2-leg stratum and, in one
    comparison of ray permutations, against every ray.  Any failed step
    raises :class:`ReconstructionError`, as it would falsify the
    description of the automorphism group.  Last, ``f.cell_map`` checks
    that every cell maps to a cell of its dimension, raising
    ``ValueError`` naming the first cell that does not.  The cell map is
    a function of the ray permutation alone, so once the rays agree with
    sigma's action the cells agree too; one cell check suffices.
    """
    cx = f.cx
    n = cx.n
    if n < 5:
        raise ValueError(
            "reconstruction needs n >= 5; at n = 4 compare against the "
            "marking action directly"
        )
    two_sets = {
        frozenset(p): _two_set_image(f, frozenset(p))
        for p in itertools.combinations(range(1, n + 1), 2)
    }
    common = two_sets[frozenset((1, 2))] & two_sets[frozenset((1, 3))]
    if len(common) != 1:
        raise ReconstructionError(
            "images of the 2-leg strata on {1,2} and {1,3} do not overlap "
            f"in exactly one marking: {sorted(two_sets[frozenset((1, 2))])} vs "
            f"{sorted(two_sets[frozenset((1, 3))])}"
        )
    images = {1: next(iter(common))}
    images[2] = next(iter(two_sets[frozenset((1, 2))] - common))
    images[3] = next(iter(two_sets[frozenset((1, 3))] - common))
    for j in range(4, n + 1):
        t = two_sets[frozenset((1, j))]
        if images[1] not in t:
            raise ReconstructionError(
                f"image of the 2-leg stratum on {{1,{j}}} misses the image of 1"
            )
        images[j] = next(iter(t - {images[1]}))

    sigma = tuple(images[j] for j in range(1, n + 1))
    if sorted(sigma) != list(range(1, n + 1)):
        raise ReconstructionError(f"recovered images are not a permutation: {sigma}")
    for pair, t in two_sets.items():
        j, k = sorted(pair)
        if {images[j], images[k]} != set(t):
            raise ReconstructionError(
                f"2-leg stratum on {{{j},{k}}} maps to {sorted(t)}, "
                f"not to {{{images[j]},{images[k]}}}"
            )
    if marking_ray_permutation(cx, sigma) != f.ray_perm:
        raise ReconstructionError(
            "recovered permutation acts differently on some ray"
        )
    f.cell_map  # every cell maps to a cell; raises naming the first that does not
    return sigma


# ---------------------------------------------------------------------------
# cellwise witnesses


@dataclass(frozen=True)
class CellwiseWitness:
    """A marking permutation realizing an automorphism's action on one
    cell, together with the vertex bijection of the representative
    trees."""

    cell: int
    image_cell: int
    sigma: tuple[int, ...]
    vertex_map: tuple[int, ...]


def _vertex_map_from_edge_map(
    t1: LeggedTree, t2: LeggedTree, edge_images: dict[int, int]
) -> tuple[int, ...] | None:
    """The vertex bijection compatible with a given edge bijection between
    two trees, or None.  Unique for trees with >= 3 vertices; for the
    symmetric 2-vertex case the map keeping marking 1's vertex on marking
    1's side is preferred."""
    V = t1.num_vertices
    if V == 1:
        return (0,)
    if V == 2:
        candidates = [(0, 1), (1, 0)]
        legal = [
            c
            for c in candidates
            if all(t1.leg_count(v) == t2.leg_count(c[v]) for v in (0, 1))
        ]
        if not legal:
            return None
        if len(legal) == 1:
            return legal[0]
        holder1 = t1.legs[0]
        holder2 = t2.legs[0]
        for c in legal:
            if c[holder1] == holder2:
                return c
        return legal[0]
    mapping = [-1] * V
    for v in range(V):
        incident = [edge_images[idx] for _, idx in t1.adjacency[v]]
        if len(incident) >= 2:
            common = set(t2.edges[incident[0]])
            for e2 in incident[1:]:
                common &= set(t2.edges[e2])
            if len(common) != 1:
                return None
            mapping[v] = common.pop()
    for v in range(V):
        if mapping[v] != -1:
            continue
        (nbr, idx), = t1.adjacency[v]
        a, b = t2.edges[edge_images[idx]]
        other = mapping[nbr]
        if other not in (a, b):
            return None
        mapping[v] = b if other == a else a
    if sorted(mapping) != list(range(V)):
        return None
    edges2 = set(t2.edges)
    for u, v in t1.edges:
        a, b = mapping[u], mapping[v]
        if (min(a, b), max(a, b)) not in edges2:
            return None
    return tuple(mapping)


def check_cellwise_permutation(f: ComplexAutomorphism, cell_idx: int) -> CellwiseWitness:
    """Find a marking permutation realizing the automorphism's action on
    one cell: it maps the cell's tree to the image cell's tree and agrees
    with the automorphism's edge bijection.  Existence must hold for every
    cell of a genuine automorphism; failure raises :class:`CellwiseError`
    naming the cell."""
    cx = f.cx
    image_idx = f.cell_map[cell_idx]
    t1 = cx.cells[cell_idx].to_tree()
    t2 = cx.cells[image_idx].to_tree()
    idx2 = t2.split_index()
    edge_images = {
        e: idx2[f.split_image(s)] for e, s in enumerate(t1.splits)
    }

    vmap = _vertex_map_from_edge_map(t1, t2, edge_images)
    if vmap is None:
        raise CellwiseError(cell_idx, "no vertex bijection is compatible with the edge action")
    sigma = [0] * cx.n
    for v in range(t1.num_vertices):
        src = sorted(t1.leg_sets[v])
        dst = sorted(t2.leg_sets[vmap[v]])
        if len(src) != len(dst):
            raise CellwiseError(
                cell_idx, f"vertex {v} has {len(src)} legs but its image has {len(dst)}"
            )
        for a, b in zip(src, dst):
            sigma[a - 1] = b
    sigma = tuple(sigma)
    check_marking_perm(cx.n, sigma)
    for e, s in enumerate(t1.splits):
        if s.permuted(sigma) != f.split_image(s):
            raise CellwiseError(
                cell_idx, f"no leg matching reproduces the edge action on edge {e}"
            )
    return CellwiseWitness(cell_idx, image_idx, sigma, vmap)


# ---------------------------------------------------------------------------
# verification reports


def verify_sn_surjectivity(
    cx: ConeComplex,
    group: PermutationGroup | None = None,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Check that every computed automorphism comes from a marking
    permutation: reconstruct sigma for all generators and for a seeded
    sample of group elements.  :func:`reconstruct_sigma` already requires
    the exact round trip (sigma's ray permutation equals the element's,
    then one every-cell check), so an element counts as ok exactly when
    reconstruction returns."""
    if group is None:
        group = aut_via_compat_graph(cx)
    checked = ok = 0
    failures = []
    for kind, perm in itertools.chain(
        (("generator", g) for g in group.generators),
        (("sample", p) for p in group.random_elements(samples, seed)),
    ):
        checked += 1
        try:
            reconstruct_sigma(ComplexAutomorphism(cx, perm))
            ok += 1
        except (ReconstructionError, ValueError):
            failures.append((kind, perm))
    return {
        "n": cx.n,
        "generators": len(group.generators),
        "samples": samples,
        "checked": checked,
        "ok": ok,
        "failures": [f"{kind}:{format_cycles(perm)}" for kind, perm in failures],
        "verdict": "PASS" if not failures else "FAIL",
    }


def verify_main_theorem(n: int, seed: int = DEFAULT_SEED, samples: int = 0) -> dict:
    """Compare the computed automorphism group against the expected
    answer: order n! for n >= 5 and order 6 at n = 4, with graph/poset
    method agreement where the poset search runs, marking-permutation
    reconstruction of every generator for n >= 5 (each one ray
    comparison plus one every-cell check, see :func:`reconstruct_sigma`),
    and the direct image-group comparison plus Klein-kernel check at
    n = 4.  Out-of-range n is rejected before the complex is built."""
    if not VERIFY_MIN_N <= n <= VERIFY_MAX_N:
        raise ValueError(f"theorem verification covers {VERIFY_MIN_N} <= n <= {VERIFY_MAX_N}")
    return main_theorem_report(build_complex(n), seed, samples)


def main_theorem_report(cx: ConeComplex, seed: int, samples: int) -> dict:
    """The :func:`verify_main_theorem` report for an already built
    complex, so that a caller holding the complex does not build it
    again."""
    n = cx.n
    group = aut_via_compat_graph(cx)
    order = group.order()
    expected = 6 if n == 4 else math.factorial(n)
    report: dict = {
        "n": n,
        "order": order,
        "expected": expected,
        "rays": [list(s.side()) for s in cx.rays],
        "generators": [format_cycles(g) for g in group.generators],
    }
    checks = [order == expected]

    if n <= POSET_MAX_N:
        poset_group = aut_via_poset(cx)
        agree = group.equals(poset_group)
        report["methods_agree"] = agree
        report["poset_order"] = poset_group.order()
        checks.append(agree)

    if n >= 5:
        sigmas = []
        recon_ok = True
        for g in group.generators:
            try:
                sigma = reconstruct_sigma(ComplexAutomorphism(cx, g))
                sigmas.append(list(sigma))
            except ReconstructionError:
                sigmas.append(None)
                recon_ok = False
        report["sigma_of_generator"] = sigmas
        report["reconstruction_ok"] = recon_ok
        checks.append(recon_ok)
        if samples:
            surj = verify_sn_surjectivity(cx, group, samples=samples, seed=seed)
            report["surjectivity"] = surj
            checks.append(surj["verdict"] == "PASS")
    else:
        image = sn_image_group(cx)
        same = group.equals(image)
        kernel = sorted(sn_kernel(cx))
        klein = sorted(
            [
                (1, 2, 3, 4),
                (2, 1, 4, 3),
                (3, 4, 1, 2),
                (4, 3, 2, 1),
            ]
        )
        report["marking_image_matches"] = same
        report["kernel"] = [list(k) for k in kernel]
        report["kernel_is_klein"] = kernel == klein
        checks.extend([same, kernel == klein])

    report["verdict"] = "PASS" if all(checks) else "FAIL"
    return report
