"""Automorphisms of the genus-0 tropical moduli cone complex.

An automorphism permutes cells preserving dimension and restricts to a
bijection of edges on every cell, so it is determined by its action on
the rays.  This module computes the full group by two independent
Sims-style searches (one-sided color refinement along one first path on
the ray-compatibility graph, and a forward-checking search on the cells
and 2-cells), realizes the action of marking permutations, reconstructs
the inducing marking permutation from an abstract automorphism, and
packages the comparison against the expected symmetric-group answer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

from .cones import ConeComplex
from .groups import PermutationGroup, _StabilizerChain, format_cycles, identity_perm, point_orbit
from .trees import check_marking_perm

__all__ = [
    "ComplexAutomorphism",
    "ReconstructionError",
    "graph_automorphism_group",
    "aut_via_compat_graph",
    "aut_via_poset",
    "marking_ray_permutation",
    "sn_kernel",
    "sn_image_group",
    "reconstruct_sigma",
    "expected_order",
    "main_theorem_report",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729

# No code here reads POSET_MAX_N: perfbench's traced replay imports it,
# and it goes away with that replay.
POSET_MAX_N = 6
VERIFY_MIN_N = 4


class ReconstructionError(RuntimeError):
    """A step of the constructive marking-permutation recovery failed;
    this would falsify the symmetric-group description of the group."""


# ---------------------------------------------------------------------------
# graph automorphisms: color refinement + individualization along one path


def _refine(adj, colors, new=None):
    """Refine a coloring to its fixpoint.  Each round gives a vertex the
    rank of its (color, sorted (neighbor color, count) pairs) signature,
    but counts neighbors only in the cells the last round created, as
    popcounts on the adjacency bitmasks ``adj``; the first round counts
    the cells whose colors ``new`` lists, every cell by default.  A round
    that creates no cell is the fixpoint.

    This gives the full signatures' ranks.  Two members of a cell agree
    on their count over each cell of the round before, so the first
    difference of their sorted pair lists falls on a child of a split
    cell.  A member with count 0 there has a nonzero count on a later
    sibling, so comparing the lists restricted to the new cells orders
    the members as comparing the full lists does.  The first round after
    individualizing v in a refined coloring may count only v's old cell
    and its singleton: they are the only children of a split cell.

    The trace holds one hash per round of each cell's sorted restricted
    signatures with their multiplicities (PYTHONHASHSEED does not touch
    hashes of int tuples); isomorphic colorings have equal traces."""
    order = sorted(range(len(colors)), key=colors.__getitem__)
    cells = [list(g) for _, g in itertools.groupby(order, colors.__getitem__)]
    counted = list(enumerate(cells)) if new is None else [(c, _members(colors, c)) for c in new]
    trace = []
    while True:
        masks = [(c, sum(1 << u for u in cell)) for c, cell in counted]
        out, counted, sigs = [], [], []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for u in cell:
                a = adj[u]
                key = tuple([(c, k) for c, m in masks if (k := (a & m).bit_count())])
                groups.setdefault(key, []).append(u)
            keys = sorted(groups)
            sigs.append(tuple((key, len(groups[key])) for key in keys))
            if len(keys) > 1:
                counted += [(len(out) + i, groups[key]) for i, key in enumerate(keys)]
            out += map(groups.__getitem__, keys)
        trace.append(hash(tuple(sigs)))
        cells = out
        if not counted:
            break
    refined = {u: c for c, cell in enumerate(cells) for u in cell}
    return tuple(map(refined.__getitem__, range(len(colors)))), tuple(trace)


def _refine_at(adj, colors, v):
    """Individualize v in a refined coloring, giving it the fresh last
    color, and refine, counting only v's old cell and its singleton first."""
    fresh = max(colors) + 1
    individualized = tuple(fresh if i == v else c for i, c in enumerate(colors))
    return _refine(adj, individualized, (colors[v], fresh))


def _first_nonsingleton(colors):
    return min((c for c, k in Counter(colors).items() if k > 1), default=None)


def _members(colors, c):
    return [v for v, col in enumerate(colors) if col == c]


def _map_from_discrete(nbrs, ca, cb):
    """Vertex map matching equal colors of two discrete colorings, verified
    to preserve adjacency; None when cb is not discrete or adjacency breaks."""
    pos = {c: v for v, c in enumerate(cb)}
    if len(pos) < len(cb):
        return None
    perm = tuple(pos[c] for c in ca)
    for v in range(len(nbrs)):
        if {perm[u] for u in nbrs[v]} != set(nbrs[perm[v]]):
            return None
    return perm


def _find_iso(nbrs, adj, path, k, candidate):
    """One automorphism carrying the first path's level-k coloring to the
    refined (coloring, trace) candidate, or None.  The candidate is dropped
    when its trace differs from the path's, else it individualizes each
    member of the class the path individualized, in ascending order."""
    colors, trace = candidate
    path_colors, path_trace, v = path[k]
    if trace != path_trace:
        return None
    if v is None:
        return _map_from_discrete(nbrs, path_colors, colors)
    for w in _members(colors, path_colors[v]):
        found = _find_iso(nbrs, adj, path, k + 1, _refine_at(adj, colors, w))
        if found is not None:
            return found
    return None


def _coset_rep(nbrs, adj, path, k, w):
    """An automorphism preserving the first path's level-k coloring that
    sends the vertex individualized there to w, or None."""
    colors, _, v = path[k]
    phi = _find_iso(nbrs, adj, path, k + 1, _refine_at(adj, colors, w))
    if phi is not None and phi[v] == w and all(colors[y] == c for y, c in zip(phi, colors)):
        return phi
    return None


def graph_automorphism_group(neighbors: list[list[int]]) -> PermutationGroup:
    """Full automorphism group of a simple graph given by adjacency lists.

    Self-contained: the first path refines the uniform coloring and
    individualizes the first member of the first non-singleton class until
    the coloring is discrete.  Walking back up it, each coloring is refined
    once, refinement traces prune, and leaf maps are checked as
    automorphisms of the level's coloring; no canonical-labeling dependency.
    The adjacency bitmasks that refinement counts on are built once here.
    """
    adj = [sum(1 << u for u in nb) for nb in neighbors]
    path = []
    colors, trace = _refine(adj, (0,) * len(neighbors))
    while (c := _first_nonsingleton(colors)) is not None:
        v = colors.index(c)
        path.append((colors, trace, v))
        colors, trace = _refine_at(adj, colors, v)
    path.append((colors, trace, None))
    levels = (
        (v, _members(colors, colors[v]), partial(_coset_rep, neighbors, adj, path, k))
        for k, (colors, _, v) in reversed(list(enumerate(path[:-1])))
    )
    return _sims_group(len(neighbors), levels)


def _sims_group(degree, levels) -> PermutationGroup:
    """The group of a Sims-style search.  ``levels`` yields ``(point,
    images, find)`` from the last base point up; the generators found so
    far fix the earlier points, so ``find(w)`` (an automorphism or None)
    runs once per image outside the orbit, and |G| is the orbit sizes'
    product.  The points with a nontrivial orbit, top level first, seed
    the chain that cross-checks the order."""
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
    return _checked_group(degree, gens, order, base[::-1])


def _checked_group(degree, gens, order, base) -> PermutationGroup:
    """The group generated by a search's generators, cross-checked against
    the orbit-stabilizer order the search computed.  The Schreier-Sims
    chain only starts from ``base``: it is complete for any starting
    base, so the check does not rest on the search's orbits."""
    group = PermutationGroup(degree, tuple(gens))
    group._chain = _StabilizerChain(degree, group.generators, base)
    if group.order() != order:
        raise AssertionError(
            f"search order {order} disagrees with generated group order {group.order()}"
        )
    return group


# ---------------------------------------------------------------------------
# complex automorphisms as ray permutations


@dataclass(frozen=True, eq=False)
class ComplexAutomorphism:
    """An automorphism of the cone complex, stored as its permutation of
    the rays alone; the cell permutation and per-cell edge bijections
    follow (every cell is the set of its pairwise-compatible rays)."""

    cx: ConeComplex
    ray_perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ray_perm", tuple(self.ray_perm))
        if sorted(self.ray_perm) != list(range(len(self.cx.rays))):
            raise ValueError("not a permutation of the rays")

    def check_cells(self) -> None:
        """Check that every cell maps to a cell, keeping nothing; raise
        ``ValueError`` naming the first cell that does not.  Each image is
        a ray bitmask, its prefix face's image (built first: cells are in
        dimension order) with its last ray's image added, and must be a
        key of ``cx.index``.  Nothing else can fail.  An image has its
        cell's dimension: it has as many bits as the cell has rays, and
        ``cx.index`` maps it to the cell with exactly those rays.  The
        images are distinct cells: ``ray_perm`` is a permutation, and
        distinct cells have distinct ray sets (checked by
        :attr:`~tropmoduli.cones.ConeComplex.index`)."""
        cx = self.cx
        bits = [1 << r for r in self.ray_perm]
        images = [0]  # cell 0 is the point
        for faces, rays in zip(cx.codim1[1:], cx.cell_rays[1:]):
            images.append(images[faces[-1]] | bits[rays[-1]])
        index = cx.index
        if not all(map(index.__contains__, images)):
            i = next(i for i, mask in enumerate(images) if mask not in index)
            name = cx.cell_name(i)
            raise ValueError(f"ray permutation does not map cell {i} ({name}) to a cell")

    # No code here reads cell_map: perfbench's traced replay forces it.
    cell_map = property(check_cells)


def aut_via_compat_graph(
    cx: ConeComplex,
) -> tuple[PermutationGroup, list[ComplexAutomorphism]]:
    """The automorphism group of the ray-compatibility graph, together
    with its generators as complex automorphisms, each checked once to
    map cells to cells (:meth:`ComplexAutomorphism.check_cells`).  A
    generator that does not extend to the cells raises ``AssertionError``
    naming it and the cell; a search order that its generators disagree
    with raises one naming n."""
    try:
        group = graph_automorphism_group(cx.compat_neighbors())
    except AssertionError as exc:
        raise AssertionError(f"graph search at n={cx.n}: {exc}") from exc
    autos = [ComplexAutomorphism(cx, g) for g in group.generators]
    for f in autos:
        try:
            f.check_cells()
        except ValueError as exc:
            raise AssertionError(f"generator {format_cycles(f.ray_perm)}: {exc}") from exc
    return group, autos


def aut_via_poset(cx: ConeComplex) -> PermutationGroup:
    """Independent recomputation of the automorphism group from the cells
    and 2-cells, by backtracking with forward checking.  Each unassigned
    ray keeps a bitmask domain: first the rays with its cells-per-dimension
    signature; once ray k goes to w, each later ray j keeps the rays other
    than w related to w as j is to k (a 2-cell or none).  An empty domain
    drops the branch, and each completion must map every cell to a cell.
    Rays are assigned and images tried in ascending order; one completion
    is found per orbit of the stabilizer of the rays already fixed.  Reads
    no part of the compatibility graph; a completion's cell images are
    looked up in ``cx.index``, whose keys are the cells' ray masks.  A
    search order that its generators disagree with raises
    ``AssertionError`` naming n."""
    R = len(cx.rays)
    width = cx.max_dimension + 1
    counts = [[0] * width for _ in range(R)]
    rows = [0] * R  # rows[a]: the rays b with {a, b} a 2-cell
    for c in cx.cell_rays:
        for r in c:
            counts[r][len(c)] += 1
        if len(c) == 2:
            rows[c[0]] |= 1 << c[1]
            rows[c[1]] |= 1 << c[0]
    index = cx.index
    perm = list(range(R))

    def members(mask):
        return [v for v in range(R) if mask >> v & 1]

    def narrow(k, w, later):
        """The domains of rays k+1.. once ray k goes to w; None if one empties."""
        inside, outside = rows[w], ~(rows[w] | 1 << w)
        out = [d & (inside if rows[k] >> j & 1 else outside) for j, d in enumerate(later, k + 1)]
        return None if 0 in out else out

    def complete(k, later, w):
        """The first verified completion of perm[:k] sending ray k to w, or None."""
        perm[k] = w
        if (later := narrow(k, w, later)) is None:
            return None
        if later:
            found = (complete(k + 1, later[1:], v) for v in members(later[0]))
            return next(filter(None, found), None)
        bits = [1 << v for v in perm]  # distinct, so a sum is their OR
        ok = all(sum(map(bits.__getitem__, c)) in index for c in cx.cell_rays)
        return tuple(perm) if ok else None

    # prefix[k]: the domains of rays k.. with rays 0..k-1 fixed pointwise,
    # where only one image of ray k per orbit needs a completion
    prefix = [[sum(1 << s for s in range(R) if counts[s] == row) for row in counts]]
    for k in range(R - 1):
        prefix.append(narrow(k, k, prefix[k][1:]))
    levels = [(k, members(d[0]), partial(complete, k, d[1:])) for k, d in enumerate(prefix[:R])]
    try:
        return _sims_group(R, reversed(levels))
    except AssertionError as exc:
        raise AssertionError(f"poset search at n={cx.n}: {exc}") from exc


# ---------------------------------------------------------------------------
# the marking-permutation action


def marking_ray_permutation(cx: ConeComplex, sigma) -> tuple[int, ...]:
    """The ray permutation a marking permutation induces, on ray masks:
    each marking-1-free side is mapped marking by marking through sigma,
    complemented when its image holds marking 1, and looked up."""
    sigma = check_marking_perm(cx.n, sigma)
    full = (1 << cx.n) - 1
    # images[m >> 1]: the image of the side with mask m, built one marking
    # at a time (mask bit i - 1 is marking i)
    images = [0]
    for target in sigma[1:]:
        bit = 1 << (target - 1)
        images += [m | bit for m in images]
    images = [m ^ full if m & 1 else m for m in images]
    return tuple(cx.ray_by_mask[images[s.mask >> 1]] for s in cx.rays)


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
    vertex: the size-2 side of the image ray, read off its mask."""
    cx = f.cx
    full = (1 << cx.n) - 1
    mask = sum(1 << (i - 1) for i in pair)
    if mask & 1:
        mask ^= full
    image = cx.rays[f.ray_perm[cx.ray_by_mask[mask]]].mask
    for part in (image, image ^ full):
        if part.bit_count() == 2:
            return frozenset(i + 1 for i in range(cx.n) if part >> i & 1)
    raise ReconstructionError(
        f"image of the 2-leg stratum {set(pair)} has no 2-leg vertex; "
        "leg counts are not preserved"
    )


def reconstruct_sigma(f: ComplexAutomorphism) -> tuple[int, ...]:
    """Recover the marking permutation inducing an automorphism (n >= 5).

    Constructive, from the images of the n - 1 two-leg strata on
    {1,j}: those on {1,2} and {1,3} overlap in a single marking, which is
    sigma(1); each {1,j} must contain it and yields sigma(j) as its other
    marking.  The candidate sigma is then verified in one comparison of
    ray permutations against every ray; for n >= 5 a ray's two-marking
    side is unique, so this also covers every other two-leg stratum.  Any
    failed step raises :class:`ReconstructionError`, naming the first ray
    on which sigma and the automorphism differ, as it would falsify the
    description of the automorphism group.  It reads the rays only.
    """
    cx = f.cx
    n = cx.n
    if n < 5:
        raise ValueError(
            "reconstruction needs n >= 5; at n = 4 compare against the "
            "marking action directly"
        )
    two_sets = {j: _two_set_image(f, frozenset((1, j))) for j in range(2, n + 1)}
    common = two_sets[2] & two_sets[3]
    if len(common) != 1:
        raise ReconstructionError(
            "images of the 2-leg strata on {1,2} and {1,3} do not overlap "
            f"in exactly one marking: {sorted(two_sets[2])} vs {sorted(two_sets[3])}"
        )
    (image_of_1,) = common
    images = [image_of_1]
    for j, t in two_sets.items():
        if image_of_1 not in t:
            raise ReconstructionError(
                f"image of the 2-leg stratum on {{1,{j}}} misses the image of 1"
            )
        (image,) = t - {image_of_1}
        images.append(image)

    # sigma is a permutation: the rays on {1,j} are distinct, so are their
    # images, and distinct rays have distinct two-marking sides; each side
    # holds image_of_1, so their other markings are distinct too
    sigma = tuple(images)
    action = marking_ray_permutation(cx, sigma)
    for r, (want, got) in enumerate(zip(action, f.ray_perm)):
        if want != got:
            raise ReconstructionError(
                f"recovered permutation {sigma} sends ray {cx.ray_name(r)} to "
                f"{cx.ray_name(want)}, the automorphism to {cx.ray_name(got)}"
            )
    return sigma


# ---------------------------------------------------------------------------
# verification reports


def _reconstructed(f: ComplexAutomorphism) -> tuple[int, ...] | None:
    """The marking permutation inducing an automorphism, or None when
    :func:`reconstruct_sigma` rejects it."""
    try:
        return reconstruct_sigma(f)
    except (ReconstructionError, ValueError):
        return None


def _sample_failed(f: ComplexAutomorphism) -> bool:
    """Whether reconstruction or the cell check rejects a group element."""
    try:
        reconstruct_sigma(f)
        f.check_cells()
    except (ReconstructionError, ValueError):
        return True
    return False


def _surjectivity_report(cx, group, generator_sigmas, samples, seed) -> dict:
    """Check that every computed automorphism comes from a marking
    permutation, given the generators' reconstructions (None where one
    failed): a seeded sample of group elements is reconstructed and its
    cells checked too.  :func:`reconstruct_sigma` requires the exact
    round trip (sigma's ray permutation equals the element's), so a
    sample counts as ok exactly when both steps pass."""
    sample = group.random_elements(samples, seed)
    failures = [
        f"generator:{format_cycles(g)}"
        for g, sigma in zip(group.generators, generator_sigmas)
        if sigma is None
    ]
    failures += [
        f"sample:{format_cycles(p)}" for p in sample if _sample_failed(ComplexAutomorphism(cx, p))
    ]
    checked = len(generator_sigmas) + len(sample)
    return {
        "n": cx.n,
        "generators": len(group.generators),
        "samples": samples,
        "checked": checked,
        "ok": checked - len(failures),
        "failures": failures,
        "verdict": "PASS" if not failures else "FAIL",
    }


def expected_order(n: int) -> int:
    """|Aut| by the theorem: S_3 at n = 4 (the marking action has the
    Klein four-group as kernel), S_n from n = 5 on.  The theorem says
    nothing below n = 4, so smaller n raise ``ValueError``."""
    if n < VERIFY_MIN_N:
        raise ValueError(f"the theorem covers n >= {VERIFY_MIN_N}, got n={n}")
    return 6 if n == 4 else math.factorial(n)


def main_theorem_report(cx: ConeComplex, seed: int, samples: int, poset: bool = True) -> dict:
    """Compare the computed automorphism group of a built complex against
    the expected answer: order n! for n >= 5 and order 6 at n = 4, with
    graph/poset method agreement, marking-permutation reconstruction of
    every generator for n >= 5 (one ray comparison each; the graph search
    checked their cells), and the direct image-group comparison plus
    Klein-kernel check at n = 4.  ``samples`` seeded group elements are
    reconstructed and their cells checked too.  ``poset=False`` leaves
    out the poset search and its agreement check.  Each generator is
    reconstructed once, for both ``sigma_of_generator`` and the
    surjectivity check.  A complex below n = 4 raises ``ValueError``
    before any search."""
    n = cx.n
    expected = expected_order(n)
    group, autos = aut_via_compat_graph(cx)
    order = group.order()
    report: dict = {
        "n": n,
        "order": order,
        "expected": expected,
        "rays": [list(s.side()) for s in cx.rays],
        "generators": [format_cycles(g) for g in group.generators],
    }
    checks = [order == expected]

    if poset:
        poset_group = aut_via_poset(cx)
        agree = group.equals(poset_group)
        report["methods_agree"] = agree
        report["poset_order"] = poset_group.order()
        checks.append(agree)

    if n >= 5:
        sigmas = [_reconstructed(f) for f in autos]
        recon_ok = None not in sigmas
        report["sigma_of_generator"] = [None if s is None else list(s) for s in sigmas]
        report["reconstruction_ok"] = recon_ok
        checks.append(recon_ok)
        if samples:
            surj = _surjectivity_report(cx, group, sigmas, samples, seed)
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
