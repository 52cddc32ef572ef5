"""Automorphisms of the genus-0 tropical moduli cone complex.

An automorphism permutes cells preserving dimension and restricts to a
bijection of edges on every cell, so it is determined by its action on
the rays.  This module computes the full group by two independent
Sims-style searches (one-sided color refinement along one first path on
the ray-compatibility graph, and a forward-checking search on the cells
and 2-cells), each returning a :class:`PermutationGroup`; it realizes
the action of marking permutations, reconstructs the inducing marking
permutation from an abstract automorphism, and packages the comparison
against the expected symmetric-group answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .cones import ConeComplex
from .groups import PermutationGroup, format_cycles, identity_perm, sims_group
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
    """The marking permutation recovered from an automorphism does not
    induce it; this would falsify the symmetric-group description of the
    group."""


# ---------------------------------------------------------------------------
# graph automorphisms: color refinement + individualization along one path


def _refine(adj, cells, new):
    """Refine an ordered partition to its fixpoint.  The partition is a
    list of cells, each an ascending list of vertices, and a cell's
    position is its color.  Each round groups every cell's members by
    their vectors of neighbor counts, one count per cell the last round
    created, taken as popcounts on the adjacency bitmasks ``adj``; the
    first round counts the cells at the positions ``new`` lists.  A split
    cell's parts take its place, each part ordered by its sorted nonzero
    (cell, count) pairs, which a count vector determines, so every
    partition is the one grouping by pair list gives; a round that
    creates no cell is the fixpoint.  No cell given is changed:
    partitions share unsplit cells.

    This gives the full signatures' order.  Two members of a cell agree
    on their count over each cell of the round before, so the first
    difference of their sorted pair lists falls on a child of a split
    cell.  A member with count 0 there has a nonzero count on a later
    sibling, so comparing the lists restricted to the new cells orders
    the members as comparing the full lists does.  The first round after
    individualizing v in a refined partition may count only v's old cell
    and its singleton: they are the only children of a split cell."""
    counted = [(c, cells[c]) for c in new]
    while counted:
        colors = [c for c, _ in counted]
        masks = [sum(1 << u for u in cell) for _, cell in counted]
        out, counted = [], []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for u in cell:
                a = adj[u]
                groups.setdefault(tuple([(a & m).bit_count() for m in masks]), []).append(u)
            if len(groups) == 1:
                out.append(cell)
                continue
            order = sorted(groups, key=lambda counts: [p for p in zip(colors, counts) if p[1]])
            parts = [groups[key] for key in order]
            counted += [(len(out) + i, part) for i, part in enumerate(parts)]
            out += parts
        cells = out
    return cells


def _refine_at(adj, cells, c, v):
    """Individualize v, a member of cell c of a refined partition: cell c
    keeps its other members and [v] becomes the fresh last cell.  Then
    refine, counting only those two cells first."""
    rest = [u for u in cells[c] if u != v]
    return _refine(adj, [*cells[:c], rest, *cells[c + 1:], [v]], (c, len(cells)))


def _map_from_discrete(nbrs, ca, cb):
    """Vertex map pairing the cells at equal positions of two discrete
    partitions, verified to preserve adjacency on the ascending neighbor
    lists ``nbrs``; None when cb is not discrete or adjacency breaks."""
    if len(cb) < len(nbrs):
        return None
    perm = [0] * len(nbrs)
    for (a,), (b,) in zip(ca, cb):
        perm[a] = b
    for nb, w in zip(nbrs, perm):
        if sorted(map(perm.__getitem__, nb)) != nbrs[w]:
            return None
    return tuple(perm)


def _coset_rep(nbrs, adj, path, k, w):
    """An automorphism preserving the first path's level-k partition that
    sends the vertex v individualized there to w, or None.  From w's
    refined partition the search follows the path, individualizing each
    member of the cell at the position the path individualized in, in
    ascending order (none when the candidate has fewer cells), and
    backtracks until a leaf map preserves adjacency, maps each level-k
    cell onto itself and sends v to w."""
    cells, c, v = path[k]

    def find(j, candidate):
        path_cells, cu, _ = path[j]
        if cu is None:
            phi = _map_from_discrete(nbrs, path_cells, candidate)
            if phi is None or phi[v] != w:
                return None
            return phi if all(sorted(map(phi.__getitem__, cell)) == cell for cell in cells) else None
        for x in candidate[cu] if cu < len(candidate) else ():
            if (phi := find(j + 1, _refine_at(adj, candidate, cu, x))) is not None:
                return phi
        return None

    return find(k + 1, _refine_at(adj, cells, c, w))


def graph_automorphism_group(neighbors: list[list[int]]) -> PermutationGroup:
    """Full automorphism group of a simple graph given by adjacency lists.

    Self-contained: the first path refines the one-cell partition and
    individualizes the first member of the first non-singleton cell until
    the partition is discrete.  Walking back up it, each candidate image
    follows the path with backtracking, and a leaf map is kept only as an
    automorphism of the level's partition that sends the level's vertex
    to the candidate; no canonical-labeling dependency.  The adjacency
    bitmasks that refinement counts on, and the ascending neighbor lists
    the leaf check compares, are built once here.
    """
    neighbors = [sorted(nb) for nb in neighbors]
    adj = [sum(1 << u for u in nb) for nb in neighbors]
    path = []
    cells = _refine(adj, [list(range(len(neighbors)))], (0,))
    while (c := next((c for c, cell in enumerate(cells) if len(cell) > 1), None)) is not None:
        path.append((cells, c, cells[c][0]))
        cells = _refine_at(adj, cells, c, cells[c][0])
    path.append((cells, None, None))
    levels = (
        (v, cells[c], partial(_coset_rep, neighbors, adj, path, k))
        for k, (cells, c, v) in reversed(list(enumerate(path[:-1])))
    )
    return sims_group(len(neighbors), levels)


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
        ``ValueError`` naming the first cell that does not
        (:meth:`~tropmoduli.cones.ConeComplex.unmapped_cell`)."""
        if (i := self.cx.unmapped_cell(self.ray_perm)) is not None:
            name = self.cx.cell_name(i)
            raise ValueError(f"ray permutation does not map cell {i} ({name}) to a cell")

    # No code here reads cell_map: perfbench's traced replay forces it.
    cell_map = property(check_cells)


def aut_via_compat_graph(cx: ConeComplex) -> PermutationGroup:
    """The automorphism group of the ray-compatibility graph, each of its
    generators checked once to map cells to cells
    (:meth:`ComplexAutomorphism.check_cells`).  A generator that does not
    extend to the cells raises ``AssertionError`` naming it and the cell;
    a search order that its generators disagree with raises one naming
    n."""
    try:
        group = graph_automorphism_group(cx.compat_neighbors())
    except AssertionError as exc:
        raise AssertionError(f"graph search at n={cx.n}: {exc}") from exc
    for g in group.generators:
        try:
            ComplexAutomorphism(cx, g).check_cells()
        except ValueError as exc:
            raise AssertionError(f"generator {format_cycles(g)}: {exc}") from exc
    return group


def aut_via_poset(cx: ConeComplex) -> PermutationGroup:
    """Independent recomputation of the automorphism group from the cells
    and 2-cells, by backtracking with forward checking.  Each unassigned
    ray keeps a bitmask domain: first the rays with its cells-per-dimension
    signature; once ray k goes to w, each later ray j keeps the rays other
    than w related to w as j is to k (a 2-cell or none).  An empty domain
    drops the branch, and each completion must map every cell to a cell
    (:meth:`~tropmoduli.cones.ConeComplex.unmapped_cell`).  Rays are
    assigned and images tried in ascending order; one completion is found
    per orbit of the stabilizer of the rays already fixed.  Reads no part
    of the compatibility graph.  A search order that its generators
    disagree with raises ``AssertionError`` naming n."""
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
        return tuple(perm) if cx.unmapped_cell(perm) is None else None

    # prefix[k]: the domains of rays k.. with rays 0..k-1 fixed pointwise,
    # where only one image of ray k per orbit needs a completion
    prefix = [[sum(1 << s for s in range(R) if counts[s] == row) for row in counts]]
    for k in range(R - 1):
        prefix.append(narrow(k, k, prefix[k][1:]))
    levels = [(k, members(d[0]), partial(complete, k, d[1:])) for k, d in enumerate(prefix[:R])]
    try:
        return sims_group(R, reversed(levels))
    except AssertionError as exc:
        raise AssertionError(f"poset search at n={cx.n}: {exc}") from exc


# ---------------------------------------------------------------------------
# the marking-permutation action


def marking_ray_permutation(cx: ConeComplex, sigma) -> tuple[int, ...]:
    """The ray permutation a marking permutation induces, on ray masks:
    each marking-1-free side is mapped marking by marking through sigma,
    complemented when its image holds marking 1, and looked up.  Only
    the images looked up are complemented, not the whole table."""
    sigma = check_marking_perm(cx.n, sigma)
    full = (1 << cx.n) - 1
    # images[m >> 1]: the image of the side with mask m, built one marking
    # at a time (mask bit i - 1 is marking i)
    images = [0]
    for target in sigma[1:]:
        bit = 1 << (target - 1)
        images += [m | bit for m in images]
    by_mask = cx.ray_by_mask
    return tuple(by_mask[m ^ full if (m := images[s.mask >> 1]) & 1 else m] for s in cx.rays)


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


def reconstruct_sigma(f: ComplexAutomorphism) -> tuple[int, ...]:
    """Recover the marking permutation inducing an automorphism (n >= 5).

    The candidate sigma is read off the images of the n - 1 two-leg
    strata on {1,j}, each image ray's mask or, when that does not have
    two bits, its complement: sigma(1) is the marking the sides of {1,2}
    and {1,3} share, sigma(j) the other marking of the side of {1,j}.
    It is accepted only when it is a permutation of the markings whose
    ray permutation equals the automorphism's, and nothing else is
    checked.  If tau induces the automorphism, each {1,j} side is
    {tau(1), tau(j)} (for n >= 5 a ray's two-marking side is unique), so
    the candidate is tau; and an accepted candidate induces it.  A
    rejection raises :class:`ReconstructionError`, naming the first ray
    on which sigma and the automorphism differ when sigma is a
    permutation, as it would falsify the description of the
    automorphism group.  It reads the rays only.
    """
    cx = f.cx
    n = cx.n
    if n < 5:
        raise ValueError(
            "reconstruction needs n >= 5; at n = 4 compare against the "
            "marking action directly"
        )
    full = (1 << n) - 1
    two = []  # two[j - 2]: mask of the image side of the stratum on {1,j}
    for j in range(2, n + 1):
        # the ray of {1,j} stores the other side, full ^ {1,j}
        image = cx.rays[f.ray_perm[cx.ray_by_mask[full ^ 1 ^ 1 << (j - 1)]]].mask
        two.append(image if image.bit_count() == 2 else image ^ full)
    common = two[0] & two[1]
    sigma = (common.bit_length(), *[(t ^ common).bit_length() for t in two])
    try:  # marking_ray_permutation rejects a sigma that is no permutation
        action = marking_ray_permutation(cx, sigma)
    except ValueError:
        raise ReconstructionError(
            f"recovered map {sigma} is not a permutation of the markings"
        ) from None
    if action != f.ray_perm:
        r = next(r for r, (want, got) in enumerate(zip(action, f.ray_perm)) if want != got)
        raise ReconstructionError(
            f"recovered permutation {sigma} sends ray {cx.ray_name(r)} to "
            f"{cx.ray_name(action[r])}, the automorphism to {cx.ray_name(f.ray_perm[r])}"
        )
    return sigma


# ---------------------------------------------------------------------------
# verification reports


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
    Klein-kernel check at n = 4.  ``poset=False`` leaves out the poset
    search and its agreement check.

    For n >= 5 with ``samples`` > 0, a seeded sample of that many group
    elements checks that every computed automorphism comes from a marking
    permutation (``surjectivity``).  Each distinct element is judged
    once: a generator by its own reconstruction, any other element by
    :func:`reconstruct_sigma` and then, only if that gives a sigma,
    :meth:`~tropmoduli.cones.ConeComplex.unmapped_cell`.  As
    :func:`reconstruct_sigma` requires the exact round trip (sigma's ray
    permutation equals the element's), an element counts as ok exactly
    when both pass.  Failures are still listed, and ``checked`` and
    ``ok`` still counted, per draw, after the generators.

    Only a FAIL report lists its ``failures``: the false checks by name,
    in the order made, then the ``generator:…`` and ``sample:…``
    elements they failed on.  A complex below n = 4 raises
    ``ValueError`` before any search."""
    n = cx.n
    expected = expected_order(n)
    group = aut_via_compat_graph(cx)
    order = group.order()
    report: dict = {
        "n": n,
        "order": order,
        "expected": expected,
        "rays": [list(s.side()) for s in cx.rays],
        "generators": [format_cycles(g) for g in group.generators],
    }
    checks = {"order": order == expected}

    if poset:
        poset_group = aut_via_poset(cx)
        checks["methods_agree"] = report["methods_agree"] = group.equals(poset_group)
        report["poset_order"] = poset_group.order()

    if n >= 5:

        def sigma(p):
            try:
                return reconstruct_sigma(ComplexAutomorphism(cx, p))
            except ReconstructionError:
                return None

        sigmas = [sigma(g) for g in group.generators]
        report["sigma_of_generator"] = [None if s is None else list(s) for s in sigmas]
        checks["reconstruction_ok"] = report["reconstruction_ok"] = None not in sigmas
        failed = {g: s is None for g, s in zip(group.generators, sigmas)}
        elements = [f"generator:{format_cycles(g)}" for g, bad in failed.items() if bad]
        if samples:
            sample = group.random_elements(samples, seed)
            for p in sample:
                if p not in failed:
                    failed[p] = sigma(p) is None or cx.unmapped_cell(p) is not None
            elements += [f"sample:{format_cycles(p)}" for p in sample if failed[p]]
            checked = len(sigmas) + len(sample)
            checks["surjectivity"] = not elements
            report["surjectivity"] = {
                "checked": checked,
                "ok": checked - len(elements),
                "failures": elements,
                "verdict": "PASS" if not elements else "FAIL",
            }
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
        checks["marking_image_matches"] = report["marking_image_matches"] = same
        report["kernel"] = [list(k) for k in kernel]
        checks["kernel_is_klein"] = report["kernel_is_klein"] = kernel == klein
        elements = []

    failures = [name for name, ok in checks.items() if not ok] + elements
    report["verdict"] = "FAIL" if failures else "PASS"
    if failures:
        report["failures"] = failures
    return report
