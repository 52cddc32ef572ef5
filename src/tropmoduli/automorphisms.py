"""Automorphisms of the genus-0 tropical moduli cone complex.

An automorphism permutes cells preserving dimension and restricts to a
bijection of edges on every cell, so it is determined by its action on
the rays.  This module computes the full group by two independent
Sims-style searches (one-sided color refinement along one first path on
the ray-compatibility graph, and a slower cell-system search on the face
poset), realizes the action of marking permutations, reconstructs the inducing marking
permutation from an abstract automorphism, and packages the comparison
against the expected symmetric-group answer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial

from .cones import ConeComplex, build_complex
from .groups import PermutationGroup, _StabilizerChain, format_cycles, identity_perm, point_orbit
from .trees import Split, check_marking_perm

__all__ = [
    "ComplexAutomorphism",
    "ReconstructionError",
    "graph_automorphism_group",
    "aut_via_compat_graph",
    "aut_via_poset",
    "marking_ray_permutation",
    "sn_action",
    "sn_kernel",
    "sn_image_group",
    "reconstruct_sigma",
    "verify_sn_surjectivity",
    "expected_order",
    "verify_main_theorem",
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


def _refine(nbrs, colors):
    """Refine one coloring to its fixpoint: a vertex's new color is the
    rank of its (color, neighbor-color counts) signature.  The trace holds
    one hash of the sorted signatures per round (PYTHONHASHSEED does not
    touch hashes of int tuples); isomorphic colorings have equal traces."""
    trace = []
    while True:
        sigs = [
            (colors[v], tuple(sorted(Counter(colors[u] for u in nb).items())))
            for v, nb in enumerate(nbrs)
        ]
        trace.append(hash(tuple(sorted(sigs))))
        ids = {key: i for i, key in enumerate(sorted(set(sigs)))}
        refined = tuple(ids[k] for k in sigs)
        if refined == colors:
            return refined, tuple(trace)
        colors = refined


def _individualize(colors, v):
    fresh = max(colors) + 1
    return tuple(fresh if i == v else c for i, c in enumerate(colors))


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


def _find_iso(nbrs, path, k, candidate):
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
        found = _find_iso(nbrs, path, k + 1, _refine(nbrs, _individualize(colors, w)))
        if found is not None:
            return found
    return None


def _coset_rep(nbrs, path, k, w):
    """An automorphism preserving the first path's level-k coloring that
    sends the vertex individualized there to w, or None."""
    colors, _, v = path[k]
    source, target = _individualize(colors, v), _individualize(colors, w)
    phi = _find_iso(nbrs, path, k + 1, _refine(nbrs, target))
    if phi is not None and all(target[y] == c for y, c in zip(phi, source)):
        return phi
    return None


def graph_automorphism_group(neighbors: list[list[int]]) -> PermutationGroup:
    """Full automorphism group of a simple graph given by adjacency lists.

    Self-contained: the first path refines the uniform coloring and
    individualizes the first member of the first non-singleton class until
    the coloring is discrete.  Walking back up it, each coloring is refined
    once, refinement traces prune, and leaf maps are checked as
    automorphisms of the level's coloring; no canonical-labeling dependency.
    """
    path = []
    colors, trace = _refine(neighbors, (0,) * len(neighbors))
    while (c := _first_nonsingleton(colors)) is not None:
        v = colors.index(c)
        path.append((colors, trace, v))
        colors, trace = _refine(neighbors, _individualize(colors, v))
    path.append((colors, trace, None))
    levels = (
        (v, _members(colors, colors[v]), partial(_coset_rep, neighbors, path, k))
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
        image = self.ray_perm.__getitem__
        out = tuple(map(cx.index.get, (tuple(sorted(map(image, cell))) for cell in cx.cell_rays)))
        dims = cx.dims
        if None in out or tuple(map(dims.__getitem__, out)) != dims:
            i = next(i for i, j in enumerate(out) if j is None or dims[j] != dims[i])
            name = cx.cell_name(i)
            raise ValueError(f"ray permutation does not map cell {i} ({name}) to a cell")
        if len(set(out)) < len(out):
            raise ValueError("cell images do not form a permutation")
        return out

    def split_image(self, s: Split) -> Split:
        return self.cx.rays[self.ray_perm[self.cx.ray_index[s]]]

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
    return _checked_generators(cx)[0]


def _checked_generators(
    cx: ConeComplex,
) -> tuple[PermutationGroup, list[ComplexAutomorphism]]:
    """:func:`aut_via_compat_graph`'s group together with its generators
    as complex automorphisms whose cell maps are already checked, so that
    reconstruction does not check them again.  A generator that does not
    extend to the cells raises ``AssertionError`` naming it and the cell."""
    group = graph_automorphism_group(cx.compat_neighbors())
    autos = [ComplexAutomorphism(cx, g) for g in group.generators]
    for f in autos:
        try:
            f.cell_map
        except ValueError as exc:
            raise AssertionError(f"generator {format_cycles(f.ray_perm)}: {exc}") from exc
    return group, autos


def aut_via_poset(cx: ConeComplex) -> PermutationGroup:
    """Independent recomputation of the automorphism group from the face
    poset alone: backtracking over dimension-preserving assignments of
    ray images, pruned by per-ray cell-membership signatures and by
    2-cell preservation, with every candidate verified to map the whole
    cell system to itself.  Only one verified completion per orbit of
    the stabilizer of the rays already fixed is searched for.  Slower
    than the graph route, and run at every n the complex is built for."""
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

    # With rays 0..k-1 fixed, only one image of ray k per orbit needs a
    # completion.
    def levels():
        for k in reversed(range(R)):
            assignment[:k] = range(k)
            used[:] = [r < k for r in range(R)]
            yield k, candidates(k), partial(complete, k)

    return _sims_group(R, levels())


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
    description of the automorphism group.  Last, ``f.cell_map`` checks
    that every cell maps to a cell of its dimension, raising
    ``ValueError`` naming the first cell that does not.  The cell map is
    a function of the ray permutation alone, so once the rays agree with
    sigma's action the cells agree too; one cell check suffices, and it
    is cached on ``f``, so an automorphism whose cells were already
    checked is not checked again.
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

    sigma = tuple(images)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ReconstructionError(f"recovered images are not a permutation: {sigma}")
    action = marking_ray_permutation(cx, sigma)
    for r, (want, got) in enumerate(zip(action, f.ray_perm)):
        if want != got:
            raise ReconstructionError(
                f"recovered permutation {sigma} sends ray {cx.ray_name(r)} to "
                f"{cx.ray_name(want)}, the automorphism to {cx.ray_name(got)}"
            )
    f.cell_map  # every cell maps to a cell; raises naming the first that does not
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
        group, autos = _checked_generators(cx)
    else:
        autos = [ComplexAutomorphism(cx, g) for g in group.generators]
    sigmas = [_reconstructed(f) for f in autos]
    return _surjectivity_report(cx, group, sigmas, samples, seed)


def _surjectivity_report(cx, group, generator_sigmas, samples, seed) -> dict:
    """The :func:`verify_sn_surjectivity` report, given the generators'
    reconstructions (None where one failed)."""
    sample = group.random_elements(samples, seed)
    failures = [
        f"generator:{format_cycles(g)}"
        for g, sigma in zip(group.generators, generator_sigmas)
        if sigma is None
    ]
    failures += [
        f"sample:{format_cycles(p)}"
        for p in sample
        if _reconstructed(ComplexAutomorphism(cx, p)) is None
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
    """|Aut| by the theorem: trivial below n = 4, S_3 at n = 4 (the marking
    action has the Klein four-group as kernel), S_n from n = 5 on."""
    return 1 if n < 4 else 6 if n == 4 else math.factorial(n)


def verify_main_theorem(n: int, seed: int = DEFAULT_SEED, samples: int = 0) -> dict:
    """Compare the computed automorphism group against the expected
    answer: order n! for n >= 5 and order 6 at n = 4, with graph/poset
    method agreement, marking-permutation reconstruction of every
    generator for n >= 5 (each one ray comparison plus one every-cell
    check, see :func:`reconstruct_sigma`), and the direct image-group
    comparison plus Klein-kernel check at n = 4.  Out-of-range n is
    rejected before the complex is built."""
    if n < VERIFY_MIN_N:
        raise ValueError(f"theorem verification needs n >= {VERIFY_MIN_N}, got n={n}")
    return main_theorem_report(build_complex(n), seed, samples)


def main_theorem_report(cx: ConeComplex, seed: int, samples: int, poset: bool = True) -> dict:
    """The :func:`verify_main_theorem` report for an already built
    complex, so that a caller holding the complex does not build it
    again.  ``poset=False`` leaves out the poset search and its
    agreement check.  Each generator is reconstructed once, for both
    ``sigma_of_generator`` and the surjectivity check."""
    n = cx.n
    group, autos = _checked_generators(cx)
    order = group.order()
    expected = expected_order(n)
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
