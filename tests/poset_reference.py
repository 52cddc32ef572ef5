"""The cell-system search ``automorphisms.aut_via_poset`` replaced, kept
as the reference the tests compare the forward-checking search against.

For every candidate image of a ray it rescans the 2-cell row of every
earlier ray, keeps ``used`` flags for the images taken, and verifies
each completion with one sorted tuple per cell.  It shares only
``groups.sims_group`` with the package.
"""

from __future__ import annotations

from functools import partial

from tropmoduli.cones import ConeComplex
from tropmoduli.groups import PermutationGroup, sims_group


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

    return sims_group(R, levels())
