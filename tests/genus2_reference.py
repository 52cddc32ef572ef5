"""The exhaustive genus-2 automorphism search the tests compare
``genus2.aut_m2`` against.

It builds every whole candidate (a dimension-preserving cell bijection
with an edge bijection per cell, 1,152 of them), checks all face arrows
of each, and groups the survivors by a pairwise per-cell equivalence
instead of a class key.  It shares only the fixture's arrow table and
edge groups with the package.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from tropmoduli.genus2 import M2Complex, M2Violation
from tropmoduli.groups import compose_perms

Candidate = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


class ReferenceSearch(NamedTuple):
    candidates: int
    valid: list[Candidate]
    classes: list[Candidate]


def candidate_cell_maps(cx: M2Complex) -> Iterator[tuple[int, ...]]:
    """Every cell bijection that preserves dimension."""
    by_dim: dict[int, list[int]] = {}
    for i, c in enumerate(cx.cells):
        by_dim.setdefault(c.dimension, []).append(i)
    pools = [itertools.permutations(by_dim[d]) for d in sorted(by_dim)]
    for choice in itertools.product(*pools):
        out = [0] * len(cx.cells)
        for d, perm in zip(sorted(by_dim), choice):
            for src, dst in zip(by_dim[d], perm):
                out[src] = dst
        yield tuple(out)


def whole_candidates(cx: M2Complex) -> Iterator[Candidate]:
    """Every cell bijection with every choice of edge bijections."""
    for cell_map in candidate_cell_maps(cx):
        pools = [
            itertools.permutations(range(cx.cells[cell_map[i]].dimension))
            for i in range(len(cx.cells))
        ]
        for edge_maps in itertools.product(*pools):
            yield cell_map, tuple(tuple(m) for m in edge_maps)


def check_candidate(
    cx: M2Complex, cell_map: tuple[int, ...], edge_maps: tuple[tuple[int, ...], ...]
) -> M2Violation | None:
    """The first face arrow of a whole candidate that fails, cells and
    edges in order, up to the face cells' edge groups."""
    for i, cell in enumerate(cx.cells):
        i2 = cell_map[i]
        for e in range(cell.dimension):
            j, lhs = cx.arrows[i][e]
            e2 = edge_maps[i][e]
            j2, rhs = cx.arrows[i2][e2]
            if cell_map[j] != j2:
                return M2Violation(
                    cell=cell.name,
                    edge=e,
                    face=cx.cells[j].name,
                    image_face=cx.cells[j2].name,
                )
            # edge_maps[j](h1(lhs(x))) = h2(rhs(edge_maps[i](x)))
            matched = any(
                all(
                    edge_maps[j][h1[lhs[x]]] == h2[rhs[edge_maps[i][x]]]
                    for x in lhs
                )
                for h1 in cx.cells[j].edge_group_elements
                for h2 in cx.cells[j2].edge_group_elements
            )
            if not matched:
                return M2Violation(
                    cell=cell.name,
                    edge=e,
                    face=cx.cells[j].name,
                    image_face=cx.cells[j2].name,
                )
    return None


def edge_maps_equivalent(
    cx: M2Complex, i: int, i2: int, phi1: tuple[int, ...], phi2: tuple[int, ...]
) -> bool:
    """Two edge bijections from cell i onto cell i2 give the same
    quotient map when they differ by pre- and post-composition with the
    two cells' edge groups."""
    return any(
        compose_perms(h, compose_perms(phi1, g)) == phi2
        for g in cx.cells[i].edge_group_elements
        for h in cx.cells[i2].edge_group_elements
    )


def equivalent(cx: M2Complex, cell_map, ems1, ems2) -> bool:
    """Candidates with the same cell map are the same quotient self-map
    when every cell's edge bijections are equivalent."""
    return all(
        edge_maps_equivalent(cx, i, cell_map[i], ems1[i], ems2[i])
        for i in range(len(cx.cells))
    )


def reference_search(cx: M2Complex) -> ReferenceSearch:
    """Check every whole candidate, then keep one representative per
    class of the survivors, compared pairwise."""
    candidates = 0
    valid: list[Candidate] = []
    for cell_map, edge_maps in whole_candidates(cx):
        candidates += 1
        if check_candidate(cx, cell_map, edge_maps) is None:
            valid.append((cell_map, edge_maps))
    classes: list[Candidate] = []
    for cell_map, ems in valid:
        if not any(
            cm == cell_map and equivalent(cx, cell_map, rep, ems)
            for cm, rep in classes
        ):
            classes.append((cell_map, ems))
    return ReferenceSearch(candidates, valid, classes)
