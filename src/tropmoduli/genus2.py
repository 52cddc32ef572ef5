"""The genus-2 moduli fixture and the triviality of its automorphisms.

Genus 2 without markings has exactly seven strata: two 3-dimensional
cells (the theta graph and the dumbbell), two 2-dimensional cells (the
figure eight and the lollipop with a weight-1 head), two 1-dimensional
cells (a weight-1 loop and a bridge joining two weight-1 vertices) and
the weight-2 point.  Unlike the genus-0 case the graphs carry loops,
parallel edges, weights and genuine automorphisms, so each cell is an
orthant modulo its graph's edge action and maps between cells are only
defined up to those actions.  The fixture is hardcoded, and each cell
is checked to have genus 2 and be stable; contraction (loops add
weight, other edges merge their ends) keeps the genus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Iterator, Sequence

from .groups import PermutationGroup, compose_perms

__all__ = [
    "WeightedGraph",
    "QuotientCell",
    "M2Complex",
    "M2Violation",
    "M2SearchResult",
    "weighted_graph_isomorphisms",
    "contract_weighted_edge",
    "m2_cells",
    "build_m2_complex",
    "aut_m2",
    "bridge_loop_swap_violation",
]


@dataclass(frozen=True)
class WeightedGraph:
    """A connected multigraph with non-negative integer vertex weights;
    loops and parallel edges allowed.  Genus = first Betti number plus
    total weight."""

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        V = len(self.weights)
        if V < 1:
            raise ValueError("need at least one vertex")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        norm = []
        for u, v in self.edges:
            if not (0 <= u < V and 0 <= v < V):
                raise ValueError(f"edge ({u},{v}) has unknown endpoint")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))
        reached = [0]
        for x in reached:
            for u, v in self.edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reached:
                        reached.append(b)
        if len(reached) != V:
            raise ValueError("graph is not connected")

    @property
    def num_vertices(self) -> int:
        return len(self.weights)

    @property
    def genus(self) -> int:
        betti = len(self.edges) - self.num_vertices + 1
        return betti + sum(self.weights)

    def valence(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)

    def is_stable(self) -> bool:
        """Every weight-0 vertex has valence >= 3 (loops count twice)."""
        return all(
            w > 0 or self.valence(v) >= 3 for v, w in enumerate(self.weights)
        )


def weighted_graph_isomorphisms(
    g: WeightedGraph, h: WeightedGraph
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All isomorphism pairs (vertex map, edge map): every weight-preserving
    vertex bijection, then every edge bijection carrying each edge to an
    edge with the image ends.  Brute force, sized for the genus-2 cells
    (at most 2 vertices and 3 edges)."""
    if g.num_vertices != h.num_vertices or len(g.edges) != len(h.edges):
        return
    for vmap in itertools.permutations(range(g.num_vertices)):
        if any(g.weights[v] != h.weights[vmap[v]] for v in range(g.num_vertices)):
            continue
        ends = [tuple(sorted((vmap[u], vmap[v]))) for u, v in g.edges]
        for emap in itertools.permutations(range(len(g.edges))):
            if all(h.edges[j] == e for j, e in zip(emap, ends)):
                yield vmap, emap


def contract_weighted_edge(g: WeightedGraph, edge_idx: int) -> WeightedGraph:
    """Contract one edge: a loop disappears and adds 1 to its vertex's
    weight, any other edge merges its endpoints adding weights.  The genus
    is unchanged: a loop takes one cycle for one weight, and any other
    edge takes one edge and one vertex, keeping the Betti number."""
    if not 0 <= edge_idx < len(g.edges):
        raise ValueError(f"no edge with index {edge_idx}")
    u, v = g.edges[edge_idx]
    rest = tuple(e for i, e in enumerate(g.edges) if i != edge_idx)
    if u == v:
        return WeightedGraph(tuple(w + (x == u) for x, w in enumerate(g.weights)), rest)
    # each kept vertex's position among the kept vertices; v goes to u's
    pos, weights = {}, []
    for x, w in enumerate(g.weights):
        if x != v:
            pos[x] = len(weights)
            weights.append(w + g.weights[v] * (x == u))
    pos[v] = pos[u]
    return WeightedGraph(tuple(weights), tuple((pos[a], pos[b]) for a, b in rest))


@dataclass(frozen=True)
class QuotientCell:
    """A stratum of the genus-2 space: the orthant on the graph's edges
    modulo the edge action of the graph's automorphisms."""

    name: str
    graph: WeightedGraph

    @property
    def dimension(self) -> int:
        return len(self.graph.edges)

    @cached_property
    def edge_group_elements(self) -> tuple[tuple[int, ...], ...]:
        """The edge group, listed once per cell as the sorted edge maps of
        the graph's self-isomorphisms: the image of its automorphism group
        in the symmetric group on its edges."""
        isos = weighted_graph_isomorphisms(self.graph, self.graph)
        return tuple(sorted({emap for _, emap in isos}))

    @cached_property
    def edge_group(self) -> PermutationGroup:
        return PermutationGroup(self.dimension, self.edge_group_elements)


def m2_cells() -> tuple[QuotientCell, ...]:
    """The seven genus-2 strata, ordered by (dimension, name)."""
    return (
        QuotientCell("point_w2", WeightedGraph((2,), ())),
        QuotientCell("bridge_w1_w1", WeightedGraph((1, 1), ((0, 1),))),
        QuotientCell("loop_w1", WeightedGraph((1,), ((0, 0),))),
        QuotientCell("figure_eight", WeightedGraph((0,), ((0, 0), (0, 0)))),
        QuotientCell("lollipop", WeightedGraph((0, 1), ((0, 0), (0, 1)))),
        QuotientCell("dumbbell", WeightedGraph((0, 0), ((0, 0), (0, 1), (1, 1)))),
        QuotientCell("theta", WeightedGraph((0, 0), ((0, 1), (0, 1), (0, 1)))),
    )


@dataclass(frozen=True)
class M2Complex:
    """The quotient cone complex: cells plus, per cell and edge, the face
    cell reached by contracting that edge together with one retained-edge
    identification (well defined up to the face's edge group), a dict
    from each other edge of the cell to its edge of the face."""

    cells: tuple[QuotientCell, ...]
    arrows: tuple[tuple[tuple[int, dict[int, int]], ...], ...]

    def cell_index(self, name: str) -> int:
        return [c.name for c in self.cells].index(name)

    def f_vector(self) -> list[int]:
        dims = [c.dimension for c in self.cells]
        return [dims.count(d) for d in range(max(dims) + 1)]


def build_m2_complex() -> M2Complex:
    """Assemble the fixture and compute its face arrows by contracting
    every edge of every cell and locating the (unique) resulting stratum."""
    cells = m2_cells()
    for cell in cells:
        if cell.graph.genus != 2:
            raise AssertionError(f"{cell.name} does not have genus 2")
        if not cell.graph.is_stable():
            raise AssertionError(f"{cell.name} is not stable")
    arrows = []
    for i, cell in enumerate(cells):
        per_edge = []
        for e in range(cell.dimension):
            contracted = contract_weighted_edge(cell.graph, e)
            matches = [
                (j, iso)
                for j, other in enumerate(cells)
                if (iso := next(weighted_graph_isomorphisms(contracted, other.graph), None))
            ]
            if len(matches) != 1:
                raise AssertionError(
                    f"contracting edge {e} of {cell.name} matches "
                    f"{len(matches)} strata"
                )
            j, (_, emap) = matches[0]
            # the search checks a cell after its faces
            if j >= i:
                raise AssertionError(
                    f"face {cells[j].name} of {cell.name} does not come before it"
                )
            # retained map: edge x != e of the cell sits at position
            # x - (x > e) in the contracted graph, then moves through emap
            retained = {x: emap[x - (x > e)] for x in range(cell.dimension) if x != e}
            per_edge.append((j, retained))
        arrows.append(tuple(per_edge))
    return M2Complex(cells, tuple(arrows))


@dataclass(frozen=True)
class M2Violation:
    """Witness that a candidate self-map breaks a face arrow: contracting
    `edge` of `cell` lands in `face`, but the image contraction lands in
    `image_face`, which the candidate does not map `face` to."""

    cell: str
    edge: int
    face: str
    image_face: str

    def describe(self) -> str:
        return (
            f"contracting edge {self.edge} of {self.cell} gives {self.face}, "
            f"but the image edge contracts to {self.image_face}"
        )


@dataclass(frozen=True)
class M2SearchResult:
    group: PermutationGroup
    candidates: int
    valid: int
    classes: int


def _check_cell(
    cx: M2Complex, cell_map: Sequence[int], edge_maps: Sequence[Sequence[int]], i: int
) -> M2Violation | None:
    """The first face arrow of cell i that a candidate (cell map plus
    per-cell edge bijections) breaks, up to the face cells' edge groups.
    Reads only the images of cell i and of its faces."""
    cell, i2, phi = cx.cells[i], cell_map[i], edge_maps[i]
    for e, (j, lhs) in enumerate(cx.arrows[i]):
        j2, rhs = cx.arrows[i2][phi[e]]
        # the retained-edge identifications are canonical only up to
        # the face edge groups, so the square has to commute up to a
        # pre-twist h1 on the face and a post-twist h2 on its image:
        # edge_maps[j](h1(lhs(x))) = h2(rhs(phi(x)))
        if cell_map[j] != j2 or not any(
            all(edge_maps[j][h1[lhs[x]]] == h2[rhs[phi[x]]] for x in lhs)
            for h1 in cx.cells[j].edge_group_elements
            for h2 in cx.cells[j2].edge_group_elements
        ):
            return M2Violation(cell.name, e, cx.cells[j].name, cx.cells[j2].name)
    return None


def _edge_class(cx: M2Complex, i: int, i2: int, phi: Sequence[int]) -> tuple[int, ...]:
    """The least element h∘phi∘g of the double coset of an edge bijection
    phi from cell i onto cell i2, g and h ranging over the two cells'
    edge groups: two bijections give the same quotient map exactly when
    their least elements agree."""
    return min(
        compose_perms(h, compose_perms(phi, g))
        for g in cx.cells[i].edge_group_elements
        for h in cx.cells[i2].edge_group_elements
    )


def aut_m2(cx: M2Complex) -> M2SearchResult:
    """Walk the cells in order (faces come first), giving each an unused
    image cell of its dimension and an edge bijection onto it, and drop
    the branch as soon as a cell's face arrows fail.  `candidates` counts
    these per-cell checks; `valid` counts the whole candidates that pass,
    and `classes` those modulo the per-cell edge groups.  The result is
    the trivial group: each cell is fixed and every surviving edge
    bijection is equivalent to the identity.  Each (cell, image, edge
    bijection) class is computed once per call: the valid candidates
    share most of them."""
    size = len(cx.cells)
    cell_map = [0] * size
    edge_maps: list[tuple[int, ...]] = [()] * size
    checks = valid = 0
    keys = set()
    edge_class = cache(partial(_edge_class, cx))

    def walk(i: int) -> None:
        nonlocal checks, valid
        if i == size:
            valid += 1
            keys.add((tuple(cell_map), tuple(map(edge_class, range(size), cell_map, edge_maps))))
            return
        dim = cx.cells[i].dimension
        for i2, image in enumerate(cx.cells):
            if image.dimension != dim or i2 in cell_map[:i]:
                continue
            cell_map[i] = i2
            for phi in itertools.permutations(range(dim)):
                checks += 1
                edge_maps[i] = phi
                if _check_cell(cx, cell_map, edge_maps, i) is None:
                    walk(i + 1)

    walk(0)
    gens = tuple(sorted({cm for cm, _ in keys} - {tuple(range(size))}))
    return M2SearchResult(
        group=PermutationGroup(size, gens),
        candidates=checks,
        valid=valid,
        classes=len(keys),
    )


def bridge_loop_swap_violation(cx: M2Complex) -> M2Violation:
    """The named rejected candidate: fix every cell, swap the dumbbell's
    bridge with one of its loops.  Face checking rejects it because the
    bridge contracts to the figure eight while a loop contracts to the
    lollipop.  The candidate is checked cell by cell, as `aut_m2` checks
    its branches, and the first broken arrow is the witness."""
    cells = range(len(cx.cells))
    edge_maps = [tuple(range(c.dimension)) for c in cx.cells]
    # edges are (loop at 0, bridge, loop at 1): swap bridge and first loop
    edge_maps[cx.cell_index("dumbbell")] = (1, 0, 2)
    for i in cells:
        if (violation := _check_cell(cx, cells, edge_maps, i)) is not None:
            return violation
    raise AssertionError("the bridge/loop swap was unexpectedly accepted")
