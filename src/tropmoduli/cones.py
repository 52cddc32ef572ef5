"""The moduli space as a combinatorial cone complex.

Cells are the strata of the catalog, indexed by (dimension, canonical
order), each held as the sorted tuple of its ray indices.  Edges of a
cell are its splits, so the face obtained by contracting a subset of
edges is literally the cell with those rays removed, found by looking
the shorter tuple up, and the retained-edge injection is the identity
on splits.  :func:`build_complex` also checks every one-edge
contraction on a bitmask clade tree (:func:`check_contractions`): each
edge is merged into its parent vertex, the remaining clades are
recomputed from the vertices' own legs, and the result must be a stable
tree whose clades are the face found by index removal, with the faces
of a cell all distinct.  This turns the rigidity of stable trees into a
runtime check without building a tree object per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .enumeration import StratumCatalog, enumerate_strata
from .trees import CanonicalForm, Split

__all__ = [
    "ConeComplex",
    "build_complex",
    "check_contractions",
    "star_count",
    "vertex_profiles",
]


@dataclass(frozen=True)
class ConeComplex:
    """Face poset of the stratum catalog plus the compatibility graph on
    rays (the dimension-1 cells)."""

    n: int
    rays: tuple[Split, ...]  # ray r is cell dim_ranges[1][r]
    compat_masks: tuple[int, ...]  # adjacency rows of the ray-compatibility graph
    cell_rays: tuple[tuple[int, ...], ...]  # per cell: its sorted ray indices

    @cached_property
    def cells(self) -> tuple[CanonicalForm, ...]:
        """Each cell as a canonical form, built on first use (tests and
        the benchmark's replay)."""
        return tuple(
            CanonicalForm(self.n, tuple(self.rays[r] for r in c)) for c in self.cell_rays
        )

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.cell_rays))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {c: i for i, c in enumerate(self.cell_rays)}

    @cached_property
    def codim1(self) -> tuple[tuple[int, ...], ...]:
        """Per cell: the face index reached by dropping each ray, in ray order."""
        index = self.index
        return tuple(
            tuple(index[c[:k] + c[k + 1:]] for k in range(len(c))) for c in self.cell_rays
        )

    @cached_property
    def dim_ranges(self) -> dict[int, range]:
        out = {}
        start = 0
        for d in range(max(self.dims) + 1):
            count = sum(1 for x in self.dims if x == d)
            out[d] = range(start, start + count)
            start += count
        return out

    @property
    def max_dimension(self) -> int:
        return max(self.dims)

    def f_vector(self) -> list[int]:
        return [len(self.dim_ranges[d]) for d in sorted(self.dim_ranges)]

    @cached_property
    def ray_index(self) -> dict[Split, int]:
        return {s: r for r, s in enumerate(self.rays)}

    def compat_neighbors(self) -> list[list[int]]:
        return [
            [j for j in range(len(self.rays)) if row >> j & 1]
            for row in self.compat_masks
        ]

    def face(self, cell_idx: int, drop: Iterable[Split]) -> tuple[int, dict[int, int]]:
        """Face reached by contracting the given splits of a cell; returns
        (target index, retained-split injection by position)."""
        cell = self.cell_rays[cell_idx]
        dropped = {self.ray_index.get(s) for s in drop}
        if not dropped <= set(cell):
            raise ValueError(f"some split to drop is not in cell {cell_idx}")
        target = tuple(r for r in cell if r not in dropped)
        pos = {r: k for k, r in enumerate(target)}
        retained = {k: pos[r] for k, r in enumerate(cell) if r in pos}
        return self.index[target], retained

    @cached_property
    def _star_counts(self) -> tuple[int, ...]:
        counts = [0] * len(self.cell_rays)
        for faces in self.codim1:
            for tgt in faces:
                counts[tgt] += 1
        return tuple(counts)

    def ray_name(self, r: int) -> str:
        """A ray by its marking-1-free side, as in ``{2,3}``."""
        return "{" + ",".join(map(str, self.rays[r].side())) + "}"

    def cell_name(self, i: int) -> str:
        """A cell by its rays, as in ``{2,3} | {2,3,4}``; ``pt`` for the
        point."""
        return " | ".join(map(self.ray_name, self.cell_rays[i])) or "pt"

    def cell_ray_sets(self) -> list[frozenset[int]]:
        """Each cell as the set of its rays (by ray index)."""
        return [frozenset(c) for c in self.cell_rays]

    def cell_sides(self, i: int) -> list[list[int]]:
        """A cell's rays by their marking-1-free sides, in ray order."""
        return [list(self.rays[r].side()) for r in self.cell_rays[i]]

    def to_json_obj(self) -> dict:
        cells = [
            {"index": i, "dim": d, "splits": self.cell_sides(i)} for i, d in enumerate(self.dims)
        ]
        faces = {}
        for i, (c, targets) in enumerate(zip(self.cell_rays, self.codim1)):
            # dropping ray k moves every later ray down one position
            faces[str(i)] = [
                {
                    "drop": list(self.rays[c[k]].side()),
                    "target": tgt,
                    "retained": [(j, j - (j > k)) for j in range(len(c)) if j != k],
                }
                for k, tgt in enumerate(targets)
            ]
        return {"n": self.n, "f_vector": self.f_vector(), "cells": cells, "faces": faces}

    def to_dot(self, kind: str) -> str:
        """DOT source for the Hasse diagram of the face poset or for the
        ray-compatibility graph."""
        lines = []
        if kind == "hasse":
            lines.append("digraph hasse {")
            lines.append('  rankdir="BT";')
            for i, d in enumerate(self.dims):
                sides = " | ".join(",".join(map(str, side)) for side in self.cell_sides(i))
                label = f"d{d}: " + (sides or "pt")
                lines.append(f'  c{i} [label="{label}"];')
            for i, entries in enumerate(self.codim1):
                for tgt in entries:
                    lines.append(f"  c{tgt} -> c{i};")
        elif kind == "compat":
            lines.append("graph compat {")
            for r, s in enumerate(self.rays):
                label = ",".join(map(str, s.side()))
                lines.append(f'  r{r} [label="{label}"];')
            for r, row in enumerate(self.compat_masks):
                for j in range(r + 1, len(self.rays)):
                    if row >> j & 1:
                        lines.append(f"  r{r} -- r{j};")
        else:
            raise ValueError(f"unknown DOT export {kind!r}")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_complex(n: int, catalog: StratumCatalog | None = None) -> ConeComplex:
    """Materialize the cone complex: all cells in (dimension, canonical)
    order plus the codimension-1 face maps by index removal, each checked
    by :func:`check_contractions`."""
    if catalog is None:
        catalog = enumerate_strata(n)
    cx = ConeComplex(
        n,
        catalog.rays,
        catalog.compat_rows,
        tuple(c for d in sorted(catalog.cell_rays) for c in catalog.cell_rays[d]),
    )
    check_contractions(cx)
    return cx


def check_contractions(cx: ConeComplex) -> None:
    """Contract every edge of every cell's tree and compare the result
    with the face in ``cx.codim1``; raise ``AssertionError`` naming the
    cell and the edge on the first disagreement.

    The tree is the cell's clade tree (see :func:`_clade_trees`) and
    must be stable.  Contracting edge e merges vertex e into its parent,
    which must stay stable (no other vertex changes), the remaining
    clade masks are recomputed bottom-up from the own legs, and they
    must be exactly the rays of the face.  The faces of a cell must be
    distinct (rigidity).
    """
    ray_of = {s.mask: r for r, s in enumerate(cx.rays)}
    for i, ((parent, own), faces) in enumerate(zip(_clade_trees(cx), cx.codim1)):
        rays, root = cx.cell_rays[i], len(parent)
        weight = [v + m.bit_count() for v, m in zip(_valences(parent), own)]
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
            face = tuple(sorted([ray_of.get(m, -1) for m in acc[:e] + acc[e + 1:root]]))
            if face != cx.cell_rays[tgt]:
                raise AssertionError(
                    f"contracting edge {cx.ray_name(rays[e])} of cell "
                    f"{cx.cell_name(i)} disagrees with split removal"
                )
        if len(set(faces)) < len(faces):
            raise AssertionError(
                f"two one-edge contractions of cell {cx.cell_name(i)} hit the same face"
            )


def vertex_profiles(cx: ConeComplex) -> Iterator[tuple[tuple[int, int], ...]]:
    """Per cell, the sorted (leg count, valence) pairs of the vertices of
    its clade tree."""
    for parent, own in _clade_trees(cx):
        yield tuple(sorted(zip([m.bit_count() for m in own], _valences(parent))))


def _clade_trees(cx: ConeComplex) -> Iterator[tuple[list[int], list[int]]]:
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


def _valences(parent: list[int]) -> list[int]:
    """Each vertex's valence; vertex ``len(parent)`` is the root, and every
    other vertex also carries the edge to its parent."""
    valence = [1] * len(parent) + [0]
    for p in parent:
        valence[p] += 1
    return valence


def star_count(cx: ConeComplex, cell_idx: int) -> int:
    """Number of cells one dimension up whose closure contains the given
    cell, counted brute-force through the face maps."""
    if not 0 <= cell_idx < len(cx.cell_rays):
        raise ValueError(f"no cell with index {cell_idx}")
    return cx._star_counts[cell_idx]
