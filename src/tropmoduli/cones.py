"""The moduli space as a combinatorial cone complex.

Cells are the strata of the catalog, indexed by (dimension, canonical
order), each held as the sorted tuple of its ray indices.  Edges of a
cell are its splits, so the face obtained by contracting a subset of
edges is literally the cell with those rays removed, found by looking
the shorter tuple up, and the retained-edge injection is the identity
on splits.  :func:`build_complex` also contracts every edge of every
cell's representative tree and asserts that the result is the face
found by index removal, turning the rigidity of stable trees into a
runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .enumeration import StratumCatalog, enumerate_strata
from .trees import CanonicalForm, Split, contract

__all__ = ["ConeComplex", "build_complex", "star_count"]


@dataclass(frozen=True)
class ConeComplex:
    """Face poset of the stratum catalog plus the compatibility graph on
    rays (the dimension-1 cells)."""

    n: int
    rays: tuple[Split, ...]  # ray r is cell dim_ranges[1][r]
    compat_masks: tuple[int, ...]  # adjacency rows of the ray-compatibility graph
    cell_rays: tuple[tuple[int, ...], ...]  # per cell: its sorted ray indices
    cells: tuple[CanonicalForm, ...]

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(map(len, self.cell_rays))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {c: i for i, c in enumerate(self.cell_rays)}

    @cached_property
    def codim1(self) -> tuple[tuple[tuple[Split, int], ...], ...]:
        """Per cell: (dropped split, face index), one entry per ray."""
        index = self.index
        return tuple(
            tuple((self.rays[r], index[c[:k] + c[k + 1:]]) for k, r in enumerate(c))
            for c in self.cell_rays
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

    def ray_of_cell(self, cell_idx: int) -> int:
        if self.dims[cell_idx] != 1:
            raise ValueError(f"cell {cell_idx} is not a ray")
        return cell_idx - self.dim_ranges[1].start

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
        counts = [0] * len(self.cells)
        for faces in self.codim1:
            for _, tgt in faces:
                counts[tgt] += 1
        return tuple(counts)

    def cell_ray_sets(self) -> list[frozenset[int]]:
        """Each cell as the set of its rays (by ray index)."""
        return [frozenset(c) for c in self.cell_rays]

    def to_json_obj(self) -> dict:
        cells = [
            {"index": i, "dim": self.dims[i], "splits": c.sides_json()}
            for i, c in enumerate(self.cells)
        ]
        faces = {}
        for i, entries in enumerate(self.codim1):
            lst = []
            for s, tgt in entries:
                _, retained = self.face(i, [s])
                lst.append(
                    {
                        "drop": list(s.side()),
                        "target": tgt,
                        "retained": sorted(retained.items()),
                    }
                )
            faces[str(i)] = lst
        return {"n": self.n, "f_vector": self.f_vector(), "cells": cells, "faces": faces}

    def to_dot(self, kind: str) -> str:
        """DOT source for the Hasse diagram of the face poset or for the
        ray-compatibility graph."""
        lines = []
        if kind == "hasse":
            lines.append("digraph hasse {")
            lines.append('  rankdir="BT";')
            for i, c in enumerate(self.cells):
                label = f"d{self.dims[i]}: " + (
                    "pt" if not c.splits else " | ".join(
                        ",".join(map(str, s.side())) for s in c.splits
                    )
                )
                lines.append(f'  c{i} [label="{label}"];')
            for i, entries in enumerate(self.codim1):
                for _, tgt in entries:
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
    against contracting that edge of a representative tree."""
    if catalog is None:
        catalog = enumerate_strata(n)
    cx = ConeComplex(
        n,
        catalog.rays,
        catalog.compat_rows,
        tuple(c for d in sorted(catalog.cell_rays) for c in catalog.cell_rays[d]),
        tuple(catalog.all_forms()),
    )
    for form, faces in zip(cx.cells, cx.codim1):
        tree = form.to_tree()
        face_of = dict(faces)
        targets = set()
        for e, s in enumerate(tree.splits):
            tgt = face_of.get(s)
            if tgt is None or contract(tree, [e]).tree.canonical_form != cx.cells[tgt]:
                raise AssertionError(
                    f"contraction of edge {e} disagrees with split removal on {form}"
                )
            if tgt in targets:
                raise AssertionError(
                    f"two one-edge contractions of {form} hit the same face"
                )
            targets.add(tgt)
    return cx


def star_count(cx: ConeComplex, cell_idx: int) -> int:
    """Number of cells one dimension up whose closure contains the given
    cell, counted brute-force through the face maps."""
    if not 0 <= cell_idx < len(cx.cells):
        raise ValueError(f"no cell with index {cell_idx}")
    return cx._star_counts[cell_idx]
