"""The moduli space as a combinatorial cone complex.

:class:`ConeComplex` extends the stratum catalog with the face structure
and shares its cell table: cells are indexed by (dimension, canonical
order), each held as the sorted tuple of its ray indices and keyed in
:attr:`ConeComplex.index` by its ray bitmask (bit r is ray r).  The
index rejects a mask listed twice, so it is a bijection onto the cells.
Edges of a cell are its splits, so the face obtained by contracting a
subset of edges is literally the cell with those rays removed, found by
clearing their bits and looking the mask up, and the retained-edge
injection is the identity on splits.  The faces are streamed
(:attr:`ConeComplex.codim1`), never stored.  :func:`build_complex`
checks every one-edge contraction (:func:`check_contractions`): each
face must be a cell, and a depth-first walk builds each cell's clade
tree from its prefix face's (its ray tuple without the last ray),
adding the two vertices the last ray makes.  Every cell's rays are then
the clades of a stable tree, and contracting an edge leaves every other
clade unchanged as a set, so the face is the contraction.  This turns
the rigidity of stable trees into a runtime check without building a
tree object per cell.  The same walk records each cell's vertex profile
(:attr:`ConeComplex.vertex_profiles`), which the counting check reads.
Last, :func:`build_complex` checks that the complex is pure, so its
top-dimensional cells are its maximal cells and every cell is a face of
one; :meth:`ConeComplex.unmapped_cell`, the one check that a ray
permutation maps cells to cells, rests on these checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .enumeration import StratumCatalog, enumerate_strata

__all__ = [
    "ConeComplex",
    "build_complex",
    "check_contractions",
    "star_count",
]


@dataclass(frozen=True)
class ConeComplex(StratumCatalog):
    """The stratum catalog's cells with their face poset, plus the
    compatibility graph on rays (the dimension-1 cells): ray r is cell
    ``dim_ranges[1][r]``."""

    @cached_property
    def index(self) -> dict[int, int]:
        """Cell index by the cell's ray bitmask (bit r is ray r), with the
        keys in cell order.  A mask that repeats raises ``AssertionError``
        naming the cell listed twice, so the index is a bijection between
        the masks and the cell positions."""
        out = {}
        for i, c in enumerate(self.cell_rays):
            mask = 0
            for r in c:
                mask |= 1 << r
            if out.setdefault(mask, i) != i:
                raise AssertionError(f"cell {self.cell_name(i)} is listed twice")
        return out

    @property
    def codim1(self):
        """Each cell's face indices in cell order, one per dropped ray in ray
        order, yielded afresh on each read; a face that is no cell raises
        ``AssertionError``."""
        index = self.index
        try:
            for mask, c in zip(index, self.cell_rays):
                yield [index[mask ^ (1 << r)] for r in c]
        except KeyError:
            # every earlier cell passed, so the cell being read has the first missing face
            r = next(r for r in c if mask ^ 1 << r not in index)
            name = self.cell_name(index[mask])
            raise AssertionError(
                f"contracting edge {self.ray_name(r)} of cell {name} gives no cell"
            ) from None

    def unmapped_cell(self, ray_perm) -> int | None:
        """The first cell, in cell order, that a permutation of the rays
        does not map to a cell, or None when it maps every cell to one.

        Only the top cells are looked up, each image the OR of its rays'
        image bits, and that is enough: (1) every cell is a face of a top
        cell, as :func:`build_complex` checks that the complex is pure;
        (2) every ray subset of a cell is a cell, as the build's face
        stream rejects a face that is no cell; (3) distinct cells have
        distinct masks (:attr:`index`); (4) so each cell's image lies in a
        top cell's image, a cell, and is a cell with as many rays, and
        distinct cells have distinct images: the map is a
        dimension-preserving bijection.  Only after a top cell fails are
        all cells scanned, to find the first."""
        bits = [1 << r for r in ray_perm]
        index, cells = self.index, self.cell_rays

        def first_unmapped(start):
            for i, c in enumerate(islice(cells, start, None), start):
                mask = 0
                for r in c:
                    mask |= bits[r]
                if mask not in index:
                    return i
            return None

        top = self.dim_ranges[self.max_dimension].start
        return None if first_unmapped(top) is None else first_unmapped(0)

    @cached_property
    def ray_by_mask(self) -> dict[int, int]:
        """Ray index by the bitmask of its marking-1-free side."""
        return {s.mask: r for r, s in enumerate(self.rays)}

    def compat_neighbors(self) -> list[list[int]]:
        return [
            [j for j in range(len(self.rays)) if row >> j & 1]
            for row in self.compat_masks
        ]

    @cached_property
    def vertex_profiles(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per cell, the sorted (leg count, valence) pairs of the vertices
        of its clade tree, recorded by :func:`check_contractions`."""
        return check_contractions(self)

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

    def to_json_obj(self) -> dict:
        sides = [list(s.side()) for s in self.rays]  # each ray's side, once
        cells = [
            {"index": i, "dim": len(c), "splits": [sides[r] for r in c]}
            for i, c in enumerate(self.cell_rays)
        ]
        faces = {}
        for i, (c, targets) in enumerate(zip(self.cell_rays, self.codim1)):
            # dropping ray k moves every later ray down one position
            faces[str(i)] = [
                {
                    "drop": sides[c[k]],
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
        labels = [",".join(map(str, s.side())) for s in self.rays]  # each ray's, once
        if kind == "hasse":
            lines.append("digraph hasse {")
            lines.append('  rankdir="BT";')
            for i, c in enumerate(self.cell_rays):
                label = f"d{len(c)}: " + (" | ".join(map(labels.__getitem__, c)) or "pt")
                lines.append(f'  c{i} [label="{label}"];')
            for i, entries in enumerate(self.codim1):
                for tgt in entries:
                    lines.append(f"  c{tgt} -> c{i};")
        elif kind == "compat":
            lines.append("graph compat {")
            for r, label in enumerate(labels):
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
    """Materialize the cone complex on the catalog's tables, with no face
    table: :func:`check_contractions` checks every face and contraction
    and records the vertex profiles, and a cell below the top dimension
    with no coface raises ``AssertionError`` naming it.  A catalog of
    another n raises ``ValueError`` before any work."""
    if catalog is None:
        catalog = enumerate_strata(n)
    elif catalog.n != n:
        raise ValueError(f"build_complex(n={n}) was given the catalog of n={catalog.n}")
    cx = ConeComplex(n, catalog.rays, catalog.compat_masks, catalog.cell_rays)
    cx.vertex_profiles  # force the contraction check
    # a top cell has no coface, so the first cell with none is at most the first top cell
    if (i := cx._star_counts.index(0)) < cx.dim_ranges[cx.max_dimension].start:
        raise AssertionError(f"cell {cx.cell_name(i)} is maximal below the top dimension")
    return cx


def check_contractions(cx: ConeComplex) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Check that every cell's rays are the clades of a stable tree whose
    one-edge contractions are the faces ``cx.codim1`` yields; raise
    ``AssertionError`` naming the cell, and the edge if there is one, on
    the first disagreement.

    Forcing ``cx._star_counts`` reads the face stream, which checks every
    face.  ``cx.index`` rejects a cell listed twice, so it is a bijection
    from ray masks to cells, and each face is by construction the cell
    whose mask is the cell's with one ray's bit cleared, or raises if no
    cell has that mask.  Cells are in dimension and then lexicographic
    order of their ray tuples, so a depth-first walk from the point, with
    one pointer per dimension, reaches each cell from its prefix face,
    the cell whose tuple is its own without the last ray (a cell it
    misses is out of order), and builds the cell's tree from the
    prefix's.  A reached cell is its prefix plus one ray, so by induction
    its tuple has the dimension's length and repeats no ray: a repeat
    would give it its prefix's mask, which the index rejects.  The last
    ray's mask M is the largest clade, so it hangs from the root, and
    only two vertices are new: M's and the rest of the root.  Each root
    child that meets M must lie inside M (else a marking sits on two
    vertices), M must not hold marking 1, and the two new vertices must
    be stable.  By induction on the prefix, every cell's rays are then
    the clades of a stable tree.  Contracting edge e merges vertex e into
    its parent and leaves every other clade unchanged as a set, so it
    gives the face with e's ray removed, which is the face ``codim1``
    yields; the merged vertex weighs >= 3 + 3 - 2 = 4.  Returns each
    cell's vertex profile, its sorted (leg count, valence) pairs, equal
    profiles as one shared tuple.
    """
    cx._star_counts  # the face check
    cell_rays = cx.cell_rays
    masks = [s.mask for s in cx.rays]
    # bounds[d]: the first cell of dimension d; ptr[d]: the next one to visit
    bounds = [r.start for r in cx.dim_ranges.values()] + [len(cell_rays)] * 2
    ptr = bounds[:-1]
    profiles = [None] * len(cell_rays)
    seen, steps = {}, {}  # steps: the profile each (profile, root, new vertex) step gives

    def visit(p, d, children, legs, profile):
        # the cofaces of cell p, given its root's children (clade masks) and legs
        j, end = ptr[d + 1], bounds[d + 2]
        while j < end and (rays := cell_rays[j])[:-1] == cell_rays[p]:
            m = masks[rays[-1]]  # the largest clade, hung from the root
            cover, rest = 0, []  # the root's children meeting M, summed, and the others
            for c in children:
                if c & m:
                    cover += c  # the root's children are disjoint
                else:
                    rest.append(c)
            if cover & ~m:
                raise AssertionError(f"a marking of cell {cx.cell_name(j)} sits on two vertices")
            if m & 1:
                raise AssertionError(f"the tree of cell {cx.cell_name(j)} misses a marking")
            own, k = (m ^ cover).bit_count(), len(children) - len(rest)
            rest.append(m)
            if own + k < 2 or legs - own + len(rest) < 3:
                raise AssertionError(f"cell {cx.cell_name(j)} has an unstable vertex")
            key = (id(profile), legs, len(children), own, k)
            if (new := steps.get(key)) is None:
                pairs = list(profile)
                pairs.remove((legs, len(children)))
                pairs += ((own, k + 1), (legs - own, len(rest)))
                pairs = tuple(sorted(pairs))
                new = steps[key] = seen.setdefault(pairs, pairs)
            profiles[j] = new
            visit(j, d + 1, rest, legs - own, new)
            j += 1
        ptr[d + 1] = j

    if not cell_rays[0]:  # the walk starts at the point
        ptr[0] = 1
        profiles[0] = point = ((cx.n, 0),)
        visit(0, 0, [], cx.n, point)
    for j, end in zip(ptr, bounds[1:]):
        if j != end:
            raise AssertionError(f"cell {cx.cell_name(j)} is listed out of order")
    return tuple(profiles)


def star_count(cx: ConeComplex, cell_idx: int) -> int:
    """Number of cells one dimension up whose closure contains the given
    cell, counted once through the face stream."""
    if not 0 <= cell_idx < len(cx.cell_rays):
        raise ValueError(f"no cell with index {cell_idx}")
    return cx._star_counts[cell_idx]
