"""Cone complex: structure at small n, the flag property, face-map
consistency, the contraction check, star counts, and exports."""

import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest

from tropmoduli import cones
from tropmoduli.automorphisms import DEFAULT_SEED, main_theorem_report
from tropmoduli.cli import _formula_mismatches
from tropmoduli.cones import build_complex, check_contractions, star_count
from tropmoduli.trees import Split, splits_compatible
from shared import (
    catalog,
    cell_of,
    complex_for,
    count_calls,
    count_tree_objects,
    ray_mask,
    unreached_raises,
)
from tree_oracles import (
    canonical_form,
    contract,
    face,
    form_sort_key,
    per_edge_contractions,
    tree_splits,
    tuple_codim1,
)


def test_n3_is_a_point():
    cx = complex_for(3)
    assert len(cx.cells) == 1
    assert cx.rays == ()
    assert cx.f_vector() == [1]


def test_n4_structure():
    cx = complex_for(4)
    assert cx.f_vector() == [1, 3]
    assert len(cx.rays) == 3
    # three maximal cones of dimension 1 meeting only in the point
    assert all(mask == 0 for mask in cx.compat_masks)


def test_n5_structure():
    cx = complex_for(5)
    assert cx.f_vector() == [1, 10, 15]
    assert len(cx.cells) == 26
    edges = sum(mask.bit_count() for mask in cx.compat_masks) // 2
    assert edges == 15
    # each maximal cell is a compatible pair, so maximal cliques have size 2
    for i in cx.dim_ranges[2]:
        assert len(cx.cells[i].splits) == 2


def test_cells_sorted_by_dimension_then_form():
    for n in (4, 5, 6):
        cx = complex_for(n)
        keys = [(len(c), form_sort_key(form)) for c, form in zip(cx.cell_rays, cx.cells)]
        assert keys == sorted(keys)


def test_face_relation_is_graded():
    for n in (4, 5, 6):
        cx = complex_for(n)
        dims = list(map(len, cx.cell_rays))
        for i, faces in enumerate(cx.codim1):
            assert len(faces) == dims[i]
            for tgt in faces:
                assert dims[tgt] == dims[i] - 1
            assert len(set(faces)) == len(faces)


def test_index_keys_each_cell_by_its_ray_mask():
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        masks = [ray_mask(c) for c in cx.cell_rays]
        assert len(set(masks)) == len(masks)
        for i, mask in enumerate(masks):
            assert cx.index[mask] == i
        assert len(cx.index) == len(masks)


def test_codim1_matches_tuple_slicing():
    for n in (4, 5, 6, 7, 8):
        cx = complex_for(n)
        assert tuple(map(tuple, cx.codim1)) == tuple_codim1(cx)


def test_complex_keeps_no_face_table():
    # the faces are streamed into the star counts, never stored: the
    # build and the checks cache only these tables, and the build's
    # allocation peak stays within 160 bytes per cell (a face table
    # alone takes about 85 at n = 8)
    cx = build_complex(7, catalog(7))
    built = [
        "_star_counts", "cell_rays", "compat_masks", "dim_ranges",
        "index", "n", "rays", "vertex_profiles",
    ]
    assert sorted(vars(cx)) == built
    _formula_mismatches(cx)
    main_theorem_report(cx, DEFAULT_SEED, 10)
    assert sorted(vars(cx)) == sorted(built + ["ray_by_mask"])
    cat = catalog(8)
    tracemalloc.start()
    try:
        build_complex(8, cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(cat.cell_rays) * 160


def test_face_maps_compose():
    cx = complex_for(6)
    top = list(cx.dim_ranges[3])
    for i in top[:40]:
        splits = cx.cells[i].splits
        for k in (1, 2, 3):
            for drop in itertools.combinations(splits, k):
                tgt, retained = face(cx, i, drop)
                assert len(cx.cell_rays[tgt]) == 3 - k
                # stepwise contraction reaches the same cell
                step = i
                for s in drop:
                    step, _ = face(cx, step, [s])
                assert step == tgt
                # retained splits are unchanged, only repositioned
                kept = [s for s in splits if s not in set(drop)]
                target_splits = cx.cells[tgt].splits
                for s in kept:
                    assert target_splits[retained[splits.index(s)]] == s


def test_bitmask_contractions_match_tree_contraction():
    # oracle: contract each edge of each cell's legged tree and compare
    # the canonical form with the face found by index removal
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        for i, faces in enumerate(cx.codim1):
            tree = cx.cells[i].to_tree()
            face_of = dict(zip((cx.rays[r] for r in cx.cell_rays[i]), faces))
            assert set(face_of) == set(tree_splits(tree))
            for e, s in enumerate(tree_splits(tree)):
                assert canonical_form(contract(tree, [e]).tree) == cx.cells[face_of[s]]
            assert len(set(face_of.values())) == len(faces)


def _with_ray(cx, side, mask_side):
    """``cx`` with the ray of ``side`` given the mask of ``mask_side``,
    unchecked, as a corrupted ray list would hold it."""
    split = object.__new__(Split)  # skips Split's own checks
    object.__setattr__(split, "n", cx.n)
    object.__setattr__(split, "mask", sum(1 << (i - 1) for i in mask_side))
    rays = list(cx.rays)
    rays[cx.ray_by_mask[Split.from_side(cx.n, side).mask]] = split
    return dataclasses.replace(cx, rays=tuple(rays))


def test_contraction_check_names_an_unstable_cell():
    # at n = 5, with the ray {2,3,4} a second copy of the split {2,3}, the
    # vertex below the last edge of {2,3} | {2,3,4} keeps no marking and
    # has valence 2
    with pytest.raises(AssertionError, match=r"^cell \{2,3\} \| \{2,3\} has an unstable vertex$"):
        check_contractions(_with_ray(complex_for(5), [2, 3, 4], [2, 3]))


def test_contraction_check_names_a_tree_that_misses_a_marking():
    # at n = 5, with the ray {2,3,4} given the side {1,2,3,4}, a clade
    # holds marking 1: the root, the vertex of marking 1, would miss it
    with pytest.raises(
        AssertionError, match=r"^the tree of cell \{2,3\} \| \{1,2,3,4\} misses a marking$"
    ):
        check_contractions(_with_ray(complex_for(5), [2, 3, 4], [1, 2, 3, 4]))


def test_contraction_check_names_a_marking_on_two_vertices():
    # at n = 5, the cell {2,3} | {2,3,4} listed as {2,3} | {2,4,5}: every
    # face is a cell, but the clades cross, so marking 2 would sit below
    # both edges
    cx = complex_for(5)
    ray = {s: r for r, s in enumerate(cx.rays)}
    r23, r234, r245 = (ray[Split.from_side(5, side)] for side in ([2, 3], [2, 3, 4], [2, 4, 5]))
    cells = list(cx.cell_rays)
    cells[cell_of(cx, (r23, r234))] = (r23, r245)
    broken = dataclasses.replace(cx, cell_rays=tuple(cells))
    with pytest.raises(
        AssertionError, match=r"^a marking of cell \{2,3\} \| \{2,4,5\} sits on two vertices$"
    ):
        check_contractions(broken)
    # two faults in one cell: the ray {2,3,4} given the side {1,2,4}
    # crosses {2,3} and also holds marking 1; the crossing is checked first
    with pytest.raises(
        AssertionError, match=r"^a marking of cell \{2,3\} \| \{1,2,4\} sits on two vertices$"
    ):
        check_contractions(_with_ray(cx, [2, 3, 4], [1, 2, 4]))


def _rays(cx, *sides):
    """The ray indices of the given marking-1-free sides."""
    return [cx.ray_by_mask[Split.from_side(cx.n, side).mask] for side in sides]


def test_contraction_check_names_a_cell_out_of_order():
    # at n = 5, the last 2-cell moved to the front of the 2-cells: the
    # walk reaches it from its prefix face, but then no longer reaches the
    # cells of the first ray's prefix; with the point listed after the
    # first ray, the walk cannot start
    cx = complex_for(5)
    two = list(cx.dim_ranges[2])
    cells = list(cx.cell_rays)
    cells[two[0]:] = [cells[two[-1]]] + cells[two[0]:two[-1]]
    with pytest.raises(AssertionError, match=r"^cell \{2,3\} \| \{4,5\} is listed out of order$"):
        check_contractions(dataclasses.replace(cx, cell_rays=tuple(cells)))
    cells = list(cx.cell_rays)
    cells[:2] = cells[1::-1]
    with pytest.raises(AssertionError, match=r"^cell \{2,3\} is listed out of order$"):
        check_contractions(dataclasses.replace(cx, cell_rays=tuple(cells)))
    # the 1-cell of ray {3,4,5} replaced by that ray repeated, placed
    # first among the 2-cells: its mask is one ray's, so its last face is
    # the point, and no ray's walk reaches it
    r345, = _rays(cx, [3, 4, 5])
    cells = list(cx.cell_rays)
    cells.remove((r345,))
    cells.insert(two[0] - 1, (r345, r345))
    with pytest.raises(
        AssertionError, match=r"^cell \{3,4,5\} \| \{3,4,5\} is listed out of order$"
    ):
        check_contractions(dataclasses.replace(cx, cell_rays=tuple(cells)))
    # the 2-cell {2,3} | {2,3,4} listed with its last ray repeated, in
    # place: its mask and last face are the 2-cell's, and the dimension
    # bisection counts it among the 2-cells, but the walk reaches only
    # tuples of the dimension's length
    r23, r234 = _rays(cx, [2, 3], [2, 3, 4])
    cells = list(cx.cell_rays)
    cells[cell_of(cx, (r23, r234))] = (r23, r234, r234)
    broken = dataclasses.replace(cx, cell_rays=tuple(cells))
    assert broken.f_vector() == [1, 10, 15]
    with pytest.raises(
        AssertionError, match=r"^cell \{2,3\} \| \{2,3,4\} \| \{2,3,4\} is listed out of order$"
    ):
        check_contractions(broken)


def test_build_complex_names_a_cell_whose_rays_are_out_of_order():
    # one top cell's ray tuple reversed: its mask and faces are still
    # right, but the walk follows tuple prefixes and names the first cell
    # it cannot reach
    for n, which, name in (
        (5, 0, r"\{2,3\} \| \{2,3,4\}"),
        (6, 0, r"\{2,3,6\} \| \{4,5\} \| \{2,3\}"),
        (6, -1, r"\{3,4,5,6\} \| \{4,5,6\} \| \{5,6\}"),
    ):
        cat = catalog(n)
        cells = list(cat.cell_rays)
        i = cat.dim_ranges[cat.max_dimension][which]
        cells[i] = cells[i][::-1]
        with pytest.raises(AssertionError, match=rf"^cell {name} is listed out of order$"):
            build_complex(n, dataclasses.replace(cat, cell_rays=tuple(cells)))


def test_contraction_check_names_a_face_that_is_no_cell():
    # at n = 6, with the 2-cell {2,3} | {2,3,4} left out, contracting edge
    # {5,6} of the first 3-cell holding it finds no cell
    cx = complex_for(6)
    ray = {s: r for r, s in enumerate(cx.rays)}
    cell = cell_of(cx, (ray[Split.from_side(6, [2, 3])], ray[Split.from_side(6, [2, 3, 4])]))
    broken = dataclasses.replace(cx, cell_rays=cx.cell_rays[:cell] + cx.cell_rays[cell + 1:])
    with pytest.raises(
        AssertionError,
        match=r"^contracting edge \{5,6\} of cell \{2,3\} \| \{5,6\} \| \{2,3,4\} gives no cell$",
    ):
        check_contractions(broken)


def test_contraction_check_names_a_cell_listed_twice():
    # at n = 5 the last maximal cell listed again: the index rejects the
    # second copy of its mask, so the face maps stay aligned with the cells
    cx = complex_for(5)
    broken = dataclasses.replace(cx, cell_rays=cx.cell_rays + cx.cell_rays[-1:])
    with pytest.raises(AssertionError, match=r"^cell \{4,5\} \| \{3,4,5\} is listed twice$"):
        check_contractions(broken)
    # the first ray listed twice in place
    cells = cx.cell_rays[:2] + cx.cell_rays[1:]
    with pytest.raises(AssertionError, match=r"^cell \{2,3\} is listed twice$"):
        check_contractions(dataclasses.replace(cx, cell_rays=cells))
    # the 2-cell {2,3} | {2,3,4} replaced by the ray {2,3} repeated: its
    # mask is the ray's
    r23, r234 = _rays(cx, [2, 3], [2, 3, 4])
    cells = list(cx.cell_rays)
    cells[cell_of(cx, (r23, r234))] = (r23, r23)
    with pytest.raises(AssertionError, match=r"^cell \{2,3\} \| \{2,3\} is listed twice$"):
        check_contractions(dataclasses.replace(cx, cell_rays=tuple(cells)))


def test_build_complex_names_a_cell_maximal_below_the_top_dimension():
    # at n = 5 without the top cells holding ray {2,3}: every face is still
    # a cell, but {2,3} is a face of no 2-cell, so the complex is not pure
    cat = catalog(5)
    top = cat.max_dimension
    cells = tuple(c for c in cat.cell_rays if len(c) < top or 0 not in c)
    with pytest.raises(
        AssertionError, match=r"^cell \{2,3\} is maximal below the top dimension$"
    ):
        build_complex(5, dataclasses.replace(cat, cell_rays=cells))


CONTRACTION_FAULT_ROWS = (
    test_contraction_check_names_an_unstable_cell,
    test_contraction_check_names_a_tree_that_misses_a_marking,
    test_contraction_check_names_a_marking_on_two_vertices,
    test_contraction_check_names_a_cell_out_of_order,
    test_build_complex_names_a_cell_whose_rays_are_out_of_order,
    test_contraction_check_names_a_face_that_is_no_cell,
    test_contraction_check_names_a_cell_listed_twice,
    test_build_complex_names_a_cell_maximal_below_the_top_dimension,
)


def test_every_contraction_check_raise_has_a_fault_row():
    # a raise no fault row reaches is either untested or cannot fire
    assert unreached_raises(cones, CONTRACTION_FAULT_ROWS) == []


def test_contraction_check_matches_the_per_edge_route():
    for n in (4, 5, 6, 7, 8):
        cx = complex_for(n)
        assert check_contractions(cx) == per_edge_contractions(cx)


def _verdict(check, cx):
    """``check``'s profiles for ``cx``, or its ``AssertionError`` message."""
    try:
        return check(cx)
    except AssertionError as exc:
        return str(exc)


def test_contraction_check_rejects_every_fault_the_per_edge_route_rejects():
    # one fault at a time, in a copy holding one cell and its faces: for
    # every cell, one of its rays swapped in the ray list with a random
    # other ray, and for every edge, the copy without that edge's face.
    # The new check rejects every fault the per-edge route rejects, and
    # where it accepts one, both give the same profiles
    rng = random.Random(17)
    verdicts = Counter()
    for n in (5, 6):
        cx = complex_for(n)
        for i, cell in enumerate(cx.cell_rays[1:], 1):
            closure = tuple(
                sub for k in range(len(cell) + 1) for sub in itertools.combinations(cell, k)
            )
            view = dataclasses.replace(cx, cell_rays=closure)
            rays = list(cx.rays)
            a = rng.choice(cell)
            b = rng.randrange(len(rays) - 1)
            b += b >= a
            rays[a], rays[b] = rays[b], rays[a]
            swapped = dataclasses.replace(view, rays=tuple(rays))
            new, old = _verdict(check_contractions, swapped), _verdict(per_edge_contractions, swapped)
            where = (n, cx.cell_name(i), a, b)
            if isinstance(new, tuple):  # a swap that leaves a stable tree
                assert new == old, where
                verdicts["both accept"] += 1
            elif isinstance(old, tuple):
                # only crossing clades escape the per-edge route
                assert new.endswith(" sits on two vertices"), (where, new)
                verdicts["new rejects"] += 1
            else:
                verdicts["both reject"] += 1
            for e in range(len(cell)):
                face = cell[:e] + cell[e + 1:]
                faulted = dataclasses.replace(view, cell_rays=tuple(c for c in closure if c != face))
                new = _verdict(check_contractions, faulted)
                old = _verdict(per_edge_contractions, faulted)
                assert new == old, (n, cx.cell_name(i), e, new, old)
                assert new.startswith(f"contracting edge {cx.ray_name(cell[e])} of cell ")
                assert new.endswith(" gives no cell")
                verdicts["no face"] += 1
    assert sum(verdicts.values()) == 850  # 260 swaps, 590 removed faces
    assert verdicts == {"both accept": 73, "new rejects": 187, "no face": 590}


def test_build_complex_walks_each_clade_tree_once(monkeypatch):
    walks = count_calls(monkeypatch, cones, "check_contractions", lambda cx: cx.n)
    cx = build_complex(6)
    assert walks == {6: 1}
    # the profiles were recorded by that walk; equal ones are one tuple
    profiles = cx.vertex_profiles
    assert walks == {6: 1}
    assert len(profiles) == len(cx.cell_rays)
    assert len({id(p) for p in profiles}) == len(set(profiles))


def test_build_complex_shares_the_catalog_tables():
    # the complex is the catalog with its face structure: no table is copied
    for n in (4, 6, 8):
        cat = catalog(n)
        cx = build_complex(n, cat)
        assert cx.cell_rays is cat.cell_rays
        assert cx.rays is cat.rays
        assert cx.compat_masks is cat.compat_masks


def test_build_complex_rejects_a_catalog_of_another_n(monkeypatch):
    # n = 5's 10 rays would otherwise pass as a complex labelled n = 6
    walks = count_calls(monkeypatch, cones, "check_contractions", lambda cx: cx.n)
    with pytest.raises(ValueError, match=r"n=6.*n=5"):
        build_complex(6, catalog(5))
    assert walks == {}


def test_build_complex_builds_no_tree_objects(monkeypatch):
    built = count_tree_objects(monkeypatch)
    cx = build_complex(7)
    assert built == {}
    # the counters do see the forms once they are asked for
    assert len(cx.cells) == 2752
    assert built == {"CanonicalForm": 2752}


def test_vertex_profiles_past_the_per_edge_route_are_pinned():
    # the per-edge route is too slow past n = 7, so digests pin the
    # profiles there
    for n, distinct, digest in (
        (7, 13, "ca1831a58f6a287a298c90a2938fba8c77ed3ca1b1f2b238d4b632e6c471a5e3"),
        (8, 28, "555ed0cafb4328f545b8abd829c91b141bb687504fb6f67ac9387c9ce1279f0e"),
    ):
        profiles = complex_for(n).vertex_profiles
        assert len(set(profiles)) == distinct
        assert hashlib.sha256(repr(profiles).encode()).hexdigest() == digest


def test_unique_minimum():
    for n in (4, 5, 6):
        cx = complex_for(n)
        assert cx.cell_rays[0] == ()
        assert all(cx.cell_rays[1:])


def test_maximal_cell_count_matches_double_factorial():
    from tropmoduli.enumeration import count_maximal

    for n in (4, 5, 6):
        cx = complex_for(n)
        assert len(cx.dim_ranges[cx.max_dimension]) == count_maximal(n)


def test_flag_property():
    # cliques of the compatibility graph correspond to cells, dimension
    # = clique size, exhaustively for n <= 6
    for n in (4, 5, 6):
        cx = complex_for(n)
        rays = range(len(cx.rays))
        cells_as_sets = {frozenset(c) for c in cx.cell_rays}
        masks = cx.compat_masks

        cliques = [frozenset()]
        stack = [(frozenset(), list(rays))]
        while stack:
            clique, candidates = stack.pop()
            for pos, r in enumerate(candidates):
                bigger = clique | {r}
                cliques.append(bigger)
                stack.append(
                    (bigger, [w for w in candidates[pos + 1:] if masks[r] >> w & 1])
                )
        assert set(cliques) == cells_as_sets
        assert len(cliques) == len(cx.cells)


def test_star_counts_n4():
    cx = complex_for(4)
    assert star_count(cx, 0) == 3
    for i in cx.dim_ranges[1]:
        assert star_count(cx, i) == 0


def test_star_counts_n5_rays():
    # every ray of the 5-marking space has a side of size 2 (one part of
    # the bipartition), and its star holds 3 maximal cells
    cx = complex_for(5)
    for i in cx.dim_ranges[1]:
        assert star_count(cx, i) == 3


def test_star_count_rejects_bad_index():
    with pytest.raises(ValueError):
        star_count(complex_for(4), 99)


def test_every_cell_star_equals_coface_scan():
    # independent recount: subset containment instead of face maps
    cx = complex_for(5)
    sets = [frozenset(c) for c in cx.cell_rays]
    for i in range(len(cx.cells)):
        direct = sum(
            1
            for j in range(len(cx.cells))
            if len(sets[j]) == len(sets[i]) + 1 and sets[i] < sets[j]
        )
        assert star_count(cx, i) == direct


def test_compat_graph_matches_pairwise_compatibility():
    cx = complex_for(6)
    for a in range(len(cx.rays)):
        for b in range(a + 1, len(cx.rays)):
            expected = splits_compatible(cx.rays[a], cx.rays[b])
            assert bool(cx.compat_masks[a] >> b & 1) == expected


def test_json_export_shape():
    cx = complex_for(4)
    obj = cx.to_json_obj()
    assert obj["n"] == 4
    assert obj["f_vector"] == [1, 3]
    assert len(obj["cells"]) == 4
    assert obj["cells"][1]["splits"] == [[2, 3]]
    faces = obj["faces"]["1"]
    assert faces == [{"drop": [2, 3], "target": 0, "retained": []}]
    json.dumps(obj)


def test_dot_exports():
    cx = complex_for(4)
    hasse = cx.to_dot("hasse")
    assert hasse.startswith("digraph hasse {")
    assert hasse.count("->") == 3
    compat = cx.to_dot("compat")
    assert compat.startswith("graph compat {")
    assert "--" not in compat  # no compatible pairs at n=4
    compat5 = complex_for(5).to_dot("compat")
    assert compat5.count("--") == 15
    with pytest.raises(ValueError):
        cx.to_dot("nope")


def test_build_rejects_envelope():
    from tropmoduli.enumeration import ENVELOPE_MAX_N, EnvelopeError

    with pytest.raises(EnvelopeError):
        build_complex(ENVELOPE_MAX_N + 1)
