"""Cone complex: structure at small n, the flag property, face-map
consistency, the contraction check, star counts, and exports."""

import ast
import dataclasses
import inspect
import itertools
import json
import random
import sys

import pytest

from tropmoduli import Split, build_complex, splits_compatible, star_count
from tropmoduli import cones
from tropmoduli.cones import check_contractions
from shared import cell_of, complex_for, count_calls, count_tree_objects, ray_mask
from tree_oracles import contract, face, per_edge_contractions, tuple_codim1


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
        keys = [(cx.dims[i], cx.cells[i].sort_key()) for i in range(len(cx.cells))]
        assert keys == sorted(keys)


def test_face_relation_is_graded():
    for n in (4, 5, 6):
        cx = complex_for(n)
        for i, faces in enumerate(cx.codim1):
            assert len(faces) == cx.dims[i]
            for tgt in faces:
                assert cx.dims[tgt] == cx.dims[i] - 1
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
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        assert cx.codim1 == tuple_codim1(cx)


def test_face_maps_compose():
    cx = complex_for(6)
    top = list(cx.dim_ranges[3])
    for i in top[:40]:
        splits = cx.cells[i].splits
        for k in (1, 2, 3):
            for drop in itertools.combinations(splits, k):
                tgt, retained = face(cx, i, drop)
                assert cx.dims[tgt] == 3 - k
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
            assert set(face_of) == set(tree.splits)
            for e, s in enumerate(tree.splits):
                assert contract(tree, [e]).tree.canonical_form == cx.cells[face_of[s]]
            assert len(set(face_of.values())) == len(faces)


def test_contraction_check_names_a_wrong_face():
    # at n = 6 the cell {2,3} | {2,3,4} loses edge {2,3,4} to the ray
    # {2,3}; pointing that face at the ray {2,4} must fail
    cx = complex_for(6)
    ray = {s: r for r, s in enumerate(cx.rays)}
    r23, r234, r24 = (ray[Split.from_side(6, side)] for side in ([2, 3], [2, 3, 4], [2, 4]))
    cell = cell_of(cx, (r23, r234))
    faces = list(cx.codim1)
    assert faces[cell][1] == cell_of(cx, (r23,))
    faces[cell] = (faces[cell][0], cell_of(cx, (r24,)))
    broken = dataclasses.replace(cx)
    broken.__dict__["codim1"] = tuple(faces)
    with pytest.raises(AssertionError, match=r"edge \{2,3,4\} of cell \{2,3\} \| \{2,3,4\} "):
        check_contractions(broken)
    check_contractions(cx)


def _patched_tree(monkeypatch, cell, vertex, legs):
    """Let ``_clade_trees`` give one cell's vertex other own legs."""
    trees = cones._clade_trees

    def patched(cx):
        for i, (parent, own) in enumerate(trees(cx)):
            if i == cell:
                own = own[:vertex] + [legs] + own[vertex + 1:]
            yield parent, own

    monkeypatch.setattr(cones, "_clade_trees", patched)


def test_contraction_check_names_an_unstable_cell(monkeypatch):
    # at n = 5 the vertex below edge {2,3} keeps markings 2 and 3; with
    # marking 2 alone it has valence + legs = 2
    cx = complex_for(5)
    ray = {s: r for r, s in enumerate(cx.rays)}
    cell = cell_of(cx, (ray[Split.from_side(5, [2, 3])],))
    marking_2 = 1 << 1
    _patched_tree(monkeypatch, cell, 0, marking_2)
    with pytest.raises(AssertionError, match=r"^cell \{2,3\} has an unstable vertex$"):
        check_contractions(cx)


def test_contraction_check_names_a_clade_that_is_no_ray(monkeypatch):
    # at n = 5, give the vertex below edge {2,3,4} of the cell
    # {2,3} | {2,3,4} marking 1 besides marking 4: every vertex stays
    # stable, but the clades recomputed bottom-up give edge {2,3,4} the
    # clade {1,2,3,4}, which holds marking 1 and so is no ray
    cx = complex_for(5)
    ray = {s: r for r, s in enumerate(cx.rays)}
    r23, r234 = (ray[Split.from_side(5, side)] for side in ([2, 3], [2, 3, 4]))
    cell = cell_of(cx, (r23, r234))
    marking_1, marking_4 = 1 << 0, 1 << 3
    _patched_tree(monkeypatch, cell, 1, marking_1 | marking_4)
    with pytest.raises(
        AssertionError,
        match=r"^contracting edge \{2,3,4\} of cell \{2,3\} \| \{2,3,4\} disagrees with split removal$",
    ):
        check_contractions(cx)


def test_contraction_check_names_two_equal_faces(monkeypatch):
    # at n = 5, give the vertex below edge {2,3} of the cell
    # {2,3} | {2,3,4} the legs 2, 3, 4: both contractions then recompute
    # the clade {2,3,4}, and with both faces pointing at that ray every
    # face agrees with its contraction, but the two faces coincide
    cx = complex_for(5)
    ray = {s: r for r, s in enumerate(cx.rays)}
    r23, r234 = (ray[Split.from_side(5, side)] for side in ([2, 3], [2, 3, 4]))
    cell = cell_of(cx, (r23, r234))
    faces = list(cx.codim1)
    faces[cell] = (faces[cell][0], faces[cell][0])
    broken = dataclasses.replace(cx)
    broken.__dict__["codim1"] = tuple(faces)
    _patched_tree(monkeypatch, cell, 0, cx.rays[r234].mask)
    with pytest.raises(AssertionError, match=r"contractions of cell \{2,3\} \| \{2,3,4\} hit the same face"):
        check_contractions(broken)


def test_contraction_check_names_a_tree_that_misses_a_marking(monkeypatch):
    # at n = 5 the root of the cell {2,3} keeps markings 1, 4 and 5; on
    # markings 4 and 5 alone it is still stable, but marking 1 is then on
    # no vertex
    cx = complex_for(5)
    ray = {s: r for r, s in enumerate(cx.rays)}
    cell = cell_of(cx, (ray[Split.from_side(5, [2, 3])],))
    marking_4, marking_5 = 1 << 3, 1 << 4
    _patched_tree(monkeypatch, cell, 1, marking_4 | marking_5)
    with pytest.raises(AssertionError, match=r"^the tree of cell \{2,3\} misses a marking$"):
        check_contractions(cx)


def test_contraction_check_names_a_one_ray_clade_that_is_no_ray(monkeypatch):
    # at n = 5, give the vertex below edge {2,3} of the cell {2,3} the
    # legs 1, 2, 3: it stays stable and the root still sees every
    # marking, but the edge's clade {1,2,3} is no ray
    cx = complex_for(5)
    ray = {s: r for r, s in enumerate(cx.rays)}
    cell = cell_of(cx, (ray[Split.from_side(5, [2, 3])],))
    _patched_tree(monkeypatch, cell, 0, 0b111)
    with pytest.raises(
        AssertionError,
        match=r"^contracting edge \{2,3\} of cell \{2,3\} disagrees with split removal$",
    ):
        check_contractions(cx)


def test_contraction_check_names_a_marking_on_two_vertices(monkeypatch):
    # at n = 5, give the root of the cell {2,3} marking 2 besides its
    # markings 1, 4 and 5: every clade and every face is unchanged, but
    # marking 2 then sits on two vertices
    cx = complex_for(5)
    ray = {s: r for r, s in enumerate(cx.rays)}
    cell = cell_of(cx, (ray[Split.from_side(5, [2, 3])],))
    _patched_tree(monkeypatch, cell, 1, 0b11011)
    with pytest.raises(AssertionError, match=r"^a marking of cell \{2,3\} sits on two vertices$"):
        check_contractions(cx)


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
    # at n = 5 the last maximal cell listed again: the index keys one
    # cell fewer than there are, so the face maps would be misaligned
    cx = complex_for(5)
    broken = dataclasses.replace(cx, cell_rays=cx.cell_rays + cx.cell_rays[-1:])
    with pytest.raises(AssertionError, match=r"^cell \{4,5\} \| \{3,4,5\} is listed twice$"):
        check_contractions(broken)


CONTRACTION_FAULT_ROWS = (
    test_contraction_check_names_a_wrong_face,
    test_contraction_check_names_an_unstable_cell,
    test_contraction_check_names_a_clade_that_is_no_ray,
    test_contraction_check_names_two_equal_faces,
    test_contraction_check_names_a_tree_that_misses_a_marking,
    test_contraction_check_names_a_one_ray_clade_that_is_no_ray,
    test_contraction_check_names_a_marking_on_two_vertices,
    test_contraction_check_names_a_face_that_is_no_cell,
    test_contraction_check_names_a_cell_listed_twice,
)


def _assertion_lines(row) -> set[int]:
    """The lines of ``cones.py`` at which running ``row`` raises an
    ``AssertionError``."""
    lines = set()

    def local(frame, event, arg):
        if event == "exception" and arg[0] is AssertionError:
            lines.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == cones.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        with pytest.MonkeyPatch.context() as mp:
            row(mp) if inspect.signature(row).parameters else row()
    except (AssertionError, pytest.fail.Exception):
        pass  # the row's own test reports how it fails
    finally:
        sys.settrace(previous)
    return lines


def test_every_contraction_check_raise_has_a_fault_row():
    # a raise no fault row reaches is either untested or cannot fire
    with open(cones.__file__) as f:
        tree = ast.parse(f.read())
    raises = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "AssertionError"
    ]
    assert raises
    reached = set().union(*map(_assertion_lines, CONTRACTION_FAULT_ROWS))
    for node in raises:
        assert any(node.lineno <= line <= node.end_lineno for line in reached), (
            f"no fault row reaches cones.py line {node.lineno}: {ast.unparse(node)}"
        )


def test_contraction_check_matches_the_per_edge_route():
    for n in (4, 5, 6, 7):
        cx = complex_for(n)
        assert check_contractions(cx) == per_edge_contractions(cx)


def _verdict(check, cx):
    """``check``'s profiles for ``cx``, or its ``AssertionError`` message."""
    try:
        return check(cx)
    except AssertionError as exc:
        return str(exc)


def test_contraction_check_rejects_every_fault_the_per_edge_route_rejects(monkeypatch):
    # one fault at a time: 6 random own-leg masks for every vertex of
    # every cell, and one random wrong face for every edge.  Cell i is
    # moved to the front of a copy of the complex, and the patched clade
    # trees give that cell alone, so each check reads only the fault.
    # The new route rejects every fault
    rng = random.Random(17)
    true_trees = {n: list(cones._clade_trees(complex_for(n))) for n in (5, 6)}
    tree = []
    monkeypatch.setattr(cones, "_clade_trees", lambda cx: iter(tree))
    new_only, checked = set(), 0
    for n, trees in true_trees.items():
        cx = complex_for(n)
        for i, (parent, own) in enumerate(trees):
            rest = cx.cell_rays[:i] + cx.cell_rays[i + 1:]
            view = dataclasses.replace(cx, cell_rays=(cx.cell_rays[i],) + rest)
            faults = []
            for v, legs in enumerate(own):
                for _ in range(6):
                    wrong = rng.randrange((1 << n) - 1)
                    wrong += wrong >= legs
                    faults.append((("vertex", v), view, own[:v] + [wrong] + own[v + 1:]))
            for e, tgt in enumerate(view.codim1[0]):
                wrong = rng.randrange(len(cx.cell_rays) - 1)
                wrong += wrong >= tgt
                faces = list(view.codim1[0])
                faces[e] = wrong
                broken = dataclasses.replace(view)
                broken.__dict__["codim1"] = (tuple(faces),)
                faults.append((("edge", e), broken, own))
            for where, faulted, legs in faults:
                tree[:] = [(parent, legs)]
                checked += 1
                new = _verdict(check_contractions, faulted)
                old = _verdict(per_edge_contractions, faulted)
                assert isinstance(new, str), (n, cx.cell_name(i), where)  # rejects every fault
                if isinstance(old, tuple):
                    # only a marking on two vertices, or a fault at the root
                    # or in a one-ray cell, escapes the per-edge route
                    at_root = where == ("vertex", len(parent))
                    if new.endswith("sits on two vertices"):
                        new_only.add("two vertices")
                    else:
                        assert at_root or len(parent) == 1, (n, cx.cell_name(i), where, new)
                        new_only.add("root" if at_root else "one ray")
    assert checked == 5702
    assert new_only == {"root", "one ray", "two vertices"}


def test_build_complex_walks_each_clade_tree_once(monkeypatch):
    walks = count_calls(monkeypatch, cones, "_clade_trees", lambda cx: cx.n)
    cx = build_complex(6)
    assert walks == {6: 1}
    # the profiles were recorded by that walk; equal ones are one tuple
    profiles = cx.vertex_profiles
    assert walks == {6: 1}
    assert len(profiles) == len(cx.cell_rays)
    assert len({id(p) for p in profiles}) == len(set(profiles))


def test_build_complex_builds_no_tree_objects(monkeypatch):
    built = count_tree_objects(monkeypatch)
    cx = build_complex(7)
    assert built == {}
    # the counters do see the forms once they are asked for
    assert len(cx.cells) == 2752
    assert built == {"CanonicalForm": 2752}


def test_unique_minimum():
    for n in (4, 5, 6):
        cx = complex_for(n)
        assert cx.dims[0] == 0
        assert all(d > 0 for d in cx.dims[1:])


def test_maximal_cell_count_matches_double_factorial():
    from tropmoduli import count_maximal

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
        for s, d in zip(cx.cell_rays, cx.dims):
            assert len(s) == d


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
            if cx.dims[j] == cx.dims[i] + 1 and sets[i] < sets[j]
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
    from tropmoduli import EnvelopeError

    with pytest.raises(EnvelopeError):
        build_complex(9)
