"""The benchmark's workloads.

Each workload has a timed operation, an oracle check of that
operation's output, and a traced replay.  The replay makes the same
calls into the layers' public functions, with the same arguments and in
the same order as the CLI path, and wraps each call in a span.  The
library itself is not instrumented.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Callable

from tropmoduli import cli
from tropmoduli.automorphisms import (
    POSET_MAX_N,
    ComplexAutomorphism,
    ReconstructionError,
    aut_via_poset,
    graph_automorphism_group,
    marking_ray_permutation,
    reconstruct_sigma,
    sn_image_group,
    sn_kernel,
)
from tropmoduli.cones import build_complex, star_count
from tropmoduli.counting import expansion_count_formula, lemma_power_sweep
from tropmoduli.enumeration import count_maximal, enumerate_strata, expansions
from tropmoduli.genus2 import aut_m2, bridge_loop_swap_violation, build_m2_complex
from tropmoduli.groups import format_cycles

import oracles
from spans import Tracer, calls, self_times_ns, top_level_ns

BATTERY_MAX_N = 6
AUT_N = 7
LEMMA_BOUND = 20  # the bound `report` sweeps
KLEIN = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]


# ---------------------------------------------------------------------------
# timed operations and their oracle checks


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process, from argv to JSON written."""
    out = io.StringIO()
    code = cli.run(argv, stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def _cli_payload(result: tuple[int, str], problems: list[str]) -> dict:
    code, text = result
    if code != 0:
        problems.append(f"exit status {code}")
    report = json.loads(text)
    if report["verdict"] != "PASS":
        problems.append(f"verdict {report['verdict']}")
    return report["payload"]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_battery(result: tuple[int, str]) -> list[str]:
    problems: list[str] = []
    checks = {c["name"]: c for c in _cli_payload(result, problems)["checks"]}
    expected = (
        [f"enumeration n={n}" for n in range(3, BATTERY_MAX_N + 1)]
        + [f"counting formula n={n}" for n in range(4, BATTERY_MAX_N + 1)]
        + [f"lemma sweep bound={LEMMA_BOUND}"]
        + [f"aut n={n}" for n in range(4, BATTERY_MAX_N + 1)]
        + ["klein kernel n=4", "genus2"]
    )
    _expect(problems, "battery checks", sorted(checks), sorted(expected))
    for name, check in checks.items():
        _expect(problems, f"{name} verdict", check["verdict"], "PASS")
    for n in range(3, BATTERY_MAX_N + 1):
        fv = checks.get(f"enumeration n={n}", {}).get("f_vector")
        _expect(problems, f"f-vector n={n}", fv, oracles.f_vector(n))
        _expect(problems, f"maximal cells n={n}", fv and fv[-1], oracles.count_maximal(n))
    for n in range(4, BATTERY_MAX_N + 1):
        check = checks.get(f"counting formula n={n}", {})
        _expect(problems, f"formula mismatches n={n}", check.get("mismatches"), 0)
        check = checks.get(f"aut n={n}", {})
        _expect(problems, f"|Aut| n={n}", check.get("order"), oracles.aut_order(n))
    return problems


def check_aut(result: tuple[int, str]) -> list[str]:
    problems: list[str] = []
    payload = _cli_payload(result, problems)
    _expect(problems, "|Aut|", payload["order"], oracles.aut_order(AUT_N))
    _expect(problems, "expected |Aut|", payload["expected"], oracles.aut_order(AUT_N))
    _expect(problems, "rays", len(payload["rays"]), oracles.count_rays(AUT_N))
    _expect(problems, "reconstruction_ok", payload["reconstruction_ok"], True)
    markings = list(range(1, AUT_N + 1))
    for sigma in payload["sigma_of_generator"]:
        _expect(problems, "reconstructed sigma", sorted(sigma or []), markings)
    return problems


# ---------------------------------------------------------------------------
# traced replay


class Replay:
    """Wraps each call into a layer in a span and counts its work."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.catalogs = []

    def enumerate_strata(self, n):
        with self.tr.span("enumeration.enumerate_strata"):
            catalog = enumerate_strata(n)
        self.tr.count("enumeration.strata", catalog.total())
        self.catalogs.append(catalog)
        return catalog

    def to_tree(self, form):
        with self.tr.span("trees.to_tree"):
            return form.to_tree()

    def expansions(self, tree):
        with self.tr.span("enumeration.expansions"):
            children = expansions(tree)
        self.tr.count("enumeration.expansion_children", len(children))
        return children

    def formula(self, tree):
        with self.tr.span("counting.formula"):
            return expansion_count_formula(tree)

    def build_complex(self, n, catalog):
        with self.tr.span("cones.build_complex"):
            cx = build_complex(n, catalog)
        self.tr.count("cones.codim1_faces", sum(map(len, cx.codim1)))
        return cx

    def compat_masks(self, cx):
        with self.tr.span("cones.compat_masks"):
            masks = cx.compat_masks
        self.tr.count("cones.rays", len(cx.rays))
        return masks

    def star_count(self, cx, i):
        with self.tr.span("cones.star_count"):
            return star_count(cx, i)

    def order(self, group):
        with self.tr.span("groups.order"):
            return group.order()

    def equals(self, a, b):
        with self.tr.span("groups.equals"):
            return a.equals(b)

    def aut_via_compat_graph(self, cx):
        """automorphisms.aut_via_compat_graph, one call at a time."""
        self.compat_masks(cx)
        neighbors = cx.compat_neighbors()
        with self.tr.span("automorphisms.graph_search"):
            group = graph_automorphism_group(neighbors)
        self.tr.count("automorphisms.generators", len(group.generators))
        for g in group.generators:
            with self.tr.span("automorphisms.cell_map"):
                ComplexAutomorphism(cx, g).cell_map
        return group

    def aut_via_poset(self, cx):
        with self.tr.span("automorphisms.poset_search"):
            group = aut_via_poset(cx)
        self.tr.count("automorphisms.poset_generators", len(group.generators))
        return group

    def reconstruct(self, cx, perm):
        """The inducing marking permutation, or None when reconstruction
        fails."""
        with self.tr.span("automorphisms.reconstruct"):
            try:
                return reconstruct_sigma(ComplexAutomorphism(cx, perm))
            except ReconstructionError:
                return None

    def surjectivity(self, cx, group, samples, seed):
        """automorphisms.verify_sn_surjectivity, one call at a time."""
        ok = True
        with self.tr.span("automorphisms.surjectivity"):
            for g in group.generators:
                sigma = self.reconstruct(cx, g)
                ok &= sigma is not None and marking_ray_permutation(cx, sigma) == g
            with self.tr.span("groups.random_elements"):
                sample = group.random_elements(samples, seed)
            for p in sample:
                sigma = self.reconstruct(cx, p)
                ok &= sigma is not None and marking_ray_permutation(cx, sigma) == p
        return ok

    def verify_main_theorem(self, n, seed, samples):
        """automorphisms.verify_main_theorem, one call at a time; True on
        PASS."""
        with self.tr.span("automorphisms.verify_main_theorem"):
            cx = self.build_complex(n, self.enumerate_strata(n))
            group = self.aut_via_compat_graph(cx)
            checks = [self.order(group) == oracles.aut_order(n)]
            # the report fields the library builds here
            [list(s.side()) for s in cx.rays]
            [format_cycles(g) for g in group.generators]
            if n <= POSET_MAX_N:
                poset_group = self.aut_via_poset(cx)
                checks.append(self.equals(group, poset_group))
                self.order(poset_group)
            if n >= 5:
                for g in group.generators:
                    checks.append(self.reconstruct(cx, g) is not None)
                if samples:
                    checks.append(self.surjectivity(cx, group, samples, seed))
            else:
                checks.append(self.equals(group, sn_image_group(cx)))
                with self.tr.span("automorphisms.sn_kernel"):
                    kernel = sorted(sn_kernel(cx))
                checks.append(kernel == KLEIN)
        return all(checks)

    def genus2(self):
        """cli._cmd_genus2; True on PASS."""
        with self.tr.span("genus2.build"):
            cx = build_m2_complex()
        with self.tr.span("genus2.aut_m2"):
            result = aut_m2(cx)
        self.tr.count("genus2.candidates", result.candidates)
        self.tr.count("genus2.valid", result.valid)
        with self.tr.span("genus2.swap_violation"):
            witness = bridge_loop_swap_violation(cx)
        theta = cx.cells[cx.cell_index("theta")]
        return (
            result.group.order() == 1
            and result.classes == 1
            and theta.edge_group.order() == 6
            and {witness.face, witness.image_face} == {"figure_eight", "lollipop"}
        )


def replay_battery(r: Replay, seed: int) -> bool:
    """cli._battery at max_n 6, where every n is within POSET_MAX_N."""
    ok = True
    for n in range(3, BATTERY_MAX_N + 1):
        fv = r.enumerate_strata(n).f_vector()
        ok &= fv[-1] == count_maximal(n)
    for n in range(4, BATTERY_MAX_N + 1):
        catalog = r.enumerate_strata(n)
        for form in catalog.all_forms():
            ok &= r.formula(r.to_tree(form)) == len(r.expansions(r.to_tree(form)))
        cx = r.build_complex(n, catalog)
        for i, form in enumerate(cx.cells):
            ok &= r.star_count(cx, i) == r.formula(r.to_tree(form))
    with r.tr.span("counting.lemma_sweep"):
        checked, violations = lemma_power_sweep(LEMMA_BOUND)
    r.tr.count("counting.lemma_pairs", checked)
    ok &= not violations
    for n in range(4, BATTERY_MAX_N + 1):
        ok &= r.verify_main_theorem(n, seed, 100 if n in (5, 6) else 0)
    ok &= r.genus2()
    return ok


def replay_aut(r: Replay, seed: int) -> bool:
    return r.verify_main_theorem(AUT_N, seed, 0)


# ---------------------------------------------------------------------------
# the workload table


@dataclass(frozen=True)
class Workload:
    run: Callable[[int], object]
    check: Callable[[object], list[str]]
    replay: Callable[[Replay, int], bool]


WORKLOADS = {
    "battery-n6": Workload(
        lambda seed: _run_cli(["report", "--max-n", str(BATTERY_MAX_N), "--seed", str(seed)]),
        check_battery,
        replay_battery,
    ),
    "aut-n7": Workload(
        lambda seed: _run_cli(["aut", "--n", str(AUT_N), "--method", "graph", "--seed", str(seed)]),
        check_aut,
        replay_aut,
    ),
}


# ---------------------------------------------------------------------------
# per-layer metrics

TIMED_SPANS = (
    "enumeration.enumerate_strata",
    "enumeration.expansions",
    "trees.to_tree",
    "cones.build_complex",
    "cones.compat_masks",
    "cones.star_count",
    "automorphisms.graph_search",
    "automorphisms.cell_map",
    "automorphisms.reconstruct",
    "automorphisms.poset_search",
    "automorphisms.surjectivity",
    "automorphisms.sn_kernel",
    "groups.equals",
    "groups.order",
    "groups.random_elements",
    "counting.formula",
    "counting.lemma_sweep",
    "genus2.build",
    "genus2.aut_m2",
)
COUNTED_SPANS = (
    "trees.to_tree",
    "automorphisms.cell_map",
    "automorphisms.reconstruct",
    "counting.formula",
)
COUNTERS = (
    "enumeration.strata",
    "enumeration.expansion_children",
    "cones.codim1_faces",
    "cones.rays",
    "automorphisms.generators",
    "automorphisms.poset_generators",
    "counting.lemma_pairs",
    "genus2.candidates",
)


def _dedup_terms(catalog) -> tuple[int, int]:
    """(strata of dimension m+1, sum of expansion_count_formula over the
    strata of dimension m), summed over m: what the expansion enumerator
    keeps against what it generates."""
    dims = sorted(catalog.by_dimension)
    kept = sum(len(catalog.by_dimension[m]) for m in dims[1:])
    generated = sum(
        expansion_count_formula(form.to_tree())
        for m in dims[:-1]
        for form in catalog.by_dimension[m]
    )
    return kept, generated


def layer_metrics(replay: Replay, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); layers the workload does
    not reach read 0."""
    spans = replay.tr.spans
    self_ns = self_times_ns(spans)
    n_calls = calls(spans)
    counts = replay.tr.counts
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = (self_ns[name] / 1e9, "s")
    for name in COUNTED_SPANS:
        out[f"{name}_calls"] = (n_calls[name], "count")
    for name in COUNTERS:
        out[name] = (counts[name], "count")
    terms = {}
    for catalog in replay.catalogs:
        if catalog.n not in terms:
            terms[catalog.n] = _dedup_terms(catalog)
    kept = sum(terms[c.n][0] for c in replay.catalogs)
    generated = sum(terms[c.n][1] for c in replay.catalogs)
    out["enumeration.dedup_ratio"] = (kept / generated if generated else 0.0, "ratio")
    candidates = counts["genus2.candidates"]
    out["genus2.valid_ratio"] = (counts["genus2.valid"] / candidates if candidates else 0.0, "ratio")
    out["trace.unaccounted_s"] = (untraced_wall_s - top_level_ns(spans) / 1e9, "s")
    return out
