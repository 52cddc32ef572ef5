"""Command-line interface.

Subcommands: `enumerate` (stratum catalog), `complex` (poset/graph
export), `aut` (automorphism groups and the symmetric-group comparison),
`count` (closed-form checks), `genus2` (the genus-2 fixture), and
`report` (the whole verification battery).  Machine-readable JSON goes
to stdout, progress to stderr; exit status 0 on PASS, 1 on FAIL (a
failed internal check prints one ``check failed:`` line and no JSON), 2
on usage errors, 3 on resource-envelope violations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .automorphisms import (
    DEFAULT_SEED,
    VERIFY_MIN_N,
    aut_via_compat_graph,
    aut_via_poset,
    expected_order,
    main_theorem_report,
)
from .cones import build_complex, star_count, vertex_profiles
from .counting import brute_force_partition_count, lemma_power_sweep, per_vertex_partition_count
from .enumeration import (
    ENVELOPE_MAX_N,
    EnvelopeError,
    count_f_vector,
    count_maximal,
    enumerate_strata,
)
from .genus2 import aut_m2, bridge_loop_swap_violation, build_m2_complex
from .groups import format_cycles

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ENVELOPE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropmoduli",
        description="moduli of stable genus-0 tropical curves: enumeration, "
        "cone complex, automorphisms, counting checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="catalog of strata by dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("complex", help="face poset and compatibility graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", choices=("hasse", "compat"), default=None)

    p = sub.add_parser("aut", help="automorphism group of the complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("graph", "poset", "both"), default="graph")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("count", help="closed-form counting checks")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--check", choices=("formula", "lemma"), required=True)
    p.add_argument("--bound", type=int, default=20)

    sub.add_parser("genus2", help="verify the 7-cell genus-2 fixture")

    p = sub.add_parser("report", help="full verification battery")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _cmd_enumerate(args) -> tuple[str | None, dict, str | None]:
    catalog = enumerate_strata(args.n)
    dims = sorted(catalog.cell_rays)
    if args.dim is not None:
        if args.dim not in catalog.cell_rays:
            raise ValueError(f"no strata of dimension {args.dim} for n={args.n}")
        dims = [args.dim]
    sides = [list(s.side()) for s in catalog.rays]
    if args.format == "csv":
        names = [" ".join(map(str, side)) for side in sides]
        lines = ["dim,splits"]
        for d in dims:
            lines.extend(f"{d}," + "|".join(names[r] for r in c) for c in catalog.cell_rays[d])
        return None, {}, "\n".join(lines) + "\n"
    payload = {
        "n": args.n,
        "f_vector": catalog.f_vector(),
        "strata": {str(d): [[sides[r] for r in c] for c in catalog.cell_rays[d]] for d in dims},
    }
    return None, payload, None


def _cmd_complex(args) -> tuple[str | None, dict, str | None]:
    cx = build_complex(args.n)
    if args.dot:
        return None, {}, cx.to_dot(args.dot)
    return None, cx.to_json_obj(), None


def _cmd_aut(args) -> tuple[str, dict, None]:
    expected = expected_order(args.n)
    if args.n < 4:
        group = aut_via_compat_graph(build_complex(args.n))
        payload = {
            "n": args.n,
            "order": group.order(),
            "expected": expected,
            "generators": [],
            "verdict": "PASS" if group.order() == expected else "FAIL",
        }
        return payload["verdict"], payload, None
    if args.method == "poset":
        group = aut_via_poset(build_complex(args.n))
        payload = {
            "n": args.n,
            "method": "poset",
            "order": group.order(),
            "expected": expected,
            "generators": [format_cycles(g) for g in group.generators],
            "verdict": "PASS" if group.order() == expected else "FAIL",
        }
        return payload["verdict"], payload, None
    payload = main_theorem_report(
        build_complex(args.n), args.seed, 0, poset=args.method == "both"
    )
    return payload["verdict"], payload, None


def _cmd_count(args) -> tuple[str, dict, None]:
    if args.check == "lemma":
        if args.n is not None:
            raise ValueError("--check lemma takes no --n")
        checked, violations = lemma_power_sweep(args.bound)
        payload = {
            "check": "lemma",
            "bound": args.bound,
            "pairs_checked": checked,
            "violations": [list(map(list, v)) for v in violations],
            "verdict": "PASS" if not violations else "FAIL",
        }
        return payload["verdict"], payload, None
    if args.n is None:
        raise ValueError("--check formula requires --n")
    cx = build_complex(args.n)
    mismatches, star_bad = _formula_mismatches(cx)
    payload = {
        "check": "formula",
        "n": args.n,
        "strata": len(cx.cell_rays),
        "mismatches": mismatches,
        "star_mismatches": star_bad,
        "verdict": "PASS" if not mismatches and not star_bad else "FAIL",
    }
    return payload["verdict"], payload, None


def _formula_mismatches(cx) -> tuple[list, list[int]]:
    """Cells (by split sides) whose expansion-count formula disagrees with
    the brute-force count over each vertex's subsets, and cells (by index)
    whose star count disagrees with the formula."""
    mismatches, star_bad = [], []
    for i, pairs in enumerate(vertex_profiles(cx)):
        formula = sum(per_vertex_partition_count(legs, val) for legs, val in pairs)
        if formula != sum(brute_force_partition_count(legs + val) for legs, val in pairs):
            mismatches.append(cx.cell_sides(i))
        if star_count(cx, i) != formula:
            star_bad.append(i)
    return mismatches, star_bad


def _cmd_genus2(args) -> tuple[str, dict, None]:
    cx = build_m2_complex()
    result = aut_m2(cx)
    witness = bridge_loop_swap_violation(cx)
    theta = cx.cells[cx.cell_index("theta")]
    ok = (
        result.group.order() == 1
        and result.classes == 1
        and theta.edge_group.order() == 6
        and {witness.face, witness.image_face} == {"figure_eight", "lollipop"}
    )
    payload = {
        "cells": len(cx.cells),
        "f_vector": cx.f_vector(),
        "aut_order": result.group.order(),
        "aut_classes": result.classes,
        "theta_edge_group_order": theta.edge_group.order(),
        "swap_rejection": witness.describe(),
        "verdict": "PASS" if ok else "FAIL",
    }
    return payload["verdict"], payload, None


def _battery(max_n: int, seed: int, log) -> dict:
    if max_n < VERIFY_MIN_N:
        raise ValueError(
            f"--max-n must be >= {VERIFY_MIN_N}: smaller runs check no automorphism group"
        )
    if max_n > ENVELOPE_MAX_N:
        raise EnvelopeError(f"report supports --max-n <= {ENVELOPE_MAX_N}, got {max_n}")
    checks = []

    def add(name, ok, **details):
        checks.append({"name": name, "verdict": "PASS" if ok else "FAIL", **details})
        log(f"  {'PASS' if ok else 'FAIL'} {name}")

    # Each n is enumerated once and its complex built once: the aut checks
    # take the complexes the counting check built.
    catalogs = {}
    complexes = {}

    log(f"enumeration counts up to n={max_n}")
    for n in range(3, max_n + 1):
        catalogs[n] = catalog = enumerate_strata(n)
        fv = catalog.f_vector()
        ok = fv == count_f_vector(n) and fv[-1] == count_maximal(n)
        add(f"enumeration n={n}", ok, f_vector=fv)

    log("expansion formula against brute force and star counts")
    for n in range(VERIFY_MIN_N, max_n + 1):
        complexes[n] = cx = build_complex(n, catalogs.pop(n))
        mismatches, star_bad = _formula_mismatches(cx)
        bad = len(mismatches) + len(star_bad)
        add(f"counting formula n={n}", bad == 0, mismatches=bad)

    log("power-of-two lemma sweep")
    checked, violations = lemma_power_sweep(20)
    add("lemma sweep bound=20", not violations, pairs_checked=checked)

    log("automorphism groups")
    for n in range(VERIFY_MIN_N, max_n + 1):
        samples = 100 if n in (5, 6) else 0
        rep = main_theorem_report(complexes.pop(n), seed, samples)
        add(
            f"aut n={n}",
            rep["verdict"] == "PASS",
            order=rep["order"],
            expected=rep["expected"],
        )
        if n == 4:
            add("klein kernel n=4", rep["kernel_is_klein"])

    log("genus-2 fixture")
    verdict, payload, _ = _cmd_genus2(argparse.Namespace())
    add("genus2", verdict == "PASS", aut_order=payload["aut_order"])

    overall = "PASS" if all(c["verdict"] == "PASS" for c in checks) else "FAIL"
    return {"max_n": max_n, "seed": seed, "checks": checks, "verdict": overall}


def _cmd_report(args, log) -> tuple[str, dict, None]:
    payload = _battery(args.max_n, args.seed, log)
    return payload["verdict"], payload, None


def run(argv, stdout=None, stderr=None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    def log(msg):
        print(msg, file=stderr)

    started = time.perf_counter()
    try:
        if args.command == "enumerate":
            verdict, payload, raw = _cmd_enumerate(args)
        elif args.command == "complex":
            verdict, payload, raw = _cmd_complex(args)
        elif args.command == "aut":
            verdict, payload, raw = _cmd_aut(args)
        elif args.command == "count":
            verdict, payload, raw = _cmd_count(args)
        elif args.command == "genus2":
            verdict, payload, raw = _cmd_genus2(args)
        else:
            verdict, payload, raw = _cmd_report(args, log)
    except EnvelopeError as exc:
        log(f"resource envelope: {exc}")
        return EXIT_ENVELOPE
    except ValueError as exc:
        log(f"error: {exc}")
        return EXIT_USAGE
    except AssertionError as exc:
        log(f"check failed: {exc}")
        return EXIT_FAIL

    if raw is not None:
        stdout.write(raw)
        return EXIT_OK

    report = {
        "schema": 1,
        "subcommand": args.command,
        "params": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("command",)
        },
        "verdict": verdict if verdict is not None else "N-A",
        "payload": payload,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    json.dump(report, stdout, indent=2, sort_keys=True)
    stdout.write("\n")
    return EXIT_FAIL if verdict == "FAIL" else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
