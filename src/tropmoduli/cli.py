"""Command-line interface.

Subcommands: `enumerate` (stratum catalog), `complex` (poset/graph
export), `aut` (automorphism groups and the symmetric-group comparison),
`count` (closed-form checks), `genus2` (the genus-2 fixture), and
`report` (the whole verification battery).  Machine-readable JSON goes
to stdout, progress to stderr; exit status 0 on PASS, 1 on FAIL, 2 on
usage errors, 3 on resource-envelope violations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .automorphisms import (
    DEFAULT_SEED,
    POSET_MAX_N,
    VERIFY_MAX_N,
    VERIFY_MIN_N,
    aut_via_compat_graph,
    aut_via_poset,
    main_theorem_report,
    verify_main_theorem,
)
from .cones import ConeComplex, build_complex, star_count
from .counting import expansion_count_formula, lemma_power_sweep
from .enumeration import (
    ENVELOPE_MAX_N,
    EnvelopeError,
    count_f_vector,
    count_maximal,
    enumerate_strata,
    expansions,
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
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("aut", help="automorphism group of the complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("graph", "poset", "both"), default="graph")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("count", help="closed-form counting checks")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--check", choices=("formula", "lemma"), required=True)
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("genus2", help="the 7-cell genus-2 fixture")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("report", help="full verification battery")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _cmd_enumerate(args) -> tuple[str | None, dict, str | None]:
    catalog = enumerate_strata(args.n)
    dims = sorted(catalog.by_dimension)
    if args.dim is not None:
        if args.dim not in catalog.by_dimension:
            raise ValueError(f"no strata of dimension {args.dim} for n={args.n}")
        dims = [args.dim]
    if args.format == "csv":
        lines = ["dim,splits"]
        for d in dims:
            for form in catalog.by_dimension[d]:
                sides = "|".join(" ".join(map(str, s.side())) for s in form.splits)
                lines.append(f"{d},{sides}")
        return None, {}, "\n".join(lines) + "\n"
    payload = {
        "n": args.n,
        "f_vector": catalog.f_vector(),
        "strata": {
            str(d): [form.sides_json() for form in catalog.by_dimension[d]]
            for d in dims
        },
    }
    return None, payload, None


def _cmd_complex(args) -> tuple[str | None, dict, str | None]:
    cx = build_complex(args.n)
    if args.dot:
        return None, {}, cx.to_dot(args.dot)
    return None, cx.to_json_obj(), None


def _cmd_aut(args) -> tuple[str, dict, None]:
    if args.method in ("poset", "both") and args.n > POSET_MAX_N:
        raise EnvelopeError(
            f"poset method supports n <= {POSET_MAX_N}, got n={args.n}"
        )
    if args.n > VERIFY_MAX_N:
        raise EnvelopeError(
            f"theorem verification supports n <= {VERIFY_MAX_N}, got n={args.n}"
        )
    if args.n < 4:
        cx = build_complex(args.n)
        group = aut_via_compat_graph(cx)
        payload = {
            "n": args.n,
            "order": group.order(),
            "expected": 1,
            "generators": [],
            "verdict": "PASS" if group.order() == 1 else "FAIL",
        }
        return payload["verdict"], payload, None
    if args.method == "poset":
        group = aut_via_poset(build_complex(args.n))
        expected = 6 if args.n == 4 else math.factorial(args.n)
        payload = {
            "n": args.n,
            "method": "poset",
            "order": group.order(),
            "expected": expected,
            "generators": [format_cycles(g) for g in group.generators],
            "verdict": "PASS" if group.order() == expected else "FAIL",
        }
        return payload["verdict"], payload, None
    payload = verify_main_theorem(args.n, seed=args.seed)
    if args.method == "graph":
        payload.pop("methods_agree", None)
        payload.pop("poset_order", None)
    return payload["verdict"], payload, None


def _cmd_count(args) -> tuple[str, dict, None]:
    if args.check == "lemma":
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
    catalog = enumerate_strata(args.n)
    mismatches, star_bad, _ = _formula_mismatches(args.n, catalog)
    payload = {
        "check": "formula",
        "n": args.n,
        "strata": catalog.total(),
        "mismatches": mismatches,
        "verdict": "PASS" if not mismatches and not star_bad else "FAIL",
    }
    if star_bad is not None:
        payload["star_mismatches"] = star_bad
    return payload["verdict"], payload, None


def _formula_mismatches(
    n, catalog
) -> tuple[list, list[int] | None, ConeComplex | None]:
    """Strata whose expansion-count formula disagrees with brute-force
    expansion, cells whose star count disagrees with the formula, and the
    complex built for the star check.  Above POSET_MAX_N the star check is
    skipped, and both of the latter are None."""
    mismatches = []
    formula = []
    for form in catalog.all_forms():
        tree = form.to_tree()
        formula.append(expansion_count_formula(tree))
        if formula[-1] != len(expansions(tree)):
            mismatches.append(form.sides_json())
    if n > POSET_MAX_N:
        return mismatches, None, None
    # cx.cells is catalog.all_forms() in the same order
    cx = build_complex(n, catalog)
    star_bad = [i for i, count in enumerate(formula) if star_count(cx, i) != count]
    return mismatches, star_bad, cx


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
    # take the complexes the star check built (n = 7 is built for them).
    aut_range = range(VERIFY_MIN_N, min(max_n, VERIFY_MAX_N) + 1)
    catalogs = {}
    complexes = {}

    log(f"enumeration counts up to n={max_n}")
    for n in range(3, max_n + 1):
        catalogs[n] = catalog = enumerate_strata(n)
        fv = catalog.f_vector()
        ok = fv == count_f_vector(n) and fv[-1] == count_maximal(n)
        add(f"enumeration n={n}", ok, f_vector=fv)

    log("expansion formula against brute force and star counts")
    for n in range(4, max_n + 1):
        catalog = catalogs.pop(n)
        mismatches, star_bad, cx = _formula_mismatches(n, catalog)
        if n in aut_range:
            complexes[n] = cx or build_complex(n, catalog)
        bad = len(mismatches) + len(star_bad or ())
        add(f"counting formula n={n}", bad == 0, mismatches=bad)

    log("power-of-two lemma sweep")
    checked, violations = lemma_power_sweep(20)
    add("lemma sweep bound=20", not violations, pairs_checked=checked)

    log("automorphism groups")
    for n in aut_range:
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
