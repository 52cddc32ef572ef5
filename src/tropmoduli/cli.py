"""Command-line interface.

Subcommands: `enumerate` (stratum catalog), `complex` (poset/graph
export), `aut` (automorphism groups and the symmetric-group comparison),
`count` (closed-form checks), `genus2` (the genus-2 fixture), and
`report` (the whole verification battery).  Each handler in
``HANDLERS`` returns one value: the payload dict, whose ``verdict`` key
(``N-A`` when it has none) becomes the report's, or the export text of
``enumerate --format csv`` and ``complex --dot``, which goes to stdout as
is.  Machine-readable JSON goes to stdout, progress to stderr; exit
status 0 on PASS, 1 on FAIL (a failed internal check prints one ``check
failed:`` line and no JSON), 2 on usage errors, 3 on resource-envelope
violations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from . import __version__
from .automorphisms import (
    DEFAULT_SEED,
    VERIFY_MIN_N,
    main_theorem_report,
)
from .cones import build_complex, star_count
from .counting import brute_force_partition_count, lemma_power_sweep, per_vertex_partition_count
from .enumeration import (
    EnvelopeError,
    check_n,
    count_f_vector,
    count_maximal,
    enumerate_strata,
)
from .genus2 import aut_m2, bridge_loop_swap_violation, build_m2_complex

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ENVELOPE = 3

DEFAULT_LEMMA_BOUND = 20  # the lemma sweep's bound in `count` and in the battery


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
    p.add_argument("--method", choices=("graph", "both"), default="graph")
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="recorded in params only: aut draws no samples",
    )

    p = sub.add_parser("count", help="closed-form counting checks")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--check", choices=("formula", "lemma"), required=True)
    p.add_argument("--bound", type=int, default=None)

    sub.add_parser("genus2", help="verify the 7-cell genus-2 fixture")

    p = sub.add_parser("report", help="full verification battery")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def _cmd_enumerate(args, log) -> dict | str:
    check_n(args.n)
    if args.dim is not None and args.dim not in range(args.n - 2):
        raise ValueError(f"no strata of dimension {args.dim} for n={args.n}")
    catalog = enumerate_strata(args.n)
    ranges = catalog.dim_ranges
    if args.dim is not None:
        ranges = {args.dim: ranges[args.dim]}
    cells = catalog.cell_rays
    sides = [list(s.side()) for s in catalog.rays]
    if args.format == "csv":
        names = [" ".join(map(str, side)) for side in sides]
        lines = ["dim,splits"]
        for d, rng in ranges.items():
            lines.extend(f"{d}," + "|".join(names[r] for r in cells[i]) for i in rng)
        return "\n".join(lines) + "\n"
    return {
        "n": args.n,
        "f_vector": catalog.f_vector(),
        "strata": {
            str(d): [[sides[r] for r in cells[i]] for i in rng] for d, rng in ranges.items()
        },
    }


def _cmd_complex(args, log) -> dict | str:
    cx = build_complex(args.n)
    return cx.to_dot(args.dot) if args.dot else cx.to_json_obj()


def _cmd_aut(args, log) -> dict:
    if args.n < VERIFY_MIN_N:
        raise ValueError(
            f"--n must be >= {VERIFY_MIN_N}: smaller runs check no automorphism group"
        )
    cx = build_complex(args.n)  # rejects n beyond the envelope before other work
    return main_theorem_report(cx, args.seed, 0, poset=args.method == "both")


def _cmd_count(args, log) -> dict:
    if args.check == "lemma":
        if args.n is not None:
            raise ValueError("--check lemma takes no --n")
        if args.bound is None:
            args.bound = DEFAULT_LEMMA_BOUND  # recorded in params
        checked, violations = lemma_power_sweep(args.bound)
        return {
            "check": "lemma",
            "bound": args.bound,
            "pairs_checked": checked,
            "violations": [list(map(list, v)) for v in violations],
            "verdict": "PASS" if not violations else "FAIL",
        }
    if args.n is None:
        raise ValueError("--check formula requires --n")
    if args.bound is not None:
        raise ValueError("--check formula takes no --bound")
    if args.n < VERIFY_MIN_N:
        raise ValueError(
            f"--n must be >= {VERIFY_MIN_N}: smaller complexes have no cell to expand"
        )
    cx = build_complex(args.n)
    mismatches, star_bad = _formula_mismatches(cx)
    return {
        "check": "formula",
        "n": args.n,
        "strata": len(cx.cell_rays),
        "mismatches": mismatches,
        "star_mismatches": star_bad,
        "verdict": "PASS" if not mismatches and not star_bad else "FAIL",
    }


def _formula_mismatches(cx) -> tuple[list, list[int]]:
    """Cells (by split sides) whose expansion-count formula disagrees with
    the brute-force count over each vertex's subsets, and cells (by index)
    whose star count disagrees with the formula."""
    counts = {}  # both counts depend on the profile alone
    for pairs in set(cx.vertex_profiles):
        counts[pairs] = (
            sum(per_vertex_partition_count(legs, val) for legs, val in pairs),
            sum(brute_force_partition_count(legs + val) for legs, val in pairs),
        )
    mismatches, star_bad = [], []
    for i, pairs in enumerate(cx.vertex_profiles):
        formula, brute = counts[pairs]
        if formula != brute:
            mismatches.append([list(cx.rays[r].side()) for r in cx.cell_rays[i]])
        if star_count(cx, i) != formula:
            star_bad.append(i)
    return mismatches, star_bad


def _cmd_genus2(args=None, log=None) -> dict:
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
    return {
        "cells": len(cx.cells),
        "f_vector": cx.f_vector(),
        "aut_order": result.group.order(),
        "aut_classes": result.classes,
        "theta_edge_group_order": theta.edge_group.order(),
        "swap_rejection": witness.describe(),
        "verdict": "PASS" if ok else "FAIL",
    }


def _battery(max_n: int, seed: int, log) -> dict:
    if max_n < VERIFY_MIN_N:
        raise ValueError(
            f"--max-n must be >= {VERIFY_MIN_N}: smaller runs check no automorphism group"
        )
    check_n(max_n)
    checks = []

    def add(name, ok, **details):
        checks.append({"name": name, "verdict": "PASS" if ok else "FAIL", **details})
        log(f"  {'PASS' if ok else 'FAIL'} {name}")

    # Each n is enumerated once: the counting check builds each complex on
    # its catalog's cell table, and the aut checks take those complexes.
    complexes = {}

    log(f"enumeration counts up to n={max_n}")
    for n in range(3, max_n + 1):
        complexes[n] = catalog = enumerate_strata(n)
        fv = catalog.f_vector()
        ok = fv == count_f_vector(n) and fv[-1] == count_maximal(n)
        add(f"enumeration n={n}", ok, f_vector=fv)

    log("expansion formula against brute force and star counts")
    for n in range(VERIFY_MIN_N, max_n + 1):
        complexes[n] = cx = build_complex(n, complexes[n])
        mismatches, star_bad = _formula_mismatches(cx)
        bad = len(mismatches) + len(star_bad)
        add(f"counting formula n={n}", bad == 0, mismatches=bad)

    log("power-of-two lemma sweep")
    checked, violations = lemma_power_sweep(DEFAULT_LEMMA_BOUND)
    add(f"lemma sweep bound={DEFAULT_LEMMA_BOUND}", not violations, pairs_checked=checked)

    log("automorphism groups")
    for n in range(VERIFY_MIN_N, max_n + 1):
        samples = 100 if n in (5, 6) else 0
        rep = main_theorem_report(complexes.pop(n), seed, samples)
        named = {k: rep[k] for k in ("order", "expected", "failures") if k in rep}
        add(f"aut n={n}", rep["verdict"] == "PASS", **named)
        if n == 4:
            add("klein kernel n=4", rep["kernel_is_klein"])

    log("genus-2 fixture")
    payload = _cmd_genus2()
    add("genus2", payload["verdict"] == "PASS", aut_order=payload["aut_order"])

    overall = "PASS" if all(c["verdict"] == "PASS" for c in checks) else "FAIL"
    return {"max_n": max_n, "seed": seed, "checks": checks, "verdict": overall}


# one handler per subcommand; `report` looks `_battery` up by name at each call
HANDLERS = {
    "enumerate": _cmd_enumerate,
    "complex": _cmd_complex,
    "aut": _cmd_aut,
    "count": _cmd_count,
    "genus2": _cmd_genus2,
    "report": lambda args, log: _battery(args.max_n, args.seed, log),
}


def run(argv, stdout=None, stderr=None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        # usage errors, --help and --version go to the given streams too
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    def log(msg):
        print(msg, file=stderr)

    started = time.perf_counter()
    try:
        payload = HANDLERS[args.command](args, log)
    except EnvelopeError as exc:
        log(f"resource envelope: {exc}")
        return EXIT_ENVELOPE
    except ValueError as exc:
        log(f"error: {exc}")
        return EXIT_USAGE
    except AssertionError as exc:
        log(f"check failed: {exc}")
        return EXIT_FAIL

    if isinstance(payload, str):
        stdout.write(payload)
        return EXIT_OK
    verdict = payload.get("verdict", "N-A")
    report = {
        "schema": 1,
        "subcommand": args.command,
        "params": {k: v for k, v in sorted(vars(args).items()) if k != "command"},
        "verdict": verdict,
        "payload": payload,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    stdout.write(json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n")
    return EXIT_FAIL if verdict == "FAIL" else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
