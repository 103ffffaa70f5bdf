"""Command-line frontend.

Exit codes are three-valued so shell pipelines can tell a proved negative
from a give-up: 0 definitive success, 2 definitive negative, 3
inconclusive, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import (
    __version__,
    catalog,
    census as census_mod,
    collapse as collapse_mod,
    homology,
    recognition,
    reports,
    structure,
    verification,
)
from .bistellar import (
    BISTELLAR,
    PROPER_BISTELLAR,
    SINGULAR_BS1,
    SINGULAR_BS2,
    apply_generalized_move,
    classify_move,
    enumerate_moves,
)
from .complexes import SimplicialComplex
from .facetio import FacetParseError, parse_facets, write_facets

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3

# census presets: name -> (spec, the catalog names its classes must match,
# or None to match none)
PRESETS = {
    "closed6": (
        census_mod.CensusSpec(n_vertices=6),
        ("S2_4", "S1_3*S0_2", "octahedron", "RP2_6", "Sigma1"),
    ),
    "closed7": (
        census_mod.CensusSpec(n_vertices=7, max_facets=10, exact_vertices=True),
        ("S1_5*S0_2", "Sigma2", "Sigma3", "Sigma4", "Sigma5", "Upsilon1", "Upsilon2"),
    ),
    "even7": (
        census_mod.CensusSpec(
            n_vertices=7, max_facets=10, constraint=census_mod.CONSTRAINT_EVEN
        ),
        None,
    ),
}


def _load(path: str) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    notes: List[str] = []
    k = parse_facets(text, on_warning=notes.append)
    for note in notes:
        print(f"# warning: {note}", file=sys.stderr)
    return k


def _cmd_info(args) -> int:
    k = _load(args.file)
    flags = {
        "pure": k.is_pure(),
        "connected": k.is_connected(),
        "weak-pseudomanifold": structure.is_weak_pseudomanifold(k),
        "pseudomanifold": structure.is_pseudomanifold(k),
        "weak-pm-with-boundary": structure.is_weak_pm_with_boundary(k),
    }
    sys.stdout.write(reports.info_report(k, flags))
    return EXIT_OK


def _cmd_homology(args) -> int:
    k = _load(args.file)
    sys.stdout.write(reports.homology_report(k, homology.reduced_betti(k)))
    return EXIT_OK


def _cmd_collapse(args) -> int:
    k = _load(args.file)
    budget = None if args.exhaustive else args.budget
    if args.to is not None:
        target = _load(args.to)
        verdict = collapse_mod.collapses_to(k, target, budget)
    else:
        verdict = collapse_mod.is_collapsible(k, budget)
    sys.stdout.write(reports.collapse_report(k, verdict))
    if verdict.collapsible:
        return EXIT_OK
    if verdict.status == collapse_mod.NOT_COLLAPSIBLE:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


_FILTER_ALIASES = {
    "proper": PROPER_BISTELLAR,
    "proper-bistellar": PROPER_BISTELLAR,
    BISTELLAR: BISTELLAR,
    SINGULAR_BS1: SINGULAR_BS1,
    SINGULAR_BS2: SINGULAR_BS2,
}


def _cmd_moves(args) -> int:
    k = _load(args.file)
    wanted = None
    if args.filter:
        wanted = set()
        for name in args.filter.split(","):
            name = name.strip()
            if name == "singular":
                wanted.update((SINGULAR_BS1, SINGULAR_BS2))
                continue
            if name not in _FILTER_ALIASES:
                print(f"unknown move filter {name!r}", file=sys.stderr)
                return EXIT_ERROR
            wanted.add(_FILTER_ALIASES[name])
    moves = enumerate_moves(k, wanted)
    sys.stdout.write(reports.moves_report(k, moves))
    return EXIT_OK


def _cmd_apply_move(args) -> int:
    k = _load(args.file)
    try:
        a_set = tuple(int(tok) for tok in args.a_set.replace(",", " ").split())
    except ValueError:
        print("--a-set needs integers like 2,3,4,6", file=sys.stderr)
        return EXIT_ERROR
    move = classify_move(k, a_set)
    result = apply_generalized_move(k, a_set)
    print(f"# move: {reports.move_text(move)}")
    sys.stdout.write(write_facets(result))
    return EXIT_OK


def _cmd_certify(args) -> int:
    k = _load(args.file)
    cert = recognition.certify_sphere(
        k, assume_manifold=args.assume_manifold, ball_policy=args.ball_policy
    )
    sys.stdout.write(reports.sphere_certificate_report(k, cert))
    if cert.is_sphere():
        return EXIT_OK
    if cert.verdict == recognition.PRECONDITION_FAILED:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def _cmd_census(args) -> int:
    if args.preset is not None:
        # a preset fixes the whole spec, so an explicit flag would be ignored
        given = [
            flag
            for flag, is_set in (
                ("--vertices", args.vertices is not None),
                ("--constraint", args.constraint is not None),
                ("--max-facets", args.max_facets is not None),
                ("--exact-vertices", args.exact_vertices),
                ("--no-symmetry-breaking", args.no_symmetry_breaking),
            )
            if is_set
        ]
        if given:
            print(
                f"census --preset {args.preset} takes no {', '.join(given)}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        spec, expected = PRESETS[args.preset]
    else:
        if args.vertices is None:
            print("census needs --vertices or a preset", file=sys.stderr)
            return EXIT_ERROR
        name = "exactly-two" if args.constraint is None else args.constraint
        constraint = {
            "exactly-two": census_mod.CONSTRAINT_CLOSED,
            "even": census_mod.CONSTRAINT_EVEN,
            "boundary": census_mod.CONSTRAINT_BOUNDARY,
        }.get(name)
        if constraint is None:
            print(f"unknown constraint {args.constraint!r}", file=sys.stderr)
            return EXIT_ERROR
        spec = census_mod.CensusSpec(
            n_vertices=args.vertices,
            constraint=constraint,
            max_facets=args.max_facets,
            exact_vertices=args.exact_vertices,
            symmetry_breaking=not args.no_symmetry_breaking,
        )
        expected = None
    result = census_mod.enumerate_census(spec)
    sys.stdout.write(reports.census_report(result))
    if expected is not None:
        match = census_mod.match_catalog(result, expected)
        for name, idx in sorted(match.mapping.items()):
            print(f"# matched: {name} -> class {idx}")
        if not match.perfect:
            print(
                f"# mismatch: missing={list(match.missing)} "
                f"unexpected={list(match.unexpected)}"
            )
            return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.list:
        for name in catalog.names():
            print(name)
        return EXIT_OK
    if not args.name:
        print("catalog needs --name or --list", file=sys.stderr)
        return EXIT_ERROR
    try:
        entry = catalog.get(args.name)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(write_facets(entry.complex))
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verification.run_all(seed=args.seed, pairs=args.pairs)
    failed = False
    for suite in results:
        status = "pass" if suite.passed else "FAIL"
        print(f"{suite.name}: {status} ({suite.checks} checks)")
        for failure in suite.failures:
            failed = True
            print(f"  failed: {failure}")
        if not suite.passed:
            failed = True
    return EXIT_NEGATIVE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simptop",
        description="Exact combinatorial topology on small simplicial complexes.",
    )
    parser.add_argument("--version", action="version", version=f"simptop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="f-vector, Euler characteristic and flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("homology", help="reduced GF(2) Betti numbers")
    p.add_argument("file")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("collapse", help="decide collapsibility")
    p.add_argument("file")
    search = p.add_mutually_exclusive_group()
    search.add_argument("--budget", type=int, default=collapse_mod.DEFAULT_BUDGET)
    search.add_argument(
        "--exhaustive", action="store_true", help="search without a node budget"
    )
    p.add_argument("--to", help="target subcomplex file for collapses-to")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("moves", help="enumerate classified bistellar moves")
    p.add_argument("file")
    p.add_argument("--filter", help="comma list: proper,bistellar,singular,...")
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("apply-move", help="apply the generalized move at A")
    p.add_argument("file")
    p.add_argument("--a-set", required=True, help="vertex list like 2,3,4,6")
    p.set_defaults(func=_cmd_apply_move)

    p = sub.add_parser("certify", help="combinatorial-sphere certification")
    p.add_argument("file")
    p.add_argument("--assume-manifold", action="store_true")
    p.add_argument("--ball-policy", choices=("facet", "greedy"), default="facet")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("census", help="enumerate small 2-complexes")
    p.add_argument("--vertices", type=int)
    p.add_argument(
        "--constraint", help="exactly-two (the default), even or boundary"
    )
    p.add_argument("--max-facets", type=int)
    p.add_argument("--exact-vertices", action="store_true")
    p.add_argument("--no-symmetry-breaking", action="store_true")
    p.add_argument(
        "--preset",
        choices=PRESETS,
        help="closed6: weak pms on <= 6 vertices; closed7: 7 vertices and "
        "<= 10 facets; even7: even edge degrees, <= 7 vertices",
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("catalog", help="export a named fixture complex")
    p.add_argument("--name")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--pairs", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FacetParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
