"""Command-line front end.

Subcommands: compute, check, certify, generate, census, verify.  Input
trees come from a file path or '-' for standard input, in edge-list or
graph6 format (inferred from the .g6 extension, overridable with
--format).  Exit status: 0 success, 1 negative check result or theorem
violation, 2 usage or input errors, 3 internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_mod
from . import characterize, generators, solvers, trees
from .errors import BadParameterError, InternalError, ParseError, TreedomError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_tree(path, fmt):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"input {path!r} is not ASCII text") from None
    if fmt is None:
        fmt = "graph6" if path.endswith(".g6") else "edgelist"
    if fmt == "graph6":
        return trees.parse_graph6(text)
    return trees.parse_edge_list(text)


def _cmd_compute(args):
    tree = _read_tree(args.input, args.format)
    d = solvers.invariant_report(tree).to_json_dict()
    if args.output == "json":
        print(json.dumps(d, indent=2))
        return EXIT_OK
    for key, val in d.items():
        if isinstance(val, list):
            val = " ".join(map(str, val))
        print(f"{key}: {'undefined' if val is None else val}")
    return EXIT_OK


_CHECKS = {
    "tbeta": characterize.attains_lower_bound,
    "tl": characterize.attains_upper_bound,
    "structural": characterize.structural_upper_bound_check,
    "upper": characterize.upper_family_check,
}


def _cmd_check(args):
    tree = _read_tree(args.input, args.format)
    result = _CHECKS[args.kind](tree)
    print("true" if result else "false")
    return EXIT_OK if result else EXIT_NEGATIVE


def _cmd_certify(args):
    tree = _read_tree(args.input, args.format)
    cert = characterize.decompose_to_p4(tree)
    if cert is None:
        print("NOT_MEMBER")
        return EXIT_NEGATIVE
    sys.stdout.write(characterize.certificate_to_text(cert))
    return EXIT_OK


def _family_f(args):
    if args.base is None:
        base = generators.path(args.b + args.d)
    else:
        base = _read_tree(args.base, args.format)
    spec = generators.FamilyFSpec(base, range(args.b), range(args.b, base.n))
    return generators.family_f(spec)


# the generate families, in the order --help lists them
_FAMILIES = {
    "path": lambda args: generators.path(args.n),
    "star": lambda args: generators.star(args.n),
    "doublestar": lambda args: generators.double_star(args.a, args.b),
    "comb": lambda args: generators.comb(args.k),
    "qr": lambda args: generators.q_tree(args.r),
    "familyf": _family_f,
    "random": lambda args: generators.random_tree(args.n, args.seed),
}


def _cmd_generate(args):
    tree = _FAMILIES[args.family](args)
    if args.to == "graph6":
        print(trees.serialize_graph6(tree))
    else:
        sys.stdout.write(trees.serialize_edge_list(tree))
    return EXIT_OK


def _check_max_n(max_n):
    # below 3 there is no tree to check, and "all theorems hold" would say
    # nothing
    if max_n < 3:
        raise BadParameterError(f"--max-n must be at least 3, got {max_n}")


def _cmd_census(args):
    _check_max_n(args.max_n)
    if args.out:
        # a bad path fails at once, not after the run; append mode leaves
        # an existing file as it is until the run has succeeded
        open(args.out, "a", encoding="ascii").close()
    records, report = census_mod.run_census(args.max_n)
    text = census_mod.records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(json.dumps(report, indent=2), file=sys.stderr)
    return EXIT_OK if report["all_hold"] else EXIT_NEGATIVE


def _cmd_verify(args):
    _check_max_n(args.max_n)
    _, report = census_mod.run_census(args.max_n)
    print(json.dumps(report, indent=2))
    if report["all_hold"]:
        print("all theorems hold")
        return EXIT_OK
    print("theorem violations found", file=sys.stderr)
    return EXIT_NEGATIVE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treedom",
        description="Total co-independent domination invariants and "
        "characterizations on trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="tree file, or '-' for stdin")
        p.add_argument(
            "--format", choices=("edgelist", "graph6"), default=None,
            help="input format (default: by extension, edgelist otherwise)",
        )

    p = sub.add_parser("compute", help="print the invariant report of a tree")
    add_input(p)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("check", help="test extremal family membership")
    p.add_argument("kind", choices=sorted(_CHECKS))
    add_input(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("certify", help="emit an operation certificate or NOT_MEMBER")
    add_input(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("generate", help="emit a named tree")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("--n", type=int, default=4, help="vertex count (path/star/random)")
    p.add_argument("--a", type=int, default=1, help="doublestar: leaves on one center")
    p.add_argument("--b", type=int, default=1, help="doublestar: leaves on the other; familyf: star-gadget hosts")
    p.add_argument("--d", type=int, default=1, help="familyf: subdivided-star-gadget hosts")
    p.add_argument("--k", type=int, default=3, help="comb: spine length")
    p.add_argument("--r", type=int, default=2, help="qr: support chain length")
    p.add_argument("--base", default=None, help="familyf: base tree file (default: path on b+d vertices)")
    p.add_argument("--format", choices=("edgelist", "graph6"), default=None)
    p.add_argument("--seed", type=int, default=0, help="random: RNG seed")
    p.add_argument("--to", choices=("edgelist", "graph6"), default="edgelist")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("census", help="classify all trees up to an order")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="run the theorem harness")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TreedomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
