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
from .errors import InternalError, ParseError, TreedomError

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


def _emit_tree(tree, fmt, out):
    if fmt == "graph6":
        out.write(trees.serialize_graph6(tree) + "\n")
    else:
        out.write(trees.serialize_edge_list(tree))


def _cmd_compute(args):
    tree = _read_tree(args.input, args.format)
    report = solvers.invariant_report(tree)
    if args.output == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        d = report.to_json_dict()
        for key in ("n", "beta", "gamma_t", "tcoi"):
            val = d[key]
            print(f"{key}: {'undefined' if val is None else val}")
        for key in ("beta_witness", "gamma_t_witness", "tcoi_witness"):
            val = d[key]
            print(f"{key}: {'undefined' if val is None else ' '.join(map(str, val))}")
    return EXIT_OK


_CHECKS = {
    "tbeta": characterize.attains_lower_bound,
    "tl": characterize.attains_upper_bound,
    "structural": characterize.structural_upper_bound_check,
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


def _cmd_generate(args):
    if args.family == "path":
        tree = generators.path(args.n)
    elif args.family == "star":
        tree = generators.star(args.n)
    elif args.family == "doublestar":
        tree = generators.double_star(args.a, args.b)
    elif args.family == "comb":
        tree = generators.comb(args.k)
    elif args.family == "qr":
        tree = generators.q_tree(args.r)
    elif args.family == "familyf":
        if args.base is not None:
            base = _read_tree(args.base, args.format)
        else:
            base = generators.path(args.b + args.d)
        spec = generators.FamilyFSpec(
            base,
            frozenset(range(args.b)),
            frozenset(range(args.b, base.n)),
        )
        tree = generators.family_f(spec)
    else:  # random
        tree = generators.random_tree(args.n, args.seed)
    _emit_tree(tree, args.to, sys.stdout)
    return EXIT_OK


def _cmd_census(args):
    records, report = census_mod.run_census(args.max_n)
    csv_text = census_mod.records_to_csv(records)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(json.dumps(report, indent=2), file=sys.stderr)
    return EXIT_OK if report["all_hold"] else EXIT_NEGATIVE


def _cmd_verify(args):
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
    p.add_argument(
        "family",
        choices=("path", "star", "doublestar", "comb", "qr", "familyf", "random"),
    )
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
