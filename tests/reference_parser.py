"""The former `cli.build_parser`, kept as the reference for how the command
line reads: argparse, written out by hand rather than built from
`cli.COMMANDS`.  `cli.parse_args`, whether it reads a list itself or hands
it to argparse, must accept exactly the argument lists this parser accepts,
with the same values, and reject the others with exit code 2.
"""

import argparse
from functools import lru_cache

from sterngf.cli import cmd_gf, cmd_guess, cmd_matrix, cmd_oracle, cmd_pv, cmd_terms


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every call
    of `main` in the process; `parse_args` returns a fresh namespace each
    time, so no call sees another's arguments."""
    ap = argparse.ArgumentParser(
        prog="sterngf",
        description="Exact generating functions for correlation sums of "
                    "generalized Stern diatomic arrays.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, with_alpha=True, with_limit=True):
        p.add_argument("spec", help="JSON spec file")
        if with_alpha:
            p.add_argument("--alpha", help="correlation pattern, e.g. 2 or 1,1,1")
        if with_limit:
            p.add_argument("--limit", type=int, default=5000,
                           help="state budget before declaring failure")

    p = sub.add_parser("gf", help="closed-form generating function via state closure")
    add_common(p)
    p.add_argument("--method", choices=("auto", "eliminate", "fit"), default="auto",
                   help="fit streams 2*dim+10 terms and reconstructs (auto is fit); "
                        "eliminate is Cramer's rule over a Berkowitz determinant")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("matrix", help="transfer matrix and initial vector")
    add_common(p)
    p.add_argument("--out", help="write the matrix JSON to this file")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "terms", help="stream exact sequence terms from the matrix",
        description="Exact terms u(0..n) at the root state.  Fewer than "
                    "twice the 2*dim+10 terms of the gf fit are streamed as "
                    "M^n v; longer runs extend the fitted gf, proven by its "
                    "degree bound, through den * U = num, with no division "
                    "since den(0) = 1 for an integer series (Fatou).")
    add_common(p)
    p.add_argument("-n", type=int, required=True, help="last index to produce")
    p.add_argument("--digits-only", action="store_true",
                   help="print decimal digit counts instead of values")
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("oracle", help="brute-force terms straight from the definition")
    add_common(p, with_limit=False)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("guess", help="fit a generating function to brute-force data")
    add_common(p, with_limit=False)
    p.add_argument("-n", type=int, required=True, help="data points 0..n")
    p.add_argument("--max-deg", type=int, default=None,
                   help="denominator degree bound (default: largest certifiable)")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_guess)

    p = sub.add_parser("pv", help="classify the exponent sequence's dominant root")
    add_common(p, with_alpha=False, with_limit=False)
    p.set_defaults(func=cmd_pv)

    return ap
