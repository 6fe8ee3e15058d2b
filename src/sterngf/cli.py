"""Command-line front end.

Spec files are JSON:

    {
      "P": [1],                        # ascending integer coefficients
      "seq": {"init": [1], "rec": [2]},
      "factor": [{"c": 1, "e": [0]}, {"c": 1, "e": [1]}, {"c": 1, "e": [2]}],
      "alpha": [2]                     # optional default correlation pattern
    }

Results go to stdout as JSON (polynomials as ascending integer coefficient
lists); diagnostics go to stderr.  Exit codes: 0 success, 1 coefficient
limit, 2 state limit, 3 guess failed, 4 invalid spec file or argument.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import closure, core, gfs
from .cfinite import CFiniteSeq, indicial_poly, pv_classify
from .core import ProductSpec, SpecValidationError

EXIT_OK = 0
EXIT_COEFF_LIMIT = 1
EXIT_LIMIT = 2
EXIT_GUESS_FAILED = 3
EXIT_INVALID_SPEC = 4

_LOG10_2 = 0.30102999566398114


def decimal_digit_counts(terms: list[int]) -> list[int]:
    """Number of decimal digits of each |term| without a string conversion
    (exact sequence terms easily exceed the interpreter's int-to-str print
    guard), walking one running power of ten from term to term instead of
    raising 10 to each term's size afresh; a term more than one digit away
    from its predecessor restarts the walk from the bit-length estimate."""
    out = []
    d, lower, upper = 1, 1, 10  # lower = 10**(d-1), upper = 10**d
    for t in terms:
        n = abs(t)
        est = max(1, int(n.bit_length() * _LOG10_2))
        if abs(est - d) > 1:
            d, upper = est, 10 ** est
            lower = upper // 10
        while n >= upper:
            d, lower, upper = d + 1, upper, upper * 10
        while d > 1 and n < lower:
            d, lower, upper = d - 1, lower // 10, lower
        out.append(d)
    return out


class SpecFileError(ValueError):
    pass


def load_spec_file(path: str) -> tuple[ProductSpec, tuple[int, ...] | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path}: JSON nested too deeply") from exc
    return parse_spec(doc, where=path)


def _int_list(v) -> bool:
    """A JSON list of integers; JSON true/false are not integers here."""
    return isinstance(v, list) and all(type(x) is int for x in v)


def parse_spec(doc, where: str = "<spec>") -> tuple[ProductSpec, tuple[int, ...] | None]:
    def fail(loc: str, msg: str):
        raise SpecFileError(f"{where}: {loc}: {msg}")

    if not isinstance(doc, dict):
        fail("$", "top level must be an object")
    for key in doc:
        if key not in ("P", "seq", "factor", "alpha"):
            fail(key, "unknown key")
    P = doc.get("P", [1])
    if not _int_list(P):
        fail("P", "must be a list of integers")
    seq = doc.get("seq")
    if not isinstance(seq, dict) or set(seq) != {"init", "rec"}:
        fail("seq", 'must be {"init": [...], "rec": [...]}')
    init, rec = seq["init"], seq["rec"]
    for name, v in (("seq.init", init), ("seq.rec", rec)):
        if not v or not _int_list(v):
            fail(name, "must be a nonempty list of integers")
    factor = doc.get("factor")
    if not isinstance(factor, list) or not factor:
        fail("factor", "must be a nonempty list")
    terms = []
    for i, tm in enumerate(factor):
        if not isinstance(tm, dict) or set(tm) != {"c", "e"}:
            fail(f"factor[{i}]", 'must be {"c": int, "e": [...]}')
        if type(tm["c"]) is not int:
            fail(f"factor[{i}].c", "must be an integer")
        if not _int_list(tm["e"]):
            fail(f"factor[{i}].e", "must be a list of integers")
        terms.append((tm["c"], tuple(tm["e"])))
    alpha = doc.get("alpha")
    if alpha is not None:
        if not _int_list(alpha):
            fail("alpha", "must be a list of integers")
        alpha = tuple(alpha)
    try:
        cseq = CFiniteSeq(tuple(init), tuple(rec))
        spec = ProductSpec(P=tuple(P), seq=cseq, terms=tuple(terms))
        if alpha is not None:
            core.validate_alpha(alpha)
    except (ValueError, SpecValidationError) as exc:
        raise SpecFileError(f"{where}: {exc}") from exc
    return spec, alpha


def _resolve_alpha(args, file_alpha):
    if getattr(args, "alpha", None) is not None:
        try:
            return core.validate_alpha(args.alpha.split(","))
        except (ValueError, SpecValidationError) as exc:
            raise SpecFileError(f"--alpha {args.alpha}: {exc}") from exc
    if file_alpha is not None:
        return file_alpha
    raise SpecFileError("no alpha: give it in the spec file or with --alpha")


def _nonnegative(flag: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise SpecFileError(f"{flag} {value}: must be nonnegative")


def _gf_json(gf: gfs.RationalGF) -> dict:
    return {"num": list(gf.num), "den": list(gf.den)}


def _print_json(doc, stream) -> None:
    json.dump(doc, stream)
    stream.write("\n")


def _emit(doc: dict, pretty_gf: gfs.RationalGF | None, args) -> None:
    if getattr(args, "pretty", False) and pretty_gf is not None:
        doc = dict(doc)
        doc["pretty"] = str(pretty_gf)
    _print_json(doc, sys.stdout)


def _closed_system(args) -> closure.StateSystem | None:
    """Close the state space of the spec file at the requested alpha; on a
    state limit print the closure report to stderr and return None."""
    _nonnegative("--limit", args.limit)
    spec, file_alpha = load_spec_file(args.spec)
    alpha = _resolve_alpha(args, file_alpha)
    try:
        return closure.build_system(spec, alpha, limit=args.limit)
    except closure.LimitExceeded as exc:
        _print_json(exc.report.to_json(), sys.stderr)
        return None


def cmd_gf(args) -> int:
    sys_ = _closed_system(args)
    if sys_ is None:
        return EXIT_LIMIT
    method = "fit" if args.method == "auto" else args.method
    gf = closure.solve_gf(sys_, method=method)
    _emit({**_gf_json(gf), "dim": sys_.dim, "method": method}, gf, args)
    return EXIT_OK


def cmd_matrix(args) -> int:
    sys_ = _closed_system(args)
    if sys_ is None:
        return EXIT_LIMIT
    doc = {
        "dim": sys_.dim,
        "rows": [[[col, c] for col, c in row] for row in sys_.rows],
        "v": list(sys_.v),
        "root": sys_.root,
    }
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _print_json(doc, fh)
        except OSError as exc:
            raise SpecFileError(f"--out {args.out}: {exc.strerror or exc}") from exc
        doc = {"dim": sys_.dim, "written": args.out}
    _print_json(doc, sys.stdout)
    return EXIT_OK


def cmd_terms(args) -> int:
    _nonnegative("-n", args.n)
    sys_ = _closed_system(args)
    if sys_ is None:
        return EXIT_LIMIT
    terms = closure.stream_terms(sys_, args.n)
    _print_json(decimal_digit_counts(terms) if args.digits_only else terms, sys.stdout)
    return EXIT_OK


def cmd_oracle(args) -> int:
    _nonnegative("-n", args.n)
    spec, file_alpha = load_spec_file(args.spec)
    alpha = _resolve_alpha(args, file_alpha)
    _print_json(core.u_alpha_terms(spec, alpha, args.n), sys.stdout)
    return EXIT_OK


def cmd_guess(args) -> int:
    _nonnegative("-n", args.n)
    _nonnegative("--max-deg", args.max_deg)
    spec, file_alpha = load_spec_file(args.spec)
    alpha = _resolve_alpha(args, file_alpha)
    try:
        gf = closure.guess_gf(spec, alpha, args.n, max_den_deg=args.max_deg)
    except gfs.InsufficientTermsError as exc:
        sys.stderr.write(f"no admissible fit: {exc}\n")
        return EXIT_GUESS_FAILED
    if gf is None:
        sys.stderr.write("no admissible fit\n")
        return EXIT_GUESS_FAILED
    _emit(_gf_json(gf), gf, args)
    return EXIT_OK


def cmd_pv(args) -> int:
    spec, _ = load_spec_file(args.spec)
    res = pv_classify(spec.seq)
    doc = {
        "pv": True if res.kind == "pv" else (False if res.kind == "not_pv" else "undecided"),
        "reason": res.reason,
        "indicial": indicial_poly(spec.seq),
        "roots": [{"re": r, "im": i, "radius": rad} for r, i, rad in res.roots],
    }
    _print_json(doc, sys.stdout)
    return EXIT_OK


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)  # exact terms can be huge
    try:
        return args.func(args)
    except SpecFileError as exc:
        sys.stderr.write(f"invalid spec: {exc}\n")
        return EXIT_INVALID_SPEC
    except core.ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_COEFF_LIMIT


if __name__ == "__main__":
    raise SystemExit(main())
