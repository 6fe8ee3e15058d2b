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
limit, 2 state limit or usage error, 3 guess failed, 4 invalid spec file or
argument.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache, partial
from types import SimpleNamespace

from . import closure, core, gfs
from .cfinite import CFiniteSeq, indicial_poly, pv_classify
from .core import ProductSpec, SpecValidationError

EXIT_OK = 0
EXIT_COEFF_LIMIT = 1
EXIT_LIMIT = 2
EXIT_GUESS_FAILED = 3
EXIT_INVALID_SPEC = 4
INT_DIGITS_LIMIT = 2_000_000  # decimal digits of the largest integer printed

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


def _rendered(render, value):
    """render(value), where render writes integers as decimal text; an
    integer over INT_DIGITS_LIMIT digits is a resource limit, raised before
    anything is written."""
    try:
        return render(value)
    except ValueError as exc:  # the interpreter's int-to-str guard, set by main
        raise core.ResourceLimitError(
            f"an integer to print has more than {INT_DIGITS_LIMIT} decimal digits") from exc


def _decimals(terms: list[int]) -> list[str]:
    """Each term as json.dumps writes it."""
    return _rendered(list, map(str, terms))


def _print_json(doc, stream) -> None:
    # one-shot dumps runs the C encoder; dump never does
    stream.write(_rendered(json.dumps, doc) + "\n")


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
        text = _rendered(json.dumps, doc) + "\n"
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecFileError(f"--out {args.out}: {exc.strerror or exc}") from exc
        doc = {"dim": sys_.dim, "written": args.out}
    _print_json(doc, sys.stdout)
    return EXIT_OK


def cmd_terms(args) -> int:
    """Exact terms u(0..n) at the root state.  Fewer than twice the 2*dim+10
    terms of the gf fit are streamed as M^n v; longer runs extend the fitted
    gf, proven by its degree bound, through den * U = num, with no division
    since den(0) = 1 for an integer series (Fatou)."""
    _nonnegative("-n", args.n)
    sys_ = _closed_system(args)
    if sys_ is None:
        return EXIT_LIMIT
    if args.digits_only:
        text = json.dumps(closure.rendered_terms(sys_, args.n, "digits", decimal_digit_counts))
    else:  # json.dumps of the int list, byte for byte
        text = "[" + ", ".join(closure.rendered_terms(sys_, args.n, "decimal", _decimals)) + "]"
    sys.stdout.write(text + "\n")
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


# The command table: (name, function, help line, options after the spec
# positional).  An option is (name, kind, default, help): kind int or str if
# it takes a value, a tuple of the values it may take, None for a flag; an
# option whose default is REQUIRED must be given.
REQUIRED = object()
_ALPHA = ("--alpha", str, None, "correlation pattern, e.g. 2 or 1,1,1")
_LIMIT = ("--limit", int, 5000, "state budget before declaring failure")
_N = ("-n", int, REQUIRED, "last index to produce")
_PRETTY = ("--pretty", None, False, 'add the generating function as text, under "pretty"')
COMMANDS = (
    ("gf", cmd_gf, "closed-form generating function via state closure",
     (_ALPHA, _LIMIT,
      ("--method", ("auto", "eliminate", "fit"), "auto",
       "fit streams 2*dim+10 terms and reconstructs (auto is fit); "
       "eliminate is Cramer's rule over a Berkowitz determinant"),
      _PRETTY)),
    ("matrix", cmd_matrix, "transfer matrix and initial vector",
     (_ALPHA, _LIMIT, ("--out", str, None, "write the matrix JSON to this file"))),
    ("terms", cmd_terms, "stream exact sequence terms from the matrix",
     (_ALPHA, _LIMIT, _N,
      ("--digits-only", None, False, "print decimal digit counts instead of values"))),
    ("oracle", cmd_oracle, "brute-force terms straight from the definition", (_ALPHA, _N)),
    ("guess", cmd_guess, "fit a generating function to brute-force data",
     (_ALPHA, ("-n", int, REQUIRED, "data points 0..n"),
      ("--max-deg", int, None, "denominator degree bound (default: largest certifiable)"),
      _PRETTY)),
    ("pv", cmd_pv, "classify the exponent sequence's dominant root", ()),
)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _usual(argv: list):
    """The namespace of argv in its usual form, which argparse reads without
    ambiguity: the command, then one spec and the command's options, each
    spelled out in full, the required ones included, and each value a word
    not starting with "-" that int() or the choice list accepts; None for
    any other form."""
    cmd = next((c for c in COMMANDS if argv and c[0] == argv[0]), None)
    if cmd is None:
        return None
    opts = {o[0]: o for o in cmd[3]}
    ns = {"command": cmd[0], "func": cmd[1], **{_dest(o[0]): o[2] for o in cmd[3]}}
    spec, rest = [], iter(argv[1:])
    for s in rest:
        if not s.startswith("-"):
            spec.append(s)
            continue
        if s not in opts:
            return None
        kind, val = opts[s][1], True
        if kind is not None:
            val = next(rest, "-")
            if val.startswith("-") or type(kind) is tuple and val not in kind:
                return None
            if kind is int:
                try:
                    val = int(val)
                except ValueError:
                    return None
        ns[_dest(s)] = val
    if len(spec) != 1 or REQUIRED in ns.values():
        return None
    return SimpleNamespace(spec=spec[0], **ns)


@lru_cache(maxsize=1)
def _argparse():
    """The argparse parser of COMMANDS and its command parsers by name, built
    on first use; its pages are wide, so a usage line stays on one line."""
    import argparse
    wide = partial(argparse.RawDescriptionHelpFormatter, width=1 << 16)
    top = argparse.ArgumentParser(
        prog="sterngf", formatter_class=wide,
        description="Exact generating functions for correlation sums of "
                    "generalized Stern diatomic arrays.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, func, text, opts in COMMANDS:
        about = "\n".join(line.strip() for line in (func.__doc__ or text).splitlines())
        p = sub.add_parser(name, help=text, description=about, formatter_class=wide)
        p.add_argument("spec", help="JSON spec file")
        for opt, kind, default, help_ in opts:
            if kind is None:
                p.add_argument(opt, action="store_true", help=help_)
            else:
                p.add_argument(opt, type=int if kind is int else None, default=default, help=help_,
                               choices=kind if type(kind) is tuple else None,
                               required=default is REQUIRED)
        p.set_defaults(func=func)
    return top, sub.choices


def parse_args(argv=None):
    """Read the command line (sys.argv[1:] by default) as argparse reads it;
    argparse itself is loaded only for a list not in the usual form.  A
    usage error exits 2; -h/--help prints the help page, exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _usual(argv)
    if args is None:
        top, commands = _argparse()
        args = top.parse_args(argv)
        for name, *_ in next(c for c in COMMANDS if c[0] == args.command)[3]:
            if getattr(args, _dest(name)) == []:  # argparse's value for "--alpha=--"
                commands[args.command].error(f"argument {name}: expected one argument")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    guard = getattr(sys, "get_int_max_str_digits", lambda: None)()  # CPython >= 3.10.7
    if guard is not None:  # exact terms can be huge; restored when this call ends
        sys.set_int_max_str_digits(INT_DIGITS_LIMIT)
    try:
        return args.func(args)
    except SpecFileError as exc:
        sys.stderr.write(f"invalid spec: {exc}\n")
        return EXIT_INVALID_SPEC
    except core.ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_COEFF_LIMIT
    finally:
        if guard is not None:
            sys.set_int_max_str_digits(guard)


if __name__ == "__main__":
    raise SystemExit(main())
