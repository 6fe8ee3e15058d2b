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
import re
import sys
from types import SimpleNamespace

from . import closure, core, gfs
from .cfinite import CFiniteSeq, indicial_poly, pv_classify
from .core import ProductSpec, SpecValidationError

EXIT_OK = 0
EXIT_COEFF_LIMIT = 1
EXIT_LIMIT = 2
EXIT_GUESS_FAILED = 3
EXIT_INVALID_SPEC = 4
EXIT_USAGE = 2  # a usage error exits as argparse's do, with the state limit's code
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
_HELP = ("-h/--help", None, False, "show this help message and exit")
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


def _usage(cmd, page: bool = False) -> str:
    """The usage line of a command (None: of the top level); with page, its
    -h page: usage, what it does and one line per argument."""
    if cmd is None:
        words = ["[-h]", "{%s} ..." % ",".join(c[0] for c in COMMANDS)]
        rows = [(c[0], c[2]) for c in COMMANDS]
        about = "Exact generating functions for correlation sums of generalized Stern diatomic arrays."
    else:
        words, rows = [cmd[0], "[-h]"], [("spec", "JSON spec file")]
        for name, kind, default, text in cmd[3]:
            arg = name if kind is None else f"{name} " + (
                "{%s}" % ",".join(kind) if type(kind) is tuple else _dest(name).upper())
            words.append(arg if default is REQUIRED else f"[{arg}]")
            rows.append((arg, text))
        words.append("spec")
        about = "\n".join(line.strip() for line in (cmd[1].__doc__ or cmd[2]).splitlines())
    usage = "usage: sterngf " + " ".join(words)
    if not page:
        return usage
    rows.append(("-h, --help", _HELP[3]))
    width = max(len(r[0]) for r in rows)
    return "\n".join([usage, "", about, ""] + [f"  {a:<{width}}  {b}" for a, b in rows])


def _fail(cmd, msg: str):
    """A usage error: the usage line and the message on stderr, exit 2."""
    prog = "sterngf" if cmd is None else f"sterngf {cmd[0]}"
    sys.stderr.write(f"{_usage(cmd)}\n{prog}: error: {msg}\n")
    raise SystemExit(EXIT_USAGE)


def _command(name: str):
    for cmd in COMMANDS:
        if cmd[0] == name:
            return cmd
    _fail(None, f"argument command: invalid choice: {name!r} "
                f"(choose from {', '.join(repr(c[0]) for c in COMMANDS)})")


def _classify(cmd, opts: dict, s: str):
    """How one argument reads: None for a value (a word, "-", a negative
    number, text with a space), else (option, text attached by "=" or glued
    to a short option, or None), option None when unknown; a long option may
    be given by any unique prefix."""
    if not s.startswith("-") or s == "-":
        return None
    if s in opts:
        return s, None
    head, eq, tail = s.partition("=")
    if eq and head in opts:
        return head, tail
    if s[1] == "-":
        hits = [(name, tail if eq else None) for name in opts if name.startswith(head)]
    else:
        hits = [(s[:2], s[2:])] if s[:2] in opts else []
    if len(hits) > 1:
        _fail(cmd, f"ambiguous option: {s} could match {', '.join(h[0] for h in hits)}")
    if hits:
        return hits[0]
    return None if " " in s or re.match(r"^-\d+$|^-\d*\.\d+$", s) else (None, None)


def _option(cmd, opts: dict, argv: list, marks: list, i: int, ns: dict) -> int:
    """Apply the option at argv[i], after the flags glued before it (-hn5);
    returns the index of the next argument."""
    name, val = marks[i]
    steps = []
    while opts[name][1] is None and val is not None:  # a flag with text attached
        if name[1] == "-" or not val or "-" + val[0] not in opts:
            _fail(cmd, f"argument {opts[name][0]}: ignored explicit argument {val!r}")
        steps.append((name, None))
        name, val = "-" + val[0], val[1:] or None
    i += 1
    if opts[name][1] is not None and val is None:
        if i == len(marks) or marks[i] is not None:
            _fail(cmd, f"argument {name}: expected one argument")
        val, i = argv[i], i + 1
    for name, val in steps + [(name, val)]:
        _, kind, _, _ = opt = opts[name]
        if opt is _HELP:
            sys.stdout.write(_usage(cmd, page=True) + "\n")
            raise SystemExit(EXIT_OK)
        if kind is None:
            val = True
        elif val == "--":  # argparse's value for a bare "--", refused once all is read
            val = []
        elif kind is int:
            try:
                val = int(val)
            except ValueError:
                _fail(cmd, f"argument {name}: invalid int value: {val!r}")
        elif kind is not str and val not in kind:
            _fail(cmd, f"argument {name}: invalid choice: {val!r} "
                       f"(choose from {', '.join(map(repr, kind))})")
        ns[_dest(name)] = val
    return i


def parse_args(argv=None) -> SimpleNamespace:
    """Read the command line (sys.argv[1:] by default) as argparse did: the
    options before the command, then the command's spec and options in any
    order, the last of a repeated option winning, and only values after
    "--".  A usage error exits 2; -h/--help prints the help page, exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sep = argv.index("--") if "--" in argv else len(argv)
    cmd, opts, ns = None, {"-h": _HELP, "--help": _HELP}, {}
    marks, extras, spec_at, i = [None] * sep, [], None, 0
    while i < sep:
        if cmd is None:  # read the command's arguments only once it is known
            marks[i] = _classify(None, opts, argv[i])
        if marks[i] is not None and marks[i][0] is not None:
            i = _option(cmd, opts, argv, marks, i, ns)
            continue
        if marks[i] is None and cmd is None:
            cmd = _command(argv[i])
            opts.update((o[0], o) for o in cmd[3])
            ns = {"command": cmd[0], "func": cmd[1]}
            ns.update((_dest(o[0]), o[2]) for o in cmd[3] if o[2] is not REQUIRED)
            marks[i + 1:] = [_classify(cmd, opts, s) for s in argv[i + 1:sep]]
        elif marks[i] is None and spec_at is None:
            ns["spec"], spec_at = argv[i], i
        else:
            extras.append(argv[i])
        i += 1
    if cmd is None:
        if sep + 1 < len(argv):
            _command("--")  # a "--" before the command reads as the command
        _fail(None, "the following arguments are required: command")
    rest = argv[sep:]
    if len(rest) > 1 and spec_at is None:
        ns["spec"], spec_at, rest = rest[1], sep, rest[2:]
    elif rest and spec_at == sep - 1:  # a spec just before "--" takes it along
        rest = rest[1:]
    missing = ["spec"] * (spec_at is None) + [o[0] for o in cmd[3] if _dest(o[0]) not in ns]
    if missing:
        _fail(cmd, f"the following arguments are required: {', '.join(missing)}")
    if extras + rest:
        _fail(None, f"unrecognized arguments: {' '.join(extras + rest)}")
    for name, *_ in cmd[3]:
        if ns[_dest(name)] == []:
            _fail(cmd, f"argument {name}: expected one argument")
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    args = parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(INT_DIGITS_LIMIT)  # exact terms can be huge
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
