"""The command line reads as argparse reads it: `cli.parse_args`, which
reads a list in the usual form itself and hands any other to argparse,
against the argparse parser in `reference_parser`, on a seeded draw of
argument lists and on one list per command in the usual form.  Both must
reject a list (exit 2, with a usage line and an error line on stderr) or
both accept it with the same namespace; for -h/--help both exit 0."""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_parser
from sterngf import cli

OPTIONS = {
    "gf": ["--alpha", "--limit", "--method", "--pretty"],
    "matrix": ["--alpha", "--limit", "--out"],
    "terms": ["--alpha", "--limit", "-n", "--digits-only"],
    "oracle": ["--alpha", "-n"],
    "guess": ["--alpha", "-n", "--max-deg", "--pretty"],
    "pv": [],
}
NAMES = sorted({name for names in OPTIONS.values() for name in names} | {"-h", "--help"})
VALUES = ["5", "0", "12", "-5", "-1.5", "-.5", "+3", "5.0", "x", "1,1", "-1,1", "-1 1",
          " 7", "1_0", "٣", "", "-", "-x", "--", "auto", "fit", "eliminate", "bogus"]

value = st.one_of(st.sampled_from(["3", "12", "fit"]), st.sampled_from(VALUES))
name = st.sampled_from(NAMES)
prefix = name.flatmap(lambda n: st.integers(2, len(n)).map(lambda k: n[:k]))
token = st.one_of(
    name, prefix, value,
    st.tuples(st.one_of(name, prefix), value).map("=".join),                 # --opt=value
    st.tuples(st.sampled_from(["-n", "-h", "-x", "-hn", "-hh"]), value).map("".join),  # -n5
    st.sampled_from(["--", "--bogus", "-x", "---", "--=x", "--=", "s.json"]),
)


@st.composite
def argvs(draw):
    argv = draw(st.lists(token, max_size=2)) if draw(st.integers(0, 9)) == 0 else []
    cmd = draw(st.sampled_from(list(OPTIONS) * 4 + ["bogus", "", None]))
    if cmd is not None:
        argv.append(cmd)
    own = st.sampled_from(OPTIONS.get(cmd) or NAMES)
    pair = st.tuples(own, value)
    if "-n" in OPTIONS.get(cmd, ()) and draw(st.integers(0, 3)):
        argv += ["-n", draw(st.sampled_from(["3", "12", "+0", "-2", "x"]))]
    for part in draw(st.lists(st.one_of(pair, pair, st.tuples(token)), max_size=6)):
        argv.extend(part)
    if draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(min(1, len(argv)), len(argv))), "s.json")
    return argv


def outcome(parse, argv):
    """(namespace as a dict, or the exit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parse(argv))
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(argvs())
@example(["terms", "s.json", "--lim", "5", "-n5", "--dig"])
@example(["terms", "s.json", "-n=5", "--limit=-5", "--alpha", "-1 1"])
@example(["gf", "--", "--"])
@example(["gf", "s.json", "--alpha", "2", "--"])
@example(["gf", "s.json", "--"])
@example(["gf", "s.json", "-h="])
@example(["-hh"])
@example(["gf", "s.json", "--=x"])
@example(["guess", "s.json", "-n", "3", "-n", "-7", "--max-deg=2", "--pr"])
@example(["terms", "s.json", "-hn5"])
@example(["--alpha=--", "gf", "s.json"])
@example(["gf", "s.json", "--alpha=--"])
@example(["oracle", "s.json", "-n--", "-n", "4"])
def test_parse_args_reads_argv_as_argparse_did(argv):
    want = outcome(lambda a: reference_parser.build_parser().parse_args(a), argv)[0]
    got, _, err = outcome(cli.parse_args, argv)
    if isinstance(want, dict) and [] in want.values():
        # argparse stores [] for an option whose value is a bare "--"
        # (`--alpha=--`, `-n--`), which no command can read: refused instead
        assert got == 2
    else:
        assert got == want
    if got == 2:
        assert re.match(r"usage: sterngf [^\n]*\nsterngf( \w+)?: error: ", err), err


USUAL = {
    "gf": ["gf", "s.json", "--alpha", "1,1", "--limit", "7", "--method", "eliminate", "--pretty"],
    "matrix": ["matrix", "--alpha", "2", "s.json", "--limit", "+3", "--out", "m.json"],
    "terms": ["terms", "s.json", "--digits-only", "--alpha", "2", "--limit", "9", "-n", "12"],
    "oracle": ["oracle", "-n", "3", "s.json", "--alpha", "2", "-n", "4"],
    "guess": ["guess", "s.json", "--alpha", "2", "-n", "15", "--max-deg", "4", "--pretty"],
    "pv": ["pv", "s.json"],
}


@pytest.mark.parametrize("argv", USUAL.values(), ids=USUAL)
def test_usual_argv_is_read_as_argparse_reads_it_without_argparse(monkeypatch, argv):
    def refuse():
        raise AssertionError(f"argparse was asked to read {argv}")

    monkeypatch.setattr(cli, "_argparse", refuse)
    want = reference_parser.build_parser().parse_args(argv)
    assert vars(cli.parse_args(argv)) == vars(want)


def test_help_pages_list_every_command_and_option_with_its_help():
    code, page, _ = outcome(cli.parse_args, ["--help"])
    assert code == 0 and page.startswith("usage: sterngf [-h] {gf,matrix,")
    assert all(f"  {cmd} " in page and text in page for cmd, _, text, _ in cli.COMMANDS)
    for cmd, _, _, opts in cli.COMMANDS:
        code, page, _ = outcome(cli.parse_args, [cmd, "-h"])
        assert code == 0 and page.startswith(f"usage: sterngf {cmd} [-h]")
        assert all(opt[0] in page and opt[3] in page for opt in opts)
        assert "JSON spec file" in page and "show this help message and exit" in page
