"""Start-up cost: numpy serves only the brute-force oracle, so importing the
package and every command that does not expand F_n run without loading it;
a command line in the usual form (the command, then the spec and options
spelled out in full, with plain values) is read without argparse, which
only a list in any other form loads.  Each case runs in a fresh
interpreter, where sys.modules shows what the start and the command
loaded."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import reference_parser
import sterngf

SRC = pathlib.Path(sterngf.__file__).parent.parent
BASE = str(SRC / "sterngf" / "cookbook" / "base_stern.json")
CHALLENGE = str(SRC / "sterngf" / "cookbook" / "challenge.json")

LOADED = ("numpy", "argparse")
REPORT = f"[m for m in {LOADED!r} if m in sys.modules]"  # which of them are loaded
RUN_MAIN = f"""
import contextlib, io, json, sys
from sterngf import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, err.getvalue(), {REPORT}]))
"""


def fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def run_main(*argv: str) -> tuple[int, str, list]:
    """cli.main(argv) in a fresh interpreter: exit code, stderr, and which of
    numpy and argparse were loaded by the end."""
    return tuple(json.loads(fresh(RUN_MAIN, json.dumps(argv))))


@pytest.mark.parametrize("module", ["sterngf", "sterngf.cli"])
def test_import_does_not_load_numpy(module):
    assert fresh(f"import sys, {module}; print({REPORT})") == "[]\n"


@pytest.mark.parametrize("argv", [
    ("matrix", BASE, "--alpha", "2"),
    ("gf", BASE, "--alpha", "2"),
    ("gf", BASE, "--alpha", "2", "--method", "eliminate"),
    ("terms", BASE, "--alpha", "2", "-n", "10"),    # M^n v: below 2*(2*dim+10) = 28
    ("terms", BASE, "--alpha", "2", "-n", "100"),   # the fitted recurrence
    ("pv", BASE),
    ("matrix", BASE, "--alpha", "2", "--limit", "50", "--out", "{tmp}/m.json"),
    ("gf", BASE, "--limit", "50", "--alpha", "2", "--method", "fit", "--pretty"),
    ("terms", BASE, "-n", "40", "--digits-only", "--alpha", "2", "--limit", "50"),
], ids=["matrix", "gf-fit", "gf-eliminate", "terms-stream", "terms-recurrence", "pv",
        "matrix-options", "gf-options", "terms-options"])
def test_commands_without_expansion_do_not_load_numpy(argv, tmp_path):
    assert run_main(*(a.format(tmp=tmp_path) for a in argv)) == (0, "", [])


PARSE = f"""
import json, sys
from sterngf import cli
args = vars(cli.parse_args(json.loads(sys.argv[1])))
args["func"] = args["func"].__name__
print(json.dumps([args, {REPORT}]))
"""


def test_argv_in_another_form_loads_argparse_and_reads_as_the_reference():
    argv = ["terms", BASE, "--lim", "5", "-n5"]
    got, loaded = json.loads(fresh(PARSE, json.dumps(argv)))
    want = vars(reference_parser.build_parser().parse_args(argv))
    assert loaded == ["argparse"] and got == {**want, "func": want["func"].__name__}


def test_over_limit_oracle_exits_before_loading_numpy():
    code, err, loaded = run_main("oracle", CHALLENGE, "--alpha", "2", "-n", "40")
    assert (code, loaded) == (1, [])
    assert err.startswith("resource limit: F_27 needs")


@pytest.mark.parametrize("argv", [
    ("oracle", BASE, "-n", "8"),
    ("guess", BASE, "--alpha", "10", "-n", "15"),
    ("guess", BASE, "--max-deg", "6", "--alpha", "10", "-n", "15", "--pretty"),
], ids=["oracle", "guess", "guess-options"])
def test_oracle_commands_use_the_int64_kernel(argv):
    """In-guard expansions keep the numpy kernel; losing it would slow every
    oracle request."""
    assert run_main(*argv) == (0, "", ["numpy"])
