import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from sterngf import cli, core

COOKBOOK = pathlib.Path(cli.__file__).parent / "cookbook"


def cookbook(name: str) -> str:
    return str(COOKBOOK / name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cookbook_specs_parse_and_round_trip():
    for path in sorted(COOKBOOK.glob("*.json")):
        spec, alpha = cli.load_spec_file(str(path))
        doc = json.loads(path.read_text())
        spec2, alpha2 = cli.parse_spec(doc)
        assert spec2 == spec and alpha2 == alpha, path.name
        assert list(spec.P) == doc.get("P", [1]), path.name
        assert spec.seq.init == tuple(doc["seq"]["init"]), path.name
        assert spec.seq.rec == tuple(doc["seq"]["rec"]), path.name
        assert [{"c": c, "e": list(e)} for c, e in spec.terms] == doc["factor"], path.name
        assert alpha == (None if "alpha" not in doc else tuple(doc["alpha"])), path.name


def test_gf_base_stern(capsys):
    code, out, _ = run(capsys, "gf", cookbook("base_stern.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["num"] == [1, -2]
    assert doc["den"] == [1, -5, 2]
    assert doc["dim"] == 2
    assert doc["method"] == "fit"


def test_gf_alpha_override_and_pretty(capsys):
    code, out, _ = run(capsys, "gf", cookbook("base_stern.json"),
                       "--alpha", "5", "--pretty")
    assert code == 0
    doc = json.loads(out)
    assert doc["num"] == [1, -11, -20]
    assert doc["den"] == [1, -14, -47]
    assert "t^2" in doc["pretty"]


def test_gf_limit_exceeded_exit_2(capsys):
    code, out, err = run(capsys, "gf", cookbook("challenge.json"), "--limit", "150")
    assert code == 2
    assert out == ""
    rep = json.loads(err)
    assert rep["outcome"] == "limit_exceeded"
    assert rep["state_count"] > 150


def test_matrix_base(capsys, tmp_path):
    code, out, _ = run(capsys, "matrix", cookbook("base_stern.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"dim": 2, "rows": [[[0, 3], [1, 4]], [[0, 1], [1, 2]]],
                   "v": [1, 0], "root": 0}
    outfile = tmp_path / "m.json"
    code, out, _ = run(capsys, "matrix", cookbook("base_stern.json"), "--out", str(outfile))
    assert code == 0
    assert json.loads(outfile.read_text())["dim"] == 2


def test_matrix_out_unwritable_exit_4(capsys, tmp_path):
    target = tmp_path / "missing" / "m.json"
    code, out, err = run(capsys, "matrix", cookbook("base_stern.json"), "--out", str(target))
    assert (code, out) == (4, "")
    assert err == f"invalid spec: --out {target}: No such file or directory\n"


def test_matrix_alpha_one(capsys):
    code, out, _ = run(capsys, "matrix", cookbook("base_stern.json"), "--alpha", "1")
    assert json.loads(out)["dim"] == 1


def test_terms_and_digits(capsys):
    code, out, _ = run(capsys, "terms", cookbook("base_stern.json"), "-n", "4")
    assert code == 0
    assert json.loads(out) == [1, 3, 13, 59, 269]
    code, out, _ = run(capsys, "terms", cookbook("base_stern.json"), "-n", "4",
                       "--digits-only")
    assert json.loads(out) == [1, 1, 2, 2, 3]


def test_terms_alpha_one(capsys):
    code, out, _ = run(capsys, "terms", cookbook("base_stern.json"),
                       "--alpha", "1", "-n", "3")
    assert json.loads(out) == [1, 3, 9, 27]


def test_oracle_base(capsys):
    code, out, _ = run(capsys, "oracle", cookbook("base_stern.json"), "-n", "3")
    assert code == 0
    assert json.loads(out) == [1, 3, 13, 59]


def test_oracle_n_zero(capsys):
    code, out, _ = run(capsys, "oracle", cookbook("base_stern.json"), "-n", "0")
    assert json.loads(out) == [1]


@pytest.mark.parametrize("cmd", ["oracle", "guess"])
def test_resource_limit_reported_before_any_expansion(capsys, monkeypatch, cmd):
    # F_30 of tribonacci is the first level over the default limit; the
    # limit is known from the degree bound, so no level is expanded
    calls = []
    monkeypatch.setattr(core, "state_oracle", lambda *a, **k: calls.append(a))
    code, out, err = run(capsys, cmd, cookbook("tribonacci.json"),
                         "--alpha", "1", "-n", "40")
    assert (code, out, calls) == (1, "", [])
    assert err == ("resource limit: F_30 needs 280947695 coefficients "
                   "(limit 268435456)\n")


def test_oracle_over_coefficient_limit_exit_1(capsys):
    code, out, err = run(capsys, "oracle", cookbook("challenge.json"),
                         "--alpha", "2", "-n", "40")
    assert (code, out) == (1, "")
    assert err == ("resource limit: F_27 needs 268435482 coefficients "
                   "(limit 268435456)\n")


def test_oracle_of_equal_factors_takes_one_power_per_slice(capsys):
    """20000 equal factors share one slice of F_n, so the Python-integer sum
    raises each coefficient to one power; the four terms (1, 1, 6021 and
    9544 digits) are the ones a product of 20000 slices gives."""
    code, out, err = run(capsys, "oracle", cookbook("base_stern.json"),
                         "--alpha", "20000", "-n", "3")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "115bdb68c366154004d030bd89b45ada4240b039d7c2cb33b574d7cb86b4de12")


@pytest.fixture
def int_str_guard():
    """Restores the interpreter's int-to-str guard, which main sets."""
    saved = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("argv", [
    ["terms", "base_stern.json", "--alpha", "5", "-n", "1000"],  # u(1000) has 1184 digits
    ["oracle", "base_stern.json", "--alpha", "2000", "-n", "3"],  # 3^2000 has 955
], ids=["terms", "oracle"])
def test_term_over_the_digit_guard_is_a_resource_limit(capsys, monkeypatch, int_str_guard,
                                                       argv):
    """A term too long to print is reported on one stderr line with exit 1,
    and nothing is written to stdout."""
    monkeypatch.setattr(cli, "INT_DIGITS_LIMIT", 640)  # CPython's least guard
    core._cache.cache_clear()  # a kept decimal view would be served as it is
    code, out, err = run(capsys, argv[0], cookbook(argv[1]), *argv[2:])
    assert (code, out) == (1, "")
    assert err == "resource limit: an integer to print has more than 640 decimal digits\n"
    digits = run(capsys, "terms", cookbook("base_stern.json"), "--alpha", "5", "-n", "1000",
                 "--digits-only")
    assert digits[0] == 0 and max(json.loads(digits[1])) > 640  # counts need no text
    core._cache.cache_clear()


def test_oracle_of_a_million_equal_factors_ends_in_time():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(COOKBOOK.parents[1]),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "sterngf", "oracle", cookbook("base_stern.json"),
                           "--alpha", "1000000", "-n", "3"],
                          env=env, capture_output=True, text=True, timeout=15)
    if done.returncode == 0:
        assert done.stderr == ""
        assert done.stdout.startswith("[1, 3, ") and done.stdout.count(",") == 3
    else:
        assert done.returncode == 1 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1


def test_matrix_with_too_many_picks_exit_1(capsys, tmp_path):
    """A root state whose first evolution step would fill more than
    PICK_LIMIT factor slots, multiset picks times factors, is refused before
    any pick is made, however small --limit is: twenty distinct factors over
    three terms make 3^20 picks, 400 and 1400 equal factors C(402, 2) and
    C(1402, 2), and 24 equal factors over ten terms C(33, 24)."""
    for alpha, m, picks in [(",".join(["1"] * 20), 20, 3486784401), ("400", 400, 80601),
                            ("1400", 1400, 982101)]:
        code, out, err = run(capsys, "matrix", cookbook("base_stern.json"),
                             "--alpha", alpha, "--limit", "5")
        assert (code, out) == (1, "")
        assert err == (f"resource limit: a state of {m} factors needs {picks} picks, "
                       f"{picks * m} factor slots (limit 1048576)\n")
    path = tmp_path / "ten_terms.json"
    path.write_text(json.dumps({"P": [1], "seq": {"init": [1], "rec": [2]},
                                "factor": [{"c": 1, "e": [e]} for e in range(10)]}))
    code, out, err = run(capsys, "matrix", str(path), "--alpha", "24", "--limit", "5")
    assert (code, out) == (1, "")
    assert err == ("resource limit: a state of 24 factors needs 38567100 picks, "
                   "925610400 factor slots (limit 1048576)\n")


@pytest.mark.parametrize("argv", [
    ["matrix", "--alpha", "100000000", "--limit", "5"],
    ["oracle", "--alpha", str(core.PICK_LIMIT + 1), "-n", "3"],
])
def test_pattern_with_too_many_factors_exit_1(capsys, argv):
    """A pattern of more than PICK_LIMIT factors is refused before its root
    state is built, for the closure and for the brute-force oracle alike."""
    cmd, *rest = argv
    code, out, err = run(capsys, cmd, cookbook("base_stern.json"), *rest)
    assert (code, out) == (1, "")
    count = int(rest[1])
    assert err == f"resource limit: a pattern of {count} factors (limit {core.PICK_LIMIT})\n"


def test_guess_u10(capsys):
    code, out, _ = run(capsys, "guess", cookbook("base_stern.json"),
                       "--alpha", "10", "-n", "15")
    assert code == 0
    doc = json.loads(out)
    assert doc["num"] == [1, -96, -7945, -1852, -4]
    assert doc["den"] == [1, -99, -9701, -9801, -196, 4]


def test_guess_failure_exit_3(capsys):
    code, out, err = run(capsys, "guess", cookbook("challenge.json"),
                         "-n", "23", "--max-deg", "9")
    assert code == 3
    assert out == ""


def test_pv_fibonacci(capsys):
    code, out, _ = run(capsys, "pv", cookbook("fibonacci.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["pv"] is True


def test_pv_challenge(capsys):
    code, out, _ = run(capsys, "pv", cookbook("challenge.json"))
    doc = json.loads(out)
    assert doc["pv"] is False
    assert "modulus 1" in doc["reason"]


def test_pv_base(capsys):
    code, out, _ = run(capsys, "pv", cookbook("base_stern.json"))
    assert json.loads(out)["pv"] is True


def test_invalid_spec_exit_4(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"P": [1], "seq": {"init": [1], "rec": [2]}, "factor": []}')
    code, _, err = run(capsys, "gf", str(bad))
    assert code == 4
    assert "factor" in err

    bad.write_text('{"P": [1], "seq"')
    code, _, err = run(capsys, "gf", str(bad))
    assert code == 4

    bad.write_text('{"P": [1], "seq": {"init": [1], "rec": [2]}, '
                   '"factor": [{"c": 1, "e": [0]}], "alpha": [0, 1]}')
    code, _, err = run(capsys, "gf", str(bad))
    assert code == 4


@pytest.mark.parametrize("content,reason", [
    (b'{"P": [1], "seq": "\xff"}', "not UTF-8"),
    (b"[" * 10 ** 5 + b"]" * 10 ** 5, "nested too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_unreadable_spec_file_exit_4(capsys, tmp_path, content, reason):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "gf", str(path))
    assert (code, out) == (4, "")
    assert err.startswith(f"invalid spec: {path}: ") and reason in err
    assert err.count("\n") == 1


BASE_DOC = {"P": [1], "seq": {"init": [1], "rec": [2]},
            "factor": [{"c": 1, "e": [0]}, {"c": 1, "e": [1]}, {"c": 1, "e": [2]}],
            "alpha": [2]}


@pytest.mark.parametrize("field", ["P", "seq.init", "seq.rec", "factor[1].c",
                                   "factor[1].e", "alpha"])
def test_json_booleans_are_not_integers(capsys, tmp_path, field):
    doc = json.loads(json.dumps(BASE_DOC))
    {"P": lambda: doc.update(P=[True]),
     "seq.init": lambda: doc["seq"].update(init=[True]),
     "seq.rec": lambda: doc["seq"].update(rec=[True]),
     "factor[1].c": lambda: doc["factor"][1].update(c=True),
     "factor[1].e": lambda: doc["factor"][1].update(e=[False]),
     "alpha": lambda: doc.update(alpha=[True])}[field]()
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gf", str(path))
    assert (code, out) == (4, "")
    assert err.startswith(f"invalid spec: {path}: {field}: must be ")


@pytest.mark.parametrize("alpha", ["0,1", "1,0", "-1", "x", ""])
@pytest.mark.parametrize("cmd", ["gf", "terms", "oracle", "guess"])
def test_invalid_alpha_option_exit_4(capsys, cmd, alpha):
    extra = [] if cmd == "gf" else ["-n", "3"]
    code, out, err = run(capsys, cmd, cookbook("base_stern.json"),
                         f"--alpha={alpha}", *extra)
    assert (code, out) == (4, "")
    assert err.startswith(f"invalid spec: --alpha {alpha}: ")


@pytest.mark.parametrize("args", [
    ["terms", "--alpha", "2", "-n", "-1"],
    ["oracle", "-n", "-1"],
    ["guess", "-n", "-1"],
    ["guess", "-n", "20", "--max-deg", "-1"],
    ["gf", "--alpha", "2", "--limit", "-3"],
    ["matrix", "--alpha", "2", "--limit", "-3"],
    ["terms", "--alpha", "2", "-n", "5", "--limit", "-3"],
])
def test_negative_count_exit_4(capsys, args):
    code, out, err = run(capsys, args[0], cookbook("base_stern.json"), *args[1:])
    assert (code, out) == (4, "")
    flag, value = args[-2:]
    assert err == f"invalid spec: {flag} {value}: must be nonnegative\n"


@pytest.mark.parametrize("args", [["-n", "2"], ["-n", "20", "--max-deg", "50"]])
def test_guess_window_too_short_exit_3(capsys, args):
    code, out, err = run(capsys, "guess", cookbook("base_stern.json"), *args)
    assert (code, out) == (3, "")
    assert err.startswith("no admissible fit: ") and "cannot certify" in err


def signed_fibonacci(tmp_path, e):
    """The Fibonacci cookbook spec with its last exponent vector replaced."""
    doc = json.loads((COOKBOOK / "fibonacci.json").read_text())
    doc["factor"][-1]["e"] = e
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_signed_exponent_form_is_accepted(capsys, tmp_path):
    # f(i+1) - f(i) = f(i-1) >= 0: a signed vector with a nonnegative form
    path = signed_fibonacci(tmp_path, [-1, 1])
    code, out, _ = run(capsys, "gf", path)
    assert code == 0
    gf = json.loads(out)
    code, out, _ = run(capsys, "guess", path, "-n", "20")
    assert code == 0
    assert json.loads(out) == {"num": gf["num"], "den": gf["den"]}
    code, terms, _ = run(capsys, "terms", path, "-n", "12")
    assert code == 0
    assert run(capsys, "oracle", path, "-n", "12") == (0, terms, "")


def test_negative_exponent_form_exit_4(capsys, tmp_path):
    path = signed_fibonacci(tmp_path, [1, -1])
    code, out, err = run(capsys, "gf", path)
    assert (code, out) == (4, "")
    assert err == f"invalid spec: {path}: exponent form (1, -1) is negative at level 0\n"


def test_missing_alpha_is_invalid(capsys, tmp_path):
    doc = {"P": [1], "seq": {"init": [1], "rec": [2]},
           "factor": [{"c": 1, "e": [0]}, {"c": 1, "e": [1]}, {"c": 1, "e": [2]}]}
    p = tmp_path / "noalpha.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "gf", str(p))
    assert code == 4
    assert "alpha" in err


def test_decimal_digit_counts_match_string_lengths():
    rng = random.Random(13)
    terms = [0, 9, 10, 99, 100, -1000, 10 ** 50 - 1, 10 ** 50, 0, 10 ** 400, 7]
    terms += [rng.randint(-10 ** rng.randint(0, 300), 10 ** rng.randint(0, 300))
              for _ in range(500)]
    growing = [3 ** k for k in range(2000)]
    for seq in (terms, growing):
        want = [len(str(abs(t))) for t in seq]
        assert cli.decimal_digit_counts(seq) == want
        assert [cli.decimal_digit_counts([t])[0] for t in seq] == want


FRESH_MAIN = """
import contextlib, io, json, sys
from sterngf import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def in_fresh_process(*argv):
    """cli.main(argv) in a new interpreter: exit code, stdout, stderr."""
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(done.stdout))


def test_main_keeps_no_state_between_calls(capsys, tmp_path):
    """A call of main after any other call in the process, a usage error or
    a help page included, prints what it prints in a fresh process."""
    base = cookbook("base_stern.json")
    histories = [
        (["gf", base, "--pretty"], ["gf", base]),
        (["terms", base, "-n", "6", "--digits-only"], ["terms", base, "-n", "6"]),
        (["matrix", base, "--out", str(tmp_path / "m.json")], ["matrix", base]),
        (["gf", base, "--method", "bogus"], ["gf", base]),
        (["terms", base, "--limit", "7"], ["terms", base, "-n", "6"]),
        (["gf", base, "--alpha=--"], ["gf", base]),
        (["matrix", "-h"], ["matrix", base]),
    ]
    fresh = {}
    for first, second in histories:
        try:
            run(capsys, *first)
        except SystemExit as exc:
            assert exc.code in (0, 2)
            capsys.readouterr()
        if tuple(second) not in fresh:
            fresh[tuple(second)] = in_fresh_process(*second)
        assert run(capsys, *second) == fresh[tuple(second)], first
    doc = json.loads(fresh[("gf", base)][1])
    assert "pretty" not in doc and doc["dim"] == 2
