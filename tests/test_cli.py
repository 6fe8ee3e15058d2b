import json
import pathlib
import random

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
    monkeypatch.setattr(core, "u_alpha_oracle", lambda *a, **k: calls.append(a))
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


@pytest.mark.parametrize("alpha", ["0,1", "1,0", "-1", "x"])
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
