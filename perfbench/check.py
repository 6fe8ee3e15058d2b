"""Output checker: every op's output against an independent oracle.

Run as `python3 perfbench/check.py RECORDS RESULTS` with `src` on PYTHONPATH,
after all timing is done, in its own interpreter so that the oracles neither
warm the program's caches nor raise the workers' peak memory.  RECORDS is a
JSON list of {"key", "op", "rc", "out_file", "err", "exc"}; RESULTS receives
{key: null | "reason the output is wrong"}.

Oracles:
- `gf`, `guess`: the series of the emitted generating function against
  `core.u_alpha_oracle` for small n; base_stern GFs against the published
  closed forms; `guess` results also against the closure's GF.
- `matrix`: terms streamed here from the emitted rows and v against
  `core.u_alpha_oracle` for small n (never the dimension, which a sound
  pruning improvement may lower); the challenge spec must exit 2 with a
  limit_exceeded report.
- `terms`: the prefix against `core.u_alpha_oracle`, and every term (or its
  digit count) against the series of a reference GF: the closed form for
  base_stern, else the closure's GF after its own check against the oracle.
- `oracle`: against a brute-force expansion written here with numpy.
- `pv`: the known verdict of each cookbook sequence and its indicial
  polynomial.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache

import numpy as np

from sterngf import closure, core
from sterngf.cfinite import CFiniteSeq

import workloads

# terms compared with core.u_alpha_oracle, sized so that F_n stays small
PREFIX = {"base_stern": 13, "fibonacci": 16, "tribonacci": 12,
          "quadonacci": 10, "pentanacci": 9, "challenge": 12}


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# published closed forms of base Stern correlation GFs (num, den)
CLOSED = {
    ("base_stern", (2,)): ([1, -2], [1, -5, 2]),
    ("base_stern", (5,)): ([-1, 11, 20], [-1, 14, 47]),
    ("base_stern", (1, 1, 1, 1, 1)): (
        _mul([0, 0, 1], [12, 84, 276, 220, -16]),
        _mul(_mul([-1, 1], [-1, 1]), _mul([-1, 1], [-1, 14, 47]))),
}
PV = {"base_stern": True, "fibonacci": True, "tribonacci": True,
      "quadonacci": True, "pentanacci": True, "challenge": False}


class Wrong(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise Wrong(msg)


@lru_cache(maxsize=None)
def spec_doc(name):
    with open(workloads.COOKBOOK.format(name), encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def product_spec(name):
    d = spec_doc(name)
    return core.ProductSpec(
        P=tuple(d["P"]), seq=CFiniteSeq(tuple(d["seq"]["init"]), tuple(d["seq"]["rec"])),
        terms=tuple((t["c"], tuple(t["e"])) for t in d["factor"]))


@lru_cache(maxsize=None)
def oracle_terms(name, alpha):
    return tuple(core.u_alpha_oracle(product_spec(name), alpha, n)
                 for n in range(PREFIX[name]))


def series(num, den, count):
    """Exact integer Taylor coefficients of num/den (den(0) != 0)."""
    out = []
    for n in range(count):
        s = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            s -= den[i] * out[n - i]
        q, r = divmod(s, den[0])
        need(r == 0, f"series coefficient {n} is not an integer")
        out.append(q)
    return out


def same_gf(a, b):
    (n1, d1), (n2, d2) = a, b
    p, q = _mul(n1, d2), _mul(n2, d1)
    width = max(len(p), len(q))
    return p + [0] * (width - len(p)) == q + [0] * (width - len(q))


@lru_cache(maxsize=None)
def reference_gf(name, alpha):
    if (name, alpha) in CLOSED:
        return CLOSED[(name, alpha)]
    gf = closure.solve_gf(closure.build_system(product_spec(name), alpha))
    ref = (list(gf.num), list(gf.den))
    need(series(*ref, PREFIX[name]) == list(oracle_terms(name, alpha)),
         "reference GF disagrees with the brute-force oracle")
    return ref


_SEQ: dict = {}


def reference_terms(name, alpha, count):
    have = _SEQ.get((name, alpha))
    if have is None or len(have) < count:
        have = _SEQ[(name, alpha)] = series(*reference_gf(name, alpha), count)
    return have[:count]


@lru_cache(maxsize=None)
def brute_force(name, alpha, n):
    """u_alpha(n) from the definition: expand F_n with int64 numpy arrays
    (the coefficient sum bounds every coefficient) and sum the products of
    shifted rows, with Python integers whenever int64 could overflow."""
    d = spec_doc(name)
    init, rec = d["seq"]["init"], d["seq"]["rec"]
    f = list(init)
    while len(f) < n + len(init):
        f.append(sum(c * v for c, v in zip(rec, reversed(f[-len(rec):]))))
    total_c = sum(abs(t["c"]) for t in d["factor"])
    need(sum(abs(p) for p in d["P"]) * total_c ** n < 2 ** 62, "oracle n too large")
    a = np.array(d["P"], dtype=np.int64)
    for i in range(n):
        shifts = [(t["c"], sum(e * f[i + j] for j, e in enumerate(t["e"])))
                  for t in d["factor"]]
        new = np.zeros(len(a) + max(s for _, s in shifts), dtype=np.int64)
        for c, s in shifts:
            new[s:s + len(a)] += c * a
        a = new
    rows = [a[i:] for i, e in enumerate(alpha) for _ in range(e)]
    width = min(len(r) for r in rows)
    mx = int(np.abs(a).max())
    if mx ** (sum(alpha) - 1) * int(np.abs(a).sum()) < 2 ** 62:
        prod = np.ones(width, dtype=np.int64)
        for r in rows:
            prod = prod * r[:width]
        return int(prod.sum())
    lists = [r[:width].tolist() for r in rows]
    total = 0
    for vals in zip(*lists):
        p = 1
        for v in vals:
            p *= v
        total += p
    return total


def stream_matrix(doc, count):
    vec = list(doc["v"])
    out = [vec[doc["root"]]]
    for _ in range(count - 1):
        vec = [sum(c * vec[col] for col, c in row) for row in doc["rows"]]
        out.append(vec[doc["root"]])
    return out


def digits(x):
    return len(str(abs(x)))


def check_gf(op, doc, key):
    name, alpha = op["spec"], tuple(op["alpha"])
    num, den = doc["num"], doc["den"]
    need(den and den[0] > 0, "denominator must have a positive constant term")
    got = series(num, den, PREFIX[name])
    need(got == list(oracle_terms(name, alpha)), f"{key}: series != brute-force oracle")
    if (name, alpha) in CLOSED:
        need(same_gf((num, den), CLOSED[(name, alpha)]), f"{key}: != published closed form")
    if "--pretty" in op["flags"]:
        need(isinstance(doc.get("pretty"), str), f"{key}: --pretty string missing")


def check(op, rc, out, err):
    name = op["spec"]
    alpha = tuple(op["alpha"]) if op["alpha"] else None
    need(rc == op["expect_rc"], f"exit code {rc}, expected {op['expect_rc']}")
    cmd = op["cmd"]
    if op["expect_rc"] == 2:
        report = json.loads(err.strip().splitlines()[-1])
        need(report["outcome"] == "limit_exceeded", "limit report outcome")
        need(report["limit"] == op["limit"] and report["state_count"] > op["limit"],
             "limit report state count")
        need(out == "", "stdout must be empty on a limit")
        return
    doc = json.loads(out)
    if cmd == "gf":
        check_gf(op, doc, "gf")
        need(isinstance(doc["dim"], int) and doc["dim"] >= 1, "gf: dim")
        method = op["flags"][op["flags"].index("--method") + 1] if "--method" in op["flags"] else None
        need(method is None or doc["method"] == method, "gf: method")
    elif cmd == "guess":
        check_gf(op, doc, "guess")
        need(same_gf((doc["num"], doc["den"]), reference_gf(name, alpha)),
             "guess: != closure GF")
    elif cmd == "matrix":
        need(doc["dim"] == len(doc["rows"]) == len(doc["v"]), "matrix: shape")
        need(stream_matrix(doc, PREFIX[name]) == list(oracle_terms(name, alpha)),
             "matrix: streamed terms != brute-force oracle")
    elif cmd == "terms":
        n = op["n"]
        need(isinstance(doc, list) and len(doc) == n + 1, "terms: length")
        ref = reference_terms(name, alpha, n + 1)
        k = PREFIX[name]
        if "--digits-only" in op["flags"]:
            need(doc[:k] == [digits(x) for x in oracle_terms(name, alpha)],
                 "terms: digits != brute-force oracle")
            need(doc == [digits(x) for x in ref], "terms: digits != reference GF")
        else:
            need(doc[:k] == list(oracle_terms(name, alpha)), "terms: prefix != oracle")
            need(doc == ref, "terms: != reference GF series")
    elif cmd == "oracle":
        need(doc == [brute_force(name, alpha, m) for m in range(op["n"] + 1)],
             "oracle: != independent expansion")
    elif cmd == "pv":
        rec = spec_doc(name)["seq"]["rec"]
        need(doc["pv"] is PV[name], f"pv: verdict {doc['pv']}")
        need(doc["indicial"] == [-c for c in reversed(rec)] + [1], "pv: indicial")
        need(not PV[name] or doc["roots"], "pv: roots missing")
    else:
        raise Wrong(f"no check for {cmd}")


def main(records_path, results_path):
    sys.set_int_max_str_digits(0)
    with open(records_path, encoding="utf-8") as fh:
        records = json.load(fh)
    results = {}
    for r in records:
        if r["exc"]:
            results[r["key"]] = "raised: " + r["exc"].strip().splitlines()[-1]
            continue
        with open(r["out_file"], encoding="utf-8") as fh:
            out = fh.read()
        try:
            check(r["op"], r["rc"], out, r["err"])
            results[r["key"]] = None
        except (Wrong, ValueError, KeyError, TypeError, IndexError) as exc:
            results[r["key"]] = f"{type(exc).__name__}: {exc}"
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
