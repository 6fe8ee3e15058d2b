"""Seeded op lists for the three workloads.

An op is a plain dict describing one `sterngf` command line:

    {"cmd": "gf", "spec": "base_stern", "alpha": [2], "n": None,
     "flags": ["--pretty"], "expect_rc": 0}

`argv(op)` turns it into the argument list handed to `sterngf.cli.main`.
The program only ever sees that argv and the cookbook spec files.

The cold workloads have a fixed op multiset (the seed only orders it), so
their cost does not depend on the seed.  The warm stream draws its
parameters from the seed, but stratified: every request class appears a
fixed number of times and each numeric parameter is drawn from its own
stratum, so two seeds give streams of nearly the same total cost.
"""

from __future__ import annotations

import random

COOKBOOK = "src/sterngf/cookbook/{}.json"

WORKLOADS = ("closure_cold", "extract_cold", "service_warm")
# each op of a cold workload runs in its own process, forked right after import
COLD = ("closure_cold", "extract_cold")


def op(cmd, spec, alpha=None, n=None, flags=(), limit=None, expect_rc=0):
    return {"cmd": cmd, "spec": spec, "alpha": list(alpha) if alpha else None,
            "n": n, "flags": list(flags), "limit": limit, "expect_rc": expect_rc}


def argv(o) -> list[str]:
    out = [o["cmd"], COOKBOOK.format(o["spec"])]
    if o["alpha"]:
        out += ["--alpha", ",".join(str(a) for a in o["alpha"])]
    if o["n"] is not None:
        out += ["-n", str(o["n"])]
    if o["limit"] is not None:
        out += ["--limit", str(o["limit"])]
    return out + o["flags"]


def label(o) -> str:
    return " ".join(argv(o)).replace("src/sterngf/cookbook/", "").replace(".json", "")


# Every op is short (0.1 to 0.45 s on a 2.1 GHz Xeon) so that a 30 s run
# makes twenty passes or more: a shared machine slows by up to 1.7x in
# spells of about a second, and an op's best time over the passes is clear
# of them only when single executions are short and many (see README).

# state discovery: core.evolve picks and certified deadness dominate; the
# challenge spec is the documented divergent case and must exit 2
CLOSURE_COLD = [
    op("matrix", "base_stern", [6]),
    op("matrix", "base_stern", [1, 1, 1, 1]),
    op("matrix", "fibonacci", [3]),
    op("matrix", "tribonacci", [2]),
    op("gf", "challenge", [2], limit=500, expect_rc=2),
]

# small closures; elimination, fitting, big-int streaming and emission dominate
EXTRACT_COLD = [
    op("gf", "fibonacci", [3], flags=["--method", "eliminate"]),
    op("gf", "tribonacci", [2]),  # dim > 64: the fit path
    op("terms", "tribonacci", [2], n=1000),
    op("terms", "base_stern", [2], n=5000, flags=["--digits-only"]),
]

WARM_GF = [
    ("base_stern", [2]), ("base_stern", [3]), ("base_stern", [4]),
    ("base_stern", [5]), ("base_stern", [6]),
    ("base_stern", [1, 1, 1, 1]), ("base_stern", [2, 1, 2]),
    ("fibonacci", [2]), ("fibonacci", [1, 1]),
    ("tribonacci", [1]), ("quadonacci", [1]), ("pentanacci", [1]),
]
WARM_TERMS = [("base_stern", [2]), ("base_stern", [5]), ("fibonacci", [2]),
              ("quadonacci", [1])]
# (spec, alpha, lowest n, highest n) for the brute-force oracle; every
# pattern has total degree <= 2, which keeps the checker's own expansion exact
WARM_ORACLE = [("base_stern", [2], 8, 15), ("fibonacci", [2], 13, 21),
               ("tribonacci", [2], 7, 14), ("quadonacci", [2], 4, 11),
               ("pentanacci", [1], 3, 10), ("challenge", [2], 12, 19)]
# (spec, alpha, lowest n, highest n); the lowest n leaves enough terms for a
# certified fit of the known denominator degree
WARM_GUESS = [("base_stern", [2], 8, 14), ("base_stern", [3], 8, 14),
              ("base_stern", [1, 1], 8, 14), ("fibonacci", [2], 20, 24)]
PV_SPECS = ("base_stern", "fibonacci", "tribonacci", "quadonacci",
            "pentanacci", "challenge")


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One uniform draw from each of k equal strata of [lo, hi]."""
    width = (hi - lo + 1) / k
    return [rng.randint(int(lo + i * width), int(lo + (i + 1) * width) - 1)
            for i in range(k)]


def service_stream(rng: random.Random) -> list[dict]:
    ops = []
    for spec, alpha in WARM_GF:
        flags = ["--pretty"] if rng.random() < 0.5 else []
        ops.append(op("gf", spec, alpha, flags=flags))
    for spec, alpha in WARM_TERMS:
        ns = _strata(rng, 200, 1000, 6)
        # one of each pair of neighbouring strata prints digit counts only
        digits = {2 * i + rng.randint(0, 1) for i in range(3)}
        for i, n in enumerate(ns):
            ops.append(op("terms", spec, alpha, n=n,
                          flags=["--digits-only"] if i in digits else []))
    for spec, alpha, lo, hi in WARM_ORACLE:
        ops += [op("oracle", spec, alpha, n=n) for n in _strata(rng, lo, hi, 7)]
    # the largest oracle request, the same in every stream
    ops.append(op("oracle", "challenge", [2], n=21))
    for spec, alpha, lo, hi in WARM_GUESS:
        ops += [op("guess", spec, alpha, n=n) for n in _strata(rng, lo, hi, 5)]
    ops += [op("pv", spec) for spec in PV_SPECS]
    rng.shuffle(ops)
    return ops


def warmup(ops: list[dict]) -> list[int]:
    """Indices of one op per (command, spec, alpha) of a warm stream, each
    with its largest n: enough to fill the per-spec caches the stream uses."""
    best = {}
    for i, o in enumerate(ops):
        key = (o["cmd"], o["spec"], tuple(o["alpha"] or ()))
        if key not in best or (o["n"] or 0) > (ops[best[key]]["n"] or 0):
            best[key] = i
    return sorted(best.values())


def build(workload: str, seed: int) -> list[dict]:
    """The workload's op list for one pass, ordered by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closure_cold":
        ops = list(CLOSURE_COLD)
    elif workload == "extract_cold":
        ops = list(EXTRACT_COLD)
    elif workload == "service_warm":
        return service_stream(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
