"""Memo ownership: results and reports depend on their inputs only, the
per-spec memos and their closed systems stay within their bounds, a closure
judges each distinct target's deadness once, a warm request closes and fits
nothing again, a validated spec is not re-validated on reload, a rejected
one takes no memo slot, no module keeps a hidden process-global container,
no module uses Fraction, and no module loads numpy when it is imported."""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import sterngf
from sterngf import (CFiniteSeq, LimitExceeded, ProductSpec, build_system, cli, closure,
                     core, gfs)
from sterngf.cfinite import HORIZON, certify_eventually_positive

from spread_scan import head_mask, pair_certified

COOKBOOK = pathlib.Path(cli.__file__).parent / "cookbook"

FIB = ProductSpec(P=(1,), seq=CFiniteSeq((1, 2), (1, 1)),
                  terms=((1, (0, 0)), (1, (1, 0)), (1, (0, 1))))


def snapshot(system):
    return system.states, system.rows, system.v, system.report


def test_closure_report_independent_of_history():
    first = build_system(FIB, [1, 1])
    build_system(FIB, [4])
    again = build_system(FIB, [1, 1])
    assert first.report.dead_discarded_count == 20
    assert snapshot(again) == snapshot(first)


def base_like(k: int) -> ProductSpec:
    return ProductSpec(P=(1, k), seq=CFiniteSeq((1,), (2,)),
                       terms=((1, (0,)), (1, (1,)), (1, (2,))))


def test_spec_memo_registry_is_bounded():
    bound = core.SPEC_MEMO_LIMIT
    assert core._cache.cache_parameters()["maxsize"] == bound
    specs = [base_like(k) for k in range(bound + 4)]
    first = [snapshot(build_system(spec, [2])) for spec in specs]
    assert core._cache.cache_info().currsize == bound
    # the earliest memos were dropped and are rebuilt from scratch
    assert [snapshot(build_system(spec, [2])) for spec in specs] == first
    assert core._cache.cache_info().currsize == bound


def test_no_module_level_containers():
    """Module-level dicts, lists and sets are process-global state; memos
    belong to the per-spec registry, and any lru_cache must be bounded."""
    mods = [sterngf] + [importlib.import_module(f"sterngf.{info.name}")
                        for info in pkgutil.iter_modules(sterngf.__path__)]
    found = []
    for mod in mods:
        for name, val in vars(mod).items():
            if name.startswith("__") and name.endswith("__"):
                continue  # __all__, and the interpreter's own module attributes
            if isinstance(val, (dict, list, set)):
                found.append(f"{mod.__name__}.{name}")
            elif hasattr(val, "cache_parameters") and val.cache_parameters()["maxsize"] is None:
                found.append(f"{mod.__name__}.{name} (unbounded lru_cache)")
    assert found == []


def imported_modules(name: str, *, at_import: bool = False) -> set[str]:
    """Top-level names of the modules that sterngf.<name> imports, with
    `from . import x` counted as x; with at_import, only the imports that run
    when the module is loaded, none inside a function body."""
    tree = ast.parse((pathlib.Path(sterngf.__file__).parent / f"{name}.py").read_text())
    out = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if at_import and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and not node.module:
                out.update(a.name for a in node.names)
            else:
                out.add((node.module or "").split(".")[0])
    return out


def test_integer_kernel_modules_do_not_import_fractions():
    """The whole engine computes over Z: integer series and fits (by Fatou
    an integer series has den(0) = 1), root disks and intervals on the
    integer grid.  No module imports fractions."""
    names = ["__init__"] + [info.name for info in pkgutil.iter_modules(sterngf.__path__)]
    assert len(names) > 8
    assert [name for name in names if "fractions" in imported_modules(name)] == []


def test_no_module_imports_numpy_when_loaded():
    """numpy serves the brute-force oracle only, so core imports it inside
    the int64 kernel and no module pays for it at start-up."""
    names = ["__init__"] + [info.name for info in pkgutil.iter_modules(sterngf.__path__)]
    assert "numpy" in imported_modules("core")
    assert [name for name in names if "numpy" in imported_modules(name, at_import=True)] == []


def test_certificates_do_not_import_gfs():
    """The certificates compute their minimal annihilator from a gcd, so
    cfinite needs neither the rational generating functions nor their
    Berlekamp-Massey."""
    assert {"gfs", "fractions"}.isdisjoint(imported_modules("cfinite"))


def write_spec(path, P, init, rec, exps):
    path.write_text(json.dumps({
        "P": P, "seq": {"init": init, "rec": rec},
        "factor": [{"c": 1, "e": e} for e in exps]}))
    return str(path)


def test_reload_skips_validated_checks(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return certify_eventually_positive(*args, **kwargs)

    monkeypatch.setattr(core, "certify_eventually_positive", counting)
    path = write_spec(tmp_path / "fresh.json", [1, 7, 3], [1, 2], [1, 1],
                      [[0, 0], [1, 0], [0, 1]])
    first, _ = cli.load_spec_file(path)
    assert len(calls) == 2  # one per nonzero exponent form
    again, _ = cli.load_spec_file(path)
    assert again == first
    assert len(calls) == 2


def test_rejected_spec_takes_no_memo_slot(monkeypatch):
    base_stern, _ = cli.load_spec_file(str(COOKBOOK / "base_stern.json"))
    core._cache.cache_clear()
    kept = core._cache(base_stern)
    for k in range(1, 21):
        # f(i) = k (-2)^i: the form <(1,), f(i..)> is negative at level 1
        with pytest.raises(core.SpecValidationError, match="negative at level 1"):
            ProductSpec(P=(1,), seq=CFiniteSeq((k,), (-2,)),
                        terms=((1, (0,)), (1, (1,))))
    assert core._cache.cache_info().currsize == 1
    assert core._cache(base_stern) is kept
    calls = []
    monkeypatch.setattr(core, "certify_eventually_positive", calls.append)
    assert cli.load_spec_file(str(COOKBOOK / "base_stern.json"))[0] == base_stern
    assert calls == []  # the reload found its memo and certified nothing
    core._cache.cache_clear()


def test_invalid_spec_raises_on_every_load(tmp_path):
    # f(i) = -2^i: the form <(1,), f(i..)> is negative from level 0 on
    path = write_spec(tmp_path / "negative.json", [1], [-1], [2], [[0], [1]])
    for _ in range(3):
        with pytest.raises(cli.SpecFileError, match="negative at level 0"):
            cli.load_spec_file(path)


@pytest.mark.parametrize("spec,alpha", [(FIB, [1, 1]), (FIB, [4])],
                         ids=["fib[1,1]", "fib[4]"])
def test_one_deadness_verdict_per_distinct_target(monkeypatch, spec, alpha):
    calls = []
    is_dead = core.is_dead

    def counting(spec, state):
        calls.append((state, is_dead(spec, state)))
        return calls[-1][1]

    monkeypatch.setattr(core, "is_dead", counting)
    core._cache.cache_clear()
    system = build_system(spec, alpha)
    targets = {tgt for st in system.states for _, tgt in core.evolve(spec, st)}
    judged = [st for st, _ in calls]
    assert len(judged) == len(set(judged)) and set(judged) == targets
    assert system.report.dead_discarded_count == sum(v for _, v in calls) > 0
    core._cache.cache_clear()


def test_memo_serves_the_fresh_snapshot_in_any_history(monkeypatch):
    """A closed system comes back as a fresh build makes it: on first build,
    from the memo, in reversed request order, and after eviction."""
    spec, _ = cli.load_spec_file(str(COOKBOOK / "base_stern.json"))
    alphas = [[2], [3], [4], [5], [6], [2, 1, 2]]
    fresh, sizes = {}, {}
    for a in alphas:
        core._cache.cache_clear()
        system = build_system(spec, a)
        fresh[tuple(a)] = snapshot(system)
        sizes[tuple(a)] = sum(map(len, system.rows)) + system.dim
    core._cache.cache_clear()
    for a in alphas + alphas[::-1]:
        assert snapshot(build_system(spec, a)) == fresh[tuple(a)]
    assert build_system(spec, [6]).rows is build_system(spec, [6]).rows  # served

    small = sorted(sizes.values())
    monkeypatch.setattr(core, "SYSTEM_MEMO_LIMIT", small[-2] + small[-3])
    core._cache.cache_clear()
    kept = []
    for a in alphas + alphas[::-1] + alphas:
        assert snapshot(build_system(spec, a)) == fresh[tuple(a)]
        systems = core._cache(spec).systems
        assert sum(size for _, size in systems.values()) <= core.SYSTEM_MEMO_LIMIT
        assert core.root_state([2, 1, 2], 1) not in systems  # over the limit alone
        kept.append(len(systems))
    assert max(kept) < len(alphas) - 1  # the oldest systems were dropped
    core._cache.cache_clear()


def test_limit_below_dim_reports_as_a_fresh_build():
    spec, _ = cli.load_spec_file(str(COOKBOOK / "base_stern.json"))
    dim = build_system(spec, [2, 1, 2]).dim
    for limit in (0, 5, dim - 1):
        with pytest.raises(LimitExceeded) as served:
            build_system(spec, [2, 1, 2], limit=limit)
        core._cache.cache_clear()
        with pytest.raises(LimitExceeded) as fresh:
            build_system(spec, [2, 1, 2], limit=limit)
        assert served.value.report == fresh.value.report
        assert served.value.report.to_json() == fresh.value.report.to_json()
        assert fresh.value.report.frontier_sample
        build_system(spec, [2, 1, 2])
    core._cache.cache_clear()


def test_served_report_carries_the_requested_limit():
    spec, _ = cli.load_spec_file(str(COOKBOOK / "fibonacci.json"))
    core._cache.cache_clear()
    first = build_system(spec, [2])
    for limit in (first.dim, first.dim + 7, 5000, 10 ** 6):
        served = build_system(spec, [2], limit=limit)
        assert served.rows is first.rows
        assert served.report.limit == limit
        core._cache.cache_clear()
        assert snapshot(served) == snapshot(build_system(spec, [2], limit=limit))
        first = build_system(spec, [2])
    core._cache.cache_clear()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zero_limit_on_a_one_state_system_prints_as_fresh(capsys):
    """The root state is not counted against the limit, so dim 1 closes
    under --limit 0 whether or not the memo holds it."""
    argv = ["gf", str(COOKBOOK / "quadonacci.json"), "--alpha", "1", "--limit", "0"]
    core._cache.cache_clear()
    fresh = run_cli(capsys, *argv)
    assert fresh[0] == 0 and json.loads(fresh[1])["dim"] == 1
    run_cli(capsys, *argv[:-2])
    assert run_cli(capsys, *argv) == fresh
    assert run_cli(capsys, *argv[:-2]) == fresh
    core._cache.cache_clear()


def test_warm_requests_close_and_fit_nothing(capsys, monkeypatch):
    """A warm gf closes and fits nothing; a warm terms request within its
    view's kept prefix neither streams nor counts digits."""
    gf_argv = ["gf", str(COOKBOOK / "fibonacci.json"), "--alpha", "2"]
    terms_argv = ["terms", str(COOKBOOK / "base_stern.json"), "-n", "300"]
    argvs = [gf_argv, terms_argv, terms_argv[:-1] + ["200", "--digits-only"],
             terms_argv[:-1] + ["17"]]
    core._cache.cache_clear()
    first = [run_cli(capsys, *argv) for argv in argvs]
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core, "evolve", counting("evolve", core.evolve))
    monkeypatch.setattr(gfs, "fit_recurrence", counting("fit", gfs.fit_recurrence))
    monkeypatch.setattr(closure, "stream_terms", counting("stream", closure.stream_terms))
    monkeypatch.setattr(cli, "decimal_digit_counts", counting("digits", cli.decimal_digit_counts))
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    assert calls == []
    core._cache.cache_clear()
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    # a fresh memo works again: the gf fits, the first terms request fits and
    # streams, the digit counts stream u(0..200)
    assert calls.count("fit") == 2 and "evolve" in calls
    assert calls.count("digits") == 1 and calls.count("stream") == 4
    core._cache.cache_clear()


CHALLENGE = str(COOKBOOK / "challenge.json")


def test_deadness_memos_stay_within_their_bound(capsys, monkeypatch):
    argv = ["gf", CHALLENGE, "--alpha", "2", "--limit", "2000"]
    core._cache.cache_clear()
    first = run_cli(capsys, *argv)
    assert first[0] == 2
    spec, _ = cli.load_spec_file(CHALLENGE)
    cache = core._cache(spec)
    assert 0 < len(cache.heads) <= core.DEADNESS_MEMO_LIMIT
    assert 0 < check_pair_records(spec) <= core.DEADNESS_MEMO_LIMIT
    # a small bound drops the oldest entries and reports the same closure
    monkeypatch.setattr(core, "DEADNESS_MEMO_LIMIT", 64)
    core._cache.cache_clear()
    assert run_cli(capsys, *argv) == first
    cache = core._cache(spec)
    assert len(cache.heads) == check_pair_records(spec) == 64
    core._cache.cache_clear()


def check_pair_records(spec) -> int:
    """Each kept pair record is what its key alone fixes: the key's gap is
    >= 0 at the tail's first level, the head flags are the levels where
    the gap exceeds U(n), and a certificate outcome, once kept, is the one
    a fresh certificate gives.  Returns the number of records kept."""
    cache = core._cache(spec)
    for key, rec in cache.pairs.items():
        delta, dd = key
        assert cache.memo.form_values(delta, HORIZON + 1, HORIZON + 2, -dd)[0] >= 0, key
        assert rec.head == head_mask(spec, key), key
        assert rec.certified is None or rec.certified == pair_certified(spec, key), key
    return len(cache.pairs)


def closure_targets(spec, alpha, limit):
    """Every target of every row the closure of alpha evolves, sorted."""
    try:
        states = build_system(spec, alpha, limit=limit).states
    except LimitExceeded as exc:
        states = [core.root_state(alpha, spec.seq.order), *exc.report.frontier_sample]
    targets = {tgt for st in states for _, tgt in core.evolve(spec, st)}
    return sorted(targets, key=core.State.sort_key)


def test_deadness_verdicts_do_not_depend_on_the_memo(monkeypatch):
    """Verdicts on fixed states are the same from a fresh registry, from one
    that other specs and closures filled, and from one whose deadness memos
    are small enough to drop entries between the calls; the pair records
    such a registry keeps are the ones their keys fix."""
    specs = {name: cli.load_spec_file(str(COOKBOOK / f"{name}.json"))[0]
             for name in ("base_stern", "fibonacci", "challenge")}
    cases = [(specs["base_stern"], [1, 1, 1]), (specs["fibonacci"], [3]),
             (specs["challenge"], [2])]
    fixed = [(spec, st) for spec, alpha in cases for st in closure_targets(spec, alpha, 60)]
    fresh = []
    for spec, st in fixed:
        core._cache.cache_clear()
        fresh.append(core.is_dead(spec, st))
    assert 0 < sum(fresh) < len(fresh)
    core._cache.cache_clear()
    for spec, alpha in [(specs["fibonacci"], [4]), (specs["base_stern"], [6]),
                        (specs["challenge"], [2])]:
        closure_targets(spec, alpha, 300)
    assert [core.is_dead(spec, st) for spec, st in fixed] == fresh
    monkeypatch.setattr(core, "DEADNESS_MEMO_LIMIT", 3)
    assert [core.is_dead(spec, st) for spec, st in fixed] == fresh
    assert [core.is_dead(spec, st) for spec, st in reversed(fixed)] == fresh[::-1]
    # from an empty registry every spec's pair records overflow the bound
    core._cache.cache_clear()
    assert [core.is_dead(spec, st) for spec, st in fixed] == fresh
    assert [check_pair_records(spec) for spec in specs.values()] == [3, 3, 3]
    core._cache.cache_clear()


def test_at_most_one_certificate_per_judged_target(capsys, monkeypatch):
    """Pair certificates are kept by key, and a pair whose gap cannot beat
    the degree bound at the tail's first level is never certified."""
    judged, certs = [], []
    is_dead, certify = core.is_dead, core.certify_eventually_positive

    def judging(spec, state):
        judged.append(state)
        return is_dead(spec, state)

    def counting(*args, **kwargs):
        certs.append(args[0])
        return certify(*args, **kwargs)

    monkeypatch.setattr(core, "is_dead", judging)
    monkeypatch.setattr(core, "certify_eventually_positive", counting)
    core._cache.cache_clear()
    code, _, err = run_cli(capsys, "gf", CHALLENGE, "--alpha", "2", "--limit", "500")
    assert code == 2 and "limit_exceeded" in err
    assert len(judged) == len(set(judged)) > 400
    assert len(certs) <= len(judged)
    core._cache.cache_clear()


def fresh_clis(argvs) -> dict:
    """`python -m sterngf argv` for each distinct argv, each in a new
    interpreter, the interpreters running side by side: exit code and
    stdout by argv tuple."""
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    procs = {}
    try:
        for argv in map(tuple, argvs):
            if argv not in procs:
                procs[argv] = subprocess.Popen(
                    [sys.executable, "-m", "sterngf", *argv], env=env, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = {}
        for argv, proc in procs.items():
            stdout = proc.communicate(timeout=120)[0]
            out[argv] = proc.returncode, stdout
        return out
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()


def counting_sums(monkeypatch) -> list[int]:
    """The levels at which the brute-force oracle evaluates a correlation
    sum from now on."""
    levels = []
    kernel = core.state_oracle

    def counting(spec, state, n, **kwargs):
        levels.append(n)
        return kernel(spec, state, n, **kwargs)

    monkeypatch.setattr(core, "state_oracle", counting)
    return levels


def kept_prefix(spec, alpha, view="oracle"):
    """The longest prefix of view the spec's memo keeps for alpha, or None."""
    kept = core._cache(spec).prefixes.get((view, core.root_state(alpha, spec.seq.order)))
    return None if kept is None else kept[0]


def counting_streams(monkeypatch) -> list[int]:
    """The lengths n of the streams u(0..n) from now on."""
    streamed = []
    stream = closure.stream_terms
    monkeypatch.setattr(closure, "stream_terms",
                        lambda system, n: streamed.append(n) or stream(system, n))
    return streamed


# the two callers of the prefix memo: view -> prefix(spec, alpha, n)
CALLERS = {
    "oracle": core.u_alpha_terms,
    "digits": lambda spec, alpha, n: closure.rendered_terms(
        build_system(spec, alpha), n, "digits", cli.decimal_digit_counts),
}


def view_of(cmd: str) -> str:
    return {"oracle": "oracle", "guess": "oracle", "terms": "decimal"}.get(cmd, cmd)


def request_argv(path, cmd, n):
    """The argv of an (cmd, n) request on alpha [2]; "digits" is `terms
    --digits-only`."""
    return ([cmd if view_of(cmd) == "oracle" else "terms", path, "--alpha", "2",
             "-n", str(n)] + ["--digits-only"] * (cmd == "digits"))


def serve_requests(capsys, monkeypatch, path, requests, fresh):
    """Run requests on one (spec, alpha) from a cleared memo: each prints
    what a fresh process prints, and only a request beyond its own view's
    kept prefix computes, so no view fills another."""
    spec, _ = cli.load_spec_file(path)
    core._cache.cache_clear()
    levels, streamed = counting_sums(monkeypatch), counting_streams(monkeypatch)
    longest = {"oracle": -1, "decimal": -1, "digits": -1}
    for cmd, n in requests:
        args, view = request_argv(path, cmd, n), view_of(cmd)
        levels.clear()
        streamed.clear()
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
        computes = n > longest[view]
        # only a request beyond its view's kept prefix computes: the oracle
        # from level 0, terms a stream of u(0..n) (a first stream fits,
        # which streams too)
        if view == "oracle":
            assert (levels, streamed) == (list(range(n + 1)) if computes else [], []), args
        else:
            assert streamed[:1] == ([n] if computes else []), args
        longest[view] = max(longest[view], n)
        assert {v: len(kept_prefix(spec, [2], v) or []) - 1 for v in longest} == longest
    monkeypatch.undo()


# terms fills its decimal view, then a smaller, an equal and a larger n,
# then digit counts within and beyond what the decimal view kept
TERMS_REQUESTS = [("terms", 200), ("terms", 120), ("terms", 200), ("terms", 260),
                  ("digits", 200), ("digits", 120), ("terms", 260)]


@pytest.mark.parametrize("name,requests", [
    # oracle fills, then a smaller, an equal and a larger n, and a guess
    # inside the kept prefix, between the terms requests
    ("base_stern", [("oracle", 10), ("terms", 200), ("oracle", 6), ("terms", 120),
                    ("oracle", 10), ("terms", 200), ("oracle", 14), ("terms", 260),
                    ("guess", 12), ("digits", 200), ("digits", 120), ("terms", 260)]),
    # a guess beyond the kept prefix extends it, and an oracle reads that
    ("fibonacci", [("terms", 200), ("oracle", 16), ("terms", 120), ("oracle", 13),
                   ("terms", 200), ("oracle", 16), ("terms", 260), ("oracle", 21),
                   ("digits", 200), ("guess", 24), ("digits", 120), ("oracle", 19),
                   ("terms", 260)]),
], ids=["base_stern[2]", "fibonacci[2]"])
def test_served_prefixes_print_what_a_fresh_process_prints(capsys, monkeypatch, name,
                                                           requests):
    """oracle, guess and terms requests mixed on one (spec, alpha), served
    from the kept prefixes or not, print what a fresh process prints, and
    no view fills another."""
    path = str(COOKBOOK / f"{name}.json")
    fresh = fresh_clis([request_argv(path, *req) for req in requests])
    serve_requests(capsys, monkeypatch, path, requests, fresh)
    core._cache.cache_clear()


@pytest.mark.parametrize("name", ["base_stern", "fibonacci"])
def test_served_streams_print_what_a_fresh_process_prints(capsys, monkeypatch, name):
    """`terms` requests on one (spec, alpha), served from the kept views or
    not, print what a fresh process prints; gf and matrix after a warm
    `terms`, values after digit counts and a request after its entries were
    evicted print as fresh too."""
    path = str(COOKBOOK / f"{name}.json")
    spec, _ = cli.load_spec_file(path)
    others = [["gf", path, "--alpha", "2"], ["matrix", path, "--alpha", "2"]]
    after = [request_argv(path, "digits", 200), request_argv(path, "terms", 120),
             request_argv(path, "terms", 200)]
    fresh = fresh_clis([request_argv(path, *req) for req in TERMS_REQUESTS]
                       + others + after)
    serve_requests(capsys, monkeypatch, path, TERMS_REQUESTS, fresh)
    for args in others:
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
    # digit counts first, then values
    core._cache.cache_clear()
    for args in after:
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
    assert len(kept_prefix(spec, [2], "digits")) == len(kept_prefix(spec, [2], "decimal")) == 201
    # a bound that holds the decimal view alone: another alpha's stream
    # evicts both views
    root = core.root_state([2], spec.seq.order)
    monkeypatch.setattr(core, "PREFIX_MEMO_LIMIT",
                        core._cache(spec).prefixes[("decimal", root)][1])
    assert run_cli(capsys, "terms", path, "--alpha", "1", "-n", "5")[0] == 0
    assert kept_prefix(spec, [2], "decimal") is kept_prefix(spec, [2], "digits") is None
    for args in after[1::-1]:
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
    core._cache.cache_clear()


def check_copies(view):
    """A caller of the prefix memo returns copies: changing what it returned
    leaves the kept prefix as it was."""
    prefix = CALLERS[view]
    core._cache.cache_clear()
    want = prefix(FIB, [2], 12)
    for n in (12, 7, 12):
        got = prefix(FIB, [2], n)
        assert got == want[:n + 1]
        got[0] = -1
        got.append(0)
        assert kept_prefix(FIB, [2], view) == want
    core._cache.cache_clear()


def test_returned_prefixes_are_copies():
    check_copies("oracle")


def test_served_streams_are_copies():
    check_copies("digits")


def test_prefix_memo_keeps_the_edge_cases(capsys):
    core._cache.cache_clear()
    assert core.u_alpha_terms(FIB, [2], -1) == []
    assert core._cache(FIB).prefixes == {}  # nothing expanded, nothing kept
    core.u_alpha_terms(FIB, [2], 5)
    assert core.u_alpha_terms(FIB, [2], -1) == []
    # a kept prefix does not hide the coefficient limit of a longer request
    challenge, _ = cli.load_spec_file(CHALLENGE)
    argv = ["oracle", CHALLENGE, "--alpha", "2", "-n", "40"]
    fresh = run_cli(capsys, *argv)
    assert fresh[:2] == (1, "") and fresh[2].startswith("resource limit: F_27 needs ")
    assert run_cli(capsys, "oracle", CHALLENGE, "--alpha", "2", "-n", "21")[0] == 0
    kept = kept_prefix(challenge, [2])
    assert len(kept) == 22
    assert run_cli(capsys, *argv) == fresh
    assert kept_prefix(challenge, [2]) is kept
    core._cache.cache_clear()


def prefix_words(terms):
    return sum(t.bit_length() // 64 + 1 for t in terms)


def check_bound(monkeypatch, view):
    """Prefixes are kept by (view, root state) up to PREFIX_MEMO_LIMIT
    64-bit words in all, the oldest dropped first; a longer prefix replaces
    a shorter one, and one over the bound on its own is not kept.  An int
    counts one word per 64 bits, a digit count one word."""
    prefix = CALLERS[view]
    spec = base_like(3)
    alphas = [[1], [2], [1, 1], [3]]
    core._cache.cache_clear()
    assert [prefix_words(prefix(spec, a, 2)) for a in alphas] == [3] * 4
    big = prefix(spec, [5], 12)
    assert prefix_words(big) == 13
    monkeypatch.setattr(core, "PREFIX_MEMO_LIMIT", 11)  # three prefixes of 3 words fit
    core._cache.cache_clear()
    prefixes = core._cache(spec).prefixes
    keys = [(view, core.root_state(a, 1)) for a in alphas]
    for a in alphas[:3]:
        prefix(spec, a, 2)
    assert list(prefixes) == keys[:3]
    prefix(spec, [3], 2)  # 12 words: the oldest goes
    assert list(prefixes) == keys[1:]
    assert prefix(spec, [5], 12) == big
    assert list(prefixes) == keys[1:]  # over the bound on its own: not kept
    # [2] grows to 6 words: it replaces its shorter prefix, becomes the
    # newest entry and drops the oldest ones until the sizes fit again
    grown = prefix(spec, [2], 5)
    assert prefixes[keys[1]] == (grown, 6)
    assert list(prefixes) == [keys[3], keys[1]]
    core._cache.cache_clear()


def test_prefix_memo_stays_within_its_bound(monkeypatch):
    check_bound(monkeypatch, "oracle")


def test_stream_memo_stays_within_its_bound(monkeypatch):
    check_bound(monkeypatch, "digits")


def check_leave_with_spec(monkeypatch, view):
    """A kept prefix goes when its spec's memo is evicted, and a later
    request computes it afresh."""
    prefix = CALLERS[view]
    core._cache.cache_clear()
    first = base_like(0)
    want = prefix(first, [2], 8)
    cache = core._cache(first)
    assert cache.prefixes
    for k in range(1, core.SPEC_MEMO_LIMIT + 1):
        base_like(k)  # registers a spec memo of its own
    assert core._cache(first) is not cache
    assert core._cache(first).prefixes == {}
    levels, streamed = counting_sums(monkeypatch), counting_streams(monkeypatch)
    assert prefix(first, [2], 8) == want
    # computed afresh
    if view == "oracle":
        assert (levels, streamed) == (list(range(9)), [])
    else:
        assert streamed == [8]
    core._cache.cache_clear()


def test_prefixes_leave_with_their_spec(monkeypatch):
    check_leave_with_spec(monkeypatch, "oracle")


def test_streams_leave_with_their_spec(monkeypatch):
    check_leave_with_spec(monkeypatch, "digits")


def test_terms_does_not_fill_the_oracle_prefix(capsys, monkeypatch):
    """Only the expansion writes the oracle's prefix, so the oracle stays
    independent of the engine it checks."""
    spec, _ = cli.load_spec_file(str(COOKBOOK / "base_stern.json"))
    core._cache.cache_clear()
    assert run_cli(capsys, "terms", str(COOKBOOK / "base_stern.json"), "--alpha", "2",
                   "-n", "30")[0] == 0
    assert kept_prefix(spec, [2]) is None
    levels = counting_sums(monkeypatch)
    assert core.u_alpha_terms(spec, [2], 10) == [
        int(x) for x in kept_prefix(spec, [2], "decimal")[:11]]
    assert levels == list(range(11))
    core._cache.cache_clear()


def test_decimal_and_digits_keep_their_own_lengths(monkeypatch):
    """The views of one root are kept apart: each grows on its own, is
    served from its own prefix, and counts its own words (a text one per 8
    characters and one more), under the one bound of the spec's memo."""
    spec = base_like(3)
    system = build_system(spec, [2])
    core._cache.cache_clear()
    streamed = counting_streams(monkeypatch)
    digits = closure.rendered_terms(system, 12, "digits", cli.decimal_digit_counts)
    text = closure.rendered_terms(system, 5, "decimal", cli._decimals)
    assert text == ["10", "42", "190", "866", "3950", "18018"]
    assert streamed == [12, 5]
    assert closure.rendered_terms(system, 12, "digits", cli.decimal_digit_counts) == digits
    assert closure.rendered_terms(system, 3, "decimal", cli._decimals) == text[:4]
    assert streamed == [12, 5]  # each served from its own view
    assert [len(kept_prefix(spec, [2], v)) for v in ("digits", "decimal")] == [13, 6]
    longer = closure.rendered_terms(system, 11, "decimal", cli._decimals)
    assert [len(x) for x in longer[9:]] == [7, 8, 9]
    prefixes = core._cache(spec).prefixes
    root = core.root_state([2], 1)
    assert prefixes[("decimal", root)] == (longer, 14)  # 8 or 9 characters are two words
    assert prefixes[("digits", root)] == (digits, 13)
    # a bound that holds the grown decimal view alone: the older digit counts go
    monkeypatch.setattr(core, "PREFIX_MEMO_LIMIT", 20)
    assert len(closure.rendered_terms(system, 13, "decimal", cli._decimals)) == 14
    assert [(key, size) for key, (_, size) in prefixes.items()] == [(("decimal", root), 18)]
    core._cache.cache_clear()
