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
    """A warm gf closes and fits nothing; a warm terms request within the
    kept stream, in a view already kept, neither streams nor counts digits."""
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
    # streams, the digit counts re-stream the kept u(0..300)
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


def kept_prefix(spec, alpha):
    kept = core._cache(spec).prefixes.get(core.root_state(alpha, spec.seq.order))
    return None if kept is None else kept[0]


@pytest.mark.parametrize("name,requests", [
    # oracle fills, then a smaller, an equal and a larger n, and a guess
    # inside the kept prefix
    ("base_stern", [("oracle", 10), ("oracle", 6), ("oracle", 10), ("oracle", 14),
                    ("guess", 12)]),
    # a guess beyond the kept prefix extends it, and an oracle reads that
    ("fibonacci", [("oracle", 16), ("oracle", 13), ("oracle", 16), ("oracle", 21),
                   ("guess", 24), ("oracle", 19)]),
], ids=["base_stern[2]", "fibonacci[2]"])
def test_served_prefixes_print_what_a_fresh_process_prints(capsys, monkeypatch, name,
                                                           requests):
    path = str(COOKBOOK / f"{name}.json")
    spec, _ = cli.load_spec_file(path)
    argvs = [[cmd, path, "--alpha", "2", "-n", str(n)] for cmd, n in requests]
    fresh = fresh_clis(argvs)
    core._cache.cache_clear()
    levels = counting_sums(monkeypatch)
    longest = -1
    for (cmd, n), argv in zip(requests, argvs):
        levels.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == fresh[tuple(argv)], argv
        # only a request beyond the kept prefix expands, and from level 0
        assert levels == (list(range(n + 1)) if n > longest else []), argv
        longest = max(longest, n)
        assert len(kept_prefix(spec, [2])) == longest + 1
    core._cache.cache_clear()


def test_returned_prefixes_are_copies():
    core._cache.cache_clear()
    want = core.u_alpha_terms(FIB, [2], 12)
    for n in (12, 7, 12):
        got = core.u_alpha_terms(FIB, [2], n)
        assert got == want[:n + 1]
        got[0] = -1
        got.append(0)
        assert kept_prefix(FIB, [2]) == want
    core._cache.cache_clear()


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


def test_prefix_memo_stays_within_its_bound(monkeypatch):
    """Prefixes are kept by root state up to SYSTEM_MEMO_LIMIT 64-bit words
    in all, the oldest dropped first; a longer prefix replaces a shorter
    one, and one over the bound on its own is not kept."""
    spec = base_like(3)
    alphas = [[1], [2], [1, 1], [3]]
    core._cache.cache_clear()
    assert [prefix_words(core.u_alpha_terms(spec, a, 2)) for a in alphas] == [3] * 4
    big = core.u_alpha_terms(spec, [5], 12)
    monkeypatch.setattr(core, "SYSTEM_MEMO_LIMIT", 11)  # three prefixes of 3 words fit
    assert prefix_words(big) == 13
    core._cache.cache_clear()
    prefixes = core._cache(spec).prefixes
    roots = [core.root_state(a, 1) for a in alphas]
    for a in alphas[:3]:
        core.u_alpha_terms(spec, a, 2)
    assert list(prefixes) == roots[:3]
    core.u_alpha_terms(spec, [3], 2)  # 12 words: the oldest goes
    assert list(prefixes) == roots[1:]
    assert core.u_alpha_terms(spec, [5], 12) == big
    assert list(prefixes) == roots[1:]  # over the bound on its own: not kept
    # [2] grows to 6 words: it replaces its shorter prefix, becomes the
    # newest entry and drops the oldest ones until the sizes fit again
    grown = core.u_alpha_terms(spec, [2], 5)
    assert prefixes[roots[1]] == (grown, 6)
    assert list(prefixes) == [roots[3], roots[1]]
    core._cache.cache_clear()


def test_prefixes_leave_with_their_spec(monkeypatch):
    core._cache.cache_clear()
    first = base_like(0)
    want = core.u_alpha_terms(first, [2], 8)
    cache = core._cache(first)
    assert cache.prefixes
    for k in range(1, core.SPEC_MEMO_LIMIT + 1):
        base_like(k)  # registers a spec memo of its own
    assert core._cache(first) is not cache
    assert core._cache(first).prefixes == {}
    levels = counting_sums(monkeypatch)
    assert core.u_alpha_terms(first, [2], 8) == want
    assert levels == list(range(9))  # expanded afresh
    core._cache.cache_clear()


def kept_stream(spec, alpha):
    """(N, views) of the rendered stream the spec's memo keeps, or None."""
    kept = core._cache(spec).streams.get(core.root_state(alpha, spec.seq.order))
    return None if kept is None else kept[0]


@pytest.mark.parametrize("name", ["base_stern", "fibonacci"])
def test_served_streams_print_what_a_fresh_process_prints(capsys, monkeypatch, name):
    """`terms` requests on one (spec, alpha), served from the kept stream or
    not, print what a fresh process prints: a request fills, then a smaller,
    an equal and a larger n, digit counts after values and values after
    digit counts on the same kept stream, and a request after its entry was
    evicted; gf and matrix after a warm `terms` too."""
    path = str(COOKBOOK / f"{name}.json")
    spec, _ = cli.load_spec_file(path)

    def argv(n, digits=False):
        return ["terms", path, "--alpha", "2", "-n", str(n)] + ["--digits-only"] * digits

    both = {"decimal", "digits"}
    # (argv, the stream lengths it streams, kept N and views after it)
    steps = [(argv(200), [200], 200, {"decimal"}), (argv(120), [], 200, {"decimal"}),
             (argv(200), [], 200, {"decimal"}), (argv(260), [260], 260, {"decimal"}),
             (argv(200, True), [260], 260, both), (argv(120, True), [], 260, both),
             (argv(260), [], 260, both)]
    others = [["gf", path, "--alpha", "2"], ["matrix", path, "--alpha", "2"]]
    fresh = fresh_clis([step[0] for step in steps] + others)
    core._cache.cache_clear()
    streamed = []
    stream = closure.stream_terms
    monkeypatch.setattr(closure, "stream_terms",
                        lambda system, n: streamed.append(n) or stream(system, n))
    for args, lengths, top, views in steps:
        streamed.clear()
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
        assert streamed[:1] == lengths, args  # a first stream fits, which streams too
        assert (kept_stream(spec, [2])[0], set(kept_stream(spec, [2])[1])) == (top, views)
    for args in others:
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
    # digit counts first, then values
    core._cache.cache_clear()
    for args in (argv(200, True), argv(120), argv(200)):
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
    assert set(kept_stream(spec, [2])[1]) == {"decimal", "digits"}
    # a bound that holds this entry alone: another alpha's stream evicts it
    monkeypatch.setattr(core, "STREAM_MEMO_LIMIT", core._cache(spec).streams[
        core.root_state([2], spec.seq.order)][1])
    assert run_cli(capsys, "terms", path, "--alpha", "1", "-n", "5")[0] == 0
    assert kept_stream(spec, [2]) is None
    for args in (argv(120), argv(200, True)):
        assert run_cli(capsys, *args)[:2] == fresh[tuple(args)], args
    core._cache.cache_clear()


def test_served_streams_are_copies():
    spec, _ = cli.load_spec_file(str(COOKBOOK / "fibonacci.json"))
    system = build_system(spec, [2])
    core._cache.cache_clear()
    want = closure.rendered_terms(system, 40, "digits", cli.decimal_digit_counts)
    for n in (40, 12, 40):
        got = closure.rendered_terms(system, n, "digits", cli.decimal_digit_counts)
        assert got == want[:n + 1]
        got[0] = -1
        got.append(0)
        assert kept_stream(spec, [2]) == (40, {"digits": want})
    core._cache.cache_clear()


def test_stream_memo_stays_within_its_bound(monkeypatch):
    """Rendered streams are kept by root state up to STREAM_MEMO_LIMIT
    64-bit words in all, the oldest dropped first; a longer stream replaces
    a shorter one, and one over the bound on its own is not kept.  Text
    counts 8 characters per word, a digit count one word."""
    spec = base_like(3)
    alphas = [[1], [2], [1, 1], [3]]
    systems = {tuple(a): build_system(spec, a) for a in alphas + [[5]]}
    roots = [core.root_state(a, 1) for a in alphas]
    monkeypatch.setattr(core, "STREAM_MEMO_LIMIT", 11)  # three streams of 3 counts fit
    core._cache.cache_clear()
    streams = core._cache(spec).streams
    for a in alphas[:3]:
        closure.rendered_terms(systems[tuple(a)], 2, "digits", cli.decimal_digit_counts)
    assert list(streams) == roots[:3]
    closure.rendered_terms(systems[(3,)], 2, "digits", cli.decimal_digit_counts)  # 12 words: the oldest goes
    assert list(streams) == roots[1:]
    closure.rendered_terms(systems[(5,)], 11, "digits", cli.decimal_digit_counts)
    assert list(streams) == roots[1:]  # 12 words on its own: not kept
    # [2] grows to 6 counts: it replaces its shorter stream, becomes the
    # newest entry and drops the oldest ones until the sizes fit again
    grown = closure.rendered_terms(systems[(2,)], 5, "digits", cli.decimal_digit_counts)
    assert streams[roots[1]] == ((5, {"digits": grown}), 6)
    assert list(streams) == [roots[3], roots[1]]
    # a second view of the kept u(0..5) adds its text, 19 characters in 3
    # words: 9 words with [3]'s 3 are over the bound, so [3] goes
    text = closure.rendered_terms(systems[(2,)], 3, "decimal", cli._decimals)
    full = ["10", "42", "190", "866", "3950", "18018"]
    assert text == full[:4]
    assert streams[roots[1]] == ((5, {"digits": grown, "decimal": full}), 9)
    assert list(streams) == [roots[1]]
    core._cache.cache_clear()


def test_streams_leave_with_their_spec(monkeypatch):
    core._cache.cache_clear()
    first = base_like(0)
    system = build_system(first, [2])
    want = closure.rendered_terms(system, 30, "decimal", cli._decimals)
    cache = core._cache(first)
    assert cache.streams
    for k in range(1, core.SPEC_MEMO_LIMIT + 1):
        base_like(k)  # registers a spec memo of its own
    assert core._cache(first) is not cache
    assert core._cache(first).streams == {}
    calls = []
    stream = closure.stream_terms
    monkeypatch.setattr(closure, "stream_terms", lambda *a: calls.append(a[1]) or stream(*a))
    assert closure.rendered_terms(system, 30, "decimal", cli._decimals) == want
    assert calls == [30]  # streamed afresh
    core._cache.cache_clear()
