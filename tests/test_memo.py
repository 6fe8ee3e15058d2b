"""Memo ownership: results and reports depend on their inputs only, the
per-spec memos stay within their bound, and no module keeps a hidden
process-global container."""

import importlib
import pkgutil

import sterngf
from sterngf import CFiniteSeq, ProductSpec, build_system, core

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
