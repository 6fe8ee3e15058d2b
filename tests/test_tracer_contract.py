"""The benchmark's per-layer tracer rebinds the functions listed in its
WRAPPED table by name, including the names other modules imported with
`from ... import`.  A rename or a dropped import binding would silently zero
a per-layer metric, so the table is checked against the package here."""

import importlib
import importlib.util
import inspect
import pathlib

from sterngf import cfinite, cli, core

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WRAPPED


def test_every_wrapped_name_is_a_function_of_its_module():
    wrapped = load_wrapped()
    assert wrapped
    for module, names in wrapped.items():
        mod = importlib.import_module(f"sterngf.{module}")
        for name in names:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn), f"sterngf.{module}.{name}"
            assert fn.__module__ == mod.__name__, f"sterngf.{module}.{name}"


def test_imported_bindings_are_the_wrapped_functions():
    assert core.certify_eventually_positive is cfinite.certify_eventually_positive
    assert cli.pv_classify is cfinite.pv_classify
