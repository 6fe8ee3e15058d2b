"""Per-layer tracing by rebinding module attributes to timing wrappers.

Only coarse public functions are wrapped (never per-pick helpers such as
`core.canonicalize`), so the overhead stays small.  A function is rebound
under every name that refers to it in the package, which covers names
imported with `from ... import` (`core.certify_eventually_positive`,
`cli.pv_classify`) and the package's re-exports.

Each call records a span [name, start, end, parent index] in memory; after an
op, `summary()` turns the spans into self time (span time minus the time of
its child spans) and call counts, plus the counters collected at the same
boundaries.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# module -> wrapped functions; the layers are the package's modules
WRAPPED = {
    "cli": ("main", "load_spec_file"),
    "closure": ("build_system", "stream_terms", "solve_gf"),
    "core": ("evolve", "is_dead", "initial_value", "expand_Fn", "u_alpha_oracle"),
    "cfinite": ("certify_eventually_positive", "pv_classify"),
    "roots": ("dominant_root_certificate",),
    "gfs": ("fit_recurrence", "berlekamp_massey", "make_gf"),
    "linalg": ("bareiss_solve_last", "lagrange_interpolate"),
    "polys": ("poly_gcd",),
}
LAYERS = tuple(WRAPPED)
SPANS = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)


def _count_evolve(c, args, result, exc):
    spec, state = args[0], args[1]
    c["core.evolve.picks"] += len(spec.terms) ** len(state.factors)
    if result is not None:
        c["core.evolve.targets"] += len(result)


def _count_is_dead(c, args, result, exc, seen):
    key = (id(args[0]), args[1])
    if result is not None and key not in seen:
        seen.add(key)
        c["core.is_dead.distinct"] += 1
        c["core.is_dead.dead"] += bool(result)


def _count_certify(c, args, result, exc):
    if result is not None and result.kind == "unknown":
        c["cfinite.certify_eventually_positive.unknown"] += 1


def _count_build(c, args, result, exc):
    report = result.report if result is not None else getattr(exc, "report", None)
    if report is None:
        return
    c["closure.build_system.states"] += report.state_count
    c["closure.dead_discarded"] += report.dead_discarded_count
    if result is not None:
        c["closure.build_system.nnz"] += sum(len(r) for r in result.rows)
    else:
        c["closure.build_system.limit_exceeded"] += 1


def _count_stream(c, args, result, exc):
    if result is None:
        return
    sys_, n = args[0], args[1]
    nnz = sum(len(r) for r in sys_.rows)
    bits = [t.bit_length() for t in result]
    c["closure.stream_terms.nnz_ops"] += n * nnz
    # operand bytes of the products, sized by the root term at each step
    c["closure.stream_terms.computed_bytes"] += nnz * sum(bits) // 8
    c["closure.stream_terms.max_bits"] = max(c["closure.stream_terms.max_bits"],
                                             max(bits))


def _count_bareiss(c, args, result, exc):
    if result is not None and result[0] == 0:
        c["linalg.bareiss_solve_last.singular"] += 1


def _count_fit(c, args, result, exc):
    if exc is None:
        c["gfs.fit_recurrence.terms"] += len(args[0])
        c["gfs.fit_recurrence.rejected"] += result is None


def _count_expand(c, args, result, exc):
    if result is not None:
        c["core.expand_Fn.coeffs"] += len(result)
        c["core.expand_Fn.python_path"] += isinstance(result, list)


class Tracer:
    """Installs and removes the wrappers; holds the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._dead_seen: set = set()
        self._saved: list[tuple[object, str, object]] = []
        counters = {
            "core.evolve": _count_evolve,
            "core.is_dead": lambda c, a, r, e: _count_is_dead(c, a, r, e, self._dead_seen),
            "cfinite.certify_eventually_positive": _count_certify,
            "closure.build_system": _count_build,
            "closure.stream_terms": _count_stream,
            "linalg.bareiss_solve_last": _count_bareiss,
            "gfs.fit_recurrence": _count_fit,
            "core.expand_Fn": _count_expand,
        }
        self._counters = counters

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    counter(counts, args, None, exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if counter is not None:
                counter(counts, args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self.installed:
            return
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "sterngf" or k.startswith("sterngf."))]
        for modname, fnames in WRAPPED.items():
            home = sys.modules[f"sterngf.{modname}"]
            for fname in fnames:
                fn = getattr(home, fname)
                name = f"{modname}.{fname}"
                w = self._wrap(name, fn, self._counters.get(name))
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._saved.append((m, attr, fn))
                            setattr(m, attr, w)
        # the names imported with `from ... import` must be traced too
        core, cli = sys.modules["sterngf.core"], sys.modules["sterngf.cli"]
        if not (hasattr(core.certify_eventually_positive, "__wrapped__")
                and hasattr(cli.pv_classify, "__wrapped__")):
            raise RuntimeError("tracer failed to rebind imported names")

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Self time and calls per span name, and the counters, of the spans
        recorded since the last summary; clears them."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        spans = self.spans
        for name, t0, t1, parent in spans:
            d = t1 - t0
            self_s[name] += d
            calls[name] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= d
        out = {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(self.counts)}
        spans.clear()
        self.counts.clear()
        self._dead_seen.clear()
        return out
