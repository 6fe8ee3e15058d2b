"""Dynamic closure of the state space into a linear system, and its solutions.

Starting from the root state, evolution rows are collected breadth-first
until no new states appear (or a state budget is exceeded, which is a normal
reportable outcome, not an error: for non-PV exponent sequences the closure
provably never ends).  The result is a sparse integer transfer matrix M and
initial vector v with state values f(n) = M^n v; the generating function of
the root state is the root component of (I - tM)^{-1} v.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from operator import mul

from . import core, gfs, linalg, polys
from .core import ProductSpec, State


@dataclass(frozen=True)
class ClosureReport:
    state_count: int
    dead_discarded_count: int
    limit: int
    outcome: str  # "closed" | "limit_exceeded"
    frontier_sample: tuple = ()

    def to_json(self) -> dict:
        return {
            "state_count": self.state_count,
            "dead_discarded_count": self.dead_discarded_count,
            "limit": self.limit,
            "outcome": self.outcome,
            "frontier_sample": [
                [[d, list(beta)] for d, beta in st.factors]
                for st in self.frontier_sample
            ],
        }


class LimitExceeded(Exception):
    def __init__(self, report: ClosureReport):
        super().__init__(f"state limit {report.limit} exceeded")
        self.report = report


@dataclass
class StateSystem:
    """Indexed closed state set: row s of M holds the evolution coefficients
    of state s onto its targets, v the level-0 values, root at index 0.
    `proven` holds the fitted GF once `solve_gf` has proven it; copies made
    by `dataclasses.replace` share it, and equality ignores it."""

    spec: ProductSpec
    states: list[State]
    rows: list[list[tuple[int, int]]]  # row -> [(col, coeff), ...]
    v: list[int]
    report: ClosureReport

    @property
    def dim(self) -> int:
        return len(self.states)

    root: int = 0
    proven: list[gfs.RationalGF] = field(default_factory=list, compare=False, repr=False)


def build_system(spec: ProductSpec, alpha, limit: int = 5000) -> StateSystem:
    """FIFO worklist closure from the root state.

    Deterministic: evolution rows are sorted, so discovery order, indexing
    and the report depend only on the inputs.  The closure prunes: it asks
    `core.is_dead` once per distinct target, for a whole row before it
    indexes any of it, and drops the dead targets from its rows.  Raises
    LimitExceeded (with a ClosureReport) as soon as the number of distinct
    live states passes the limit.

    So a closed system of dimension dim is the same for every limit >= dim:
    the spec's memo keeps it, and such a request gets it back with the
    report's limit set to its own.  A smaller limit closes afresh, which
    raises with the report of the states it reached.
    """
    root = core.root_state(alpha, spec.seq.order)
    cache = core._cache(spec)
    kept = cache.systems.get(root)
    if kept is not None and limit >= kept[0].dim:
        sys_ = kept[0]
        return replace(sys_, report=replace(sys_.report, limit=limit))
    index: dict[State, int] = {root: 0}
    states = [root]
    rows: list[list[tuple[int, int]]] = []
    queue: deque[State] = deque([root])
    # each distinct target's deadness, True for the ones this closure's rows
    # drop; apart from `index`, since the root is indexed unjudged yet may
    # come back as a dead target
    verdicts: dict[State, bool] = {}

    while queue:
        st = queue.popleft()
        row = core.evolve(spec, st)
        for _, tgt in row:
            if tgt not in verdicts:
                verdicts[tgt] = core.is_dead(spec, tgt)
        row = [(c, tgt) for c, tgt in row if not verdicts[tgt]]
        for _, tgt in row:
            if tgt not in index:
                index[tgt] = len(states)
                states.append(tgt)
                queue.append(tgt)
                if len(states) > limit:
                    sample = tuple(list(queue)[-4:])
                    raise LimitExceeded(ClosureReport(
                        state_count=len(states),
                        dead_discarded_count=sum(verdicts.values()),
                        limit=limit,
                        outcome="limit_exceeded",
                        frontier_sample=sample,
                    ))
        rows.append([(index[tgt], c) for c, tgt in row])

    report = ClosureReport(
        state_count=len(states),
        dead_discarded_count=sum(verdicts.values()),
        limit=limit,
        outcome="closed",
    )
    v = [core.initial_value(spec, s) for s in states]
    sys_ = StateSystem(spec=spec, states=states, rows=rows, v=v, report=report)
    cache.keep(cache.systems, root, sys_, sum(map(len, rows)) + len(states),
               core.SYSTEM_MEMO_LIMIT)
    return sys_


def stream_terms(sys: StateSystem, n: int) -> list[int]:
    """u(0..n) at the root state.

    Short streams iterate the sparse product vec <- M vec.  A stream of at
    least twice the 2*dim + 10 terms the fit needs costs more than the fit,
    so it takes the proven generating function num/den of `solve_gf` instead
    and extends u through den * U = num, one order-deg(den) step per term
    instead of one product of nnz(M) terms.  That is exact: the fit is the
    root series itself by its degree argument, and by Fatou's lemma the
    reduced GF of an integer series has den(0) = 1 (`gfs.series` checks
    it), so no step divides.
    """
    if n + 1 >= 2 * _fit_length(sys):
        return gfs.series(solve_gf(sys), n + 1)
    rows = [([col for col, _ in row], [c for _, c in row]) for row in sys.rows]
    vec = list(sys.v)
    out = [vec[sys.root]]
    for _ in range(n):
        vec = [sum(map(mul, coeffs, map(vec.__getitem__, cols)))
               for cols, coeffs in rows]
        out.append(vec[sys.root])
    return out


def rendered_terms(sys: StateSystem, n: int, view: str, render) -> list:
    """render(u(0..n)) for a termwise rendering, one whose first m + 1
    entries render u(0..m) (decimal text, digit counts), named by view.
    The closed system, and so u(0..n), depends only on the spec and alpha:
    the spec's memo keeps each view's longest prefix under (view, root
    state), and a longer request streams u(0..n) afresh."""
    return core._cache(sys.spec).prefix((view, sys.states[sys.root]), n,
                                        lambda n: render(stream_terms(sys, n)))


def _fit_length(sys: StateSystem) -> int:
    """Terms the fit streams: enough to certify a guarded fit of denominator
    degree up to dim."""
    return 2 * sys.dim + 10


def solve_gf(sys: StateSystem, method: str = "fit") -> gfs.RationalGF:
    """Root component of (I - tM)^{-1} v in canonical form.

    fit: stream 2*dim + 10 exact terms and reconstruct;
    rigorous because the true denominator divides det(I - tM), of degree at
    most dim.  The proven fit is kept with the system (`sys.proven`), so a
    memoized system fits once.  eliminate: exact Cramer quotient over Z[t],
    det(I - tM) by Berkowitz's recursion and the numerator from dim exact
    terms.
    """
    if method == "eliminate":
        return _solve_eliminate(sys)
    if method == "fit":
        if not sys.proven:
            terms = stream_terms(sys, _fit_length(sys) - 1)
            gf = gfs.fit_recurrence(terms, max_den_deg=sys.dim, guard=3)
            if gf is None:
                raise AssertionError("fit failed below its proven degree bound")
            sys.proven.append(gf)
        return sys.proven[0]
    raise ValueError(f"unknown method {method!r}")


def _solve_eliminate(sys: StateSystem) -> gfs.RationalGF:
    """Cramer's rule over Z[t] without a dense matrix.

    x_root = det(B_t) / det(A_t) with A_t = I - tM and B_t the matrix A_t
    with the root column replaced by v.  den = det(A_t) comes from the
    division-free determinant of the sparse rows.  B_t's replaced column
    holds no t, so det(B_t) = den * x_root has degree < dim: it is
    den * U mod t^dim, U the first dim exact terms.
    """
    den = linalg.det_one_minus_tM(sys.rows)
    num = polys.mul(den, stream_terms(sys, sys.dim - 1))[:sys.dim]
    return gfs.make_gf(num, den)


def guess_gf(spec: ProductSpec, alpha, n_terms: int,
             max_den_deg: int | None = None, guard: int = 3) -> gfs.RationalGF | None:
    """Empirical route: brute-force u_alpha(0..n_terms) and fit.  None means
    no admissible fit (propagated from fit_recurrence)."""
    terms = core.u_alpha_terms(spec, alpha, n_terms)
    if max_den_deg is None:
        max_den_deg = max(0, (len(terms) - 1 - guard) // 2)
    return gfs.fit_recurrence(terms, max_den_deg=max_den_deg, guard=guard)
