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
from dataclasses import dataclass
from operator import mul

from . import core, gfs, linalg
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
    of state s onto its targets, v the level-0 values, root at index 0."""

    spec: ProductSpec
    states: list[State]
    rows: list[list[tuple[int, int]]]  # row -> [(col, coeff), ...]
    v: list[int]
    report: ClosureReport

    @property
    def dim(self) -> int:
        return len(self.states)

    root: int = 0


def build_system(spec: ProductSpec, alpha, limit: int = 5000) -> StateSystem:
    """FIFO worklist closure from the root state.

    Deterministic: evolution rows are sorted, so discovery order, indexing
    and the report depend only on the inputs.  Raises LimitExceeded (with a
    ClosureReport) as soon as the number of distinct live states passes the
    limit.
    """
    root = core.root_state(alpha, spec.seq.order)
    index: dict[State, int] = {root: 0}
    states = [root]
    rows: list[list[tuple[int, int]]] = []
    queue: deque[State] = deque([root])
    dead: set[State] = set()  # dead targets this closure's rows dropped

    while queue:
        st = queue.popleft()
        row = core.evolve(spec, st, dead)
        for _, tgt in row:
            if tgt not in index:
                index[tgt] = len(states)
                states.append(tgt)
                queue.append(tgt)
                if len(states) > limit:
                    sample = tuple(list(queue)[-4:])
                    raise LimitExceeded(ClosureReport(
                        state_count=len(states),
                        dead_discarded_count=len(dead),
                        limit=limit,
                        outcome="limit_exceeded",
                        frontier_sample=sample,
                    ))
        rows.append([(index[tgt], c) for c, tgt in row])

    report = ClosureReport(
        state_count=len(states),
        dead_discarded_count=len(dead),
        limit=limit,
        outcome="closed",
    )
    v = [core.initial_value(spec, s) for s in states]
    return StateSystem(spec=spec, states=states, rows=rows, v=v, report=report)


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


def _fit_length(sys: StateSystem) -> int:
    """Terms the fit streams: enough to certify a guarded fit of denominator
    degree up to dim."""
    return 2 * sys.dim + 10


def solve_gf(sys: StateSystem, method: str = "fit") -> gfs.RationalGF:
    """Root component of (I - tM)^{-1} v in canonical form.

    fit: stream 2*dim + 10 exact terms and reconstruct;
    rigorous because the true denominator divides det(I - tM), of degree at
    most dim.  eliminate: exact Cramer quotient det/det over Z[t], each
    determinant recovered from integer Bareiss eliminations at
    interpolation points.
    """
    if method == "eliminate":
        return _solve_eliminate(sys)
    if method == "fit":
        terms = stream_terms(sys, _fit_length(sys) - 1)
        gf = gfs.fit_recurrence(terms, max_den_deg=sys.dim, guard=3)
        if gf is None:
            raise AssertionError("fit failed below its proven degree bound")
        return gf
    raise ValueError(f"unknown method {method!r}")


def _solve_eliminate(sys: StateSystem) -> gfs.RationalGF:
    """Interpolated fraction-free elimination.

    x_root = det(B_t) / det(A_t) with A_t = I - tM and B_t the matrix A_t
    with the root column replaced by v (Cramer).  Both determinants are
    polynomials in t of degree <= dim, so evaluating them exactly at dim + 1
    integers (skipping the finitely many points where A_t is singular) and
    interpolating is exact.  Columns are permuted to put the root last, which
    lets one Bareiss pass per point deliver both determinants.  The fixed
    permutation gives both the same sign, which make_gf's den(0) > 0
    normalisation removes.
    """
    n = sys.dim
    dense = [[0] * n for _ in range(n)]
    for r, row in enumerate(sys.rows):
        for col, c in row:
            dense[r][col] = c
    perm = [c for c in range(n) if c != sys.root] + [sys.root]
    points: list[int] = []
    detA_vals: list[int] = []
    detB_vals: list[int] = []
    t0 = 0
    while len(points) < n + 1:
        aug = []
        for r in range(n):
            row = [(1 if r == c else 0) - t0 * dense[r][c] for c in perm]
            row.append(sys.v[r])
            aug.append(row)
        dA, dB = linalg.bareiss_solve_last(aug)
        if dA != 0:
            points.append(t0)
            detA_vals.append(dA)
            detB_vals.append(dB)
        t0 = -t0 + (1 if t0 <= 0 else 0)  # 0, 1, -1, 2, -2, ...
    den = linalg.lagrange_interpolate(points, detA_vals)
    num = linalg.lagrange_interpolate(points, detB_vals)
    return gfs.make_gf(num, den)


def guess_gf(spec: ProductSpec, alpha, n_terms: int,
             max_den_deg: int | None = None, guard: int = 3) -> gfs.RationalGF | None:
    """Empirical route: brute-force u_alpha(0..n_terms) and fit.  None means
    no admissible fit (propagated from fit_recurrence)."""
    terms = core.u_alpha_terms(spec, alpha, n_terms)
    if max_den_deg is None:
        max_den_deg = max(0, (len(terms) - 1 - guard) // 2)
    return gfs.fit_recurrence(terms, max_den_deg=max_den_deg, guard=guard)
