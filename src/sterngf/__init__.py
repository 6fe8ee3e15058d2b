"""Exact generating functions for correlation sums of generalized Stern arrays."""

from .cfinite import (
    CFiniteSeq,
    PosExpr,
    Positivity,
    PVResult,
    certify_eventually_positive,
    indicial_poly,
    pv_classify,
    reduce_shift,
    shift_level,
    term,
)
from .closure import (
    ClosureReport,
    LimitExceeded,
    StateSystem,
    build_system,
    guess_gf,
    solve_gf,
    stream_terms,
)
from .core import (
    ProductSpec,
    ResourceLimitError,
    SpecValidationError,
    State,
    canonicalize,
    evolve,
    expand_Fn,
    expand_levels,
    initial_value,
    is_dead,
    root_state,
    state_oracle,
    u_alpha_oracle,
    u_alpha_terms,
    validate_alpha,
)
from .gfs import InsufficientTermsError, RationalGF, fit_recurrence, make_gf, series

__all__ = [
    "CFiniteSeq", "PosExpr", "Positivity", "PVResult",
    "certify_eventually_positive", "indicial_poly", "pv_classify",
    "reduce_shift", "shift_level", "term",
    "ClosureReport", "LimitExceeded", "StateSystem", "build_system",
    "guess_gf", "solve_gf", "stream_terms",
    "ProductSpec", "ResourceLimitError", "SpecValidationError", "State",
    "canonicalize", "evolve", "expand_Fn", "expand_levels", "initial_value",
    "is_dead", "root_state", "state_oracle", "u_alpha_oracle", "u_alpha_terms",
    "validate_alpha",
    "InsufficientTermsError", "RationalGF", "fit_recurrence", "make_gf", "series",
]

__version__ = "0.1.0"
