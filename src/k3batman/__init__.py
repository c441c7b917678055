"""Exact Frobenius-trace statistics for a K3 family via Clausen elliptic curves."""

import os

# k3batman makes no BLAS call, but numpy's OpenBLAS starts a pool of worker
# threads at import, and each spins about 2^28 cycles before it sleeps: some
# 0.07 s of CPU per thread in every process. 4 (2^4 cycles) is the least
# OpenBLAS accepts. A value already set wins, and once numpy is loaded the
# pool has read the variable, so this changes nothing there.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .brackets import (
    bracket_coeff,
    chebyshev_coeffs,
    deligne_audit,
    mertens_coeff,
    pihol_coeff,
)
from .clausen import (
    TraceSummary,
    TraceTable,
    build_trace_table,
    chebyshev_sum,
    clausen_trace,
    moment,
)
from .field import FieldContext, is_prime, make_context, two_squares
from .hurwitz import (
    ClassNumbersAlong,
    HurwitzTable,
    build_hurwitz_table,
    identity_table,
    multiplicity_rhs,
    twelve_h_at,
)
from .measures import EarParameters, density_f, ear_parameters, mu_bat, mu_st, optimal_delta
from .selberg import TrigPolynomial, eval_trig, proof_bound_audit, selberg_pair
from .stats import (
    DiscrepancyReport,
    IntervalCounts,
    discrepancy_report,
    empirical_A_count,
    interval_counts,
    interval_counts_squared,
    uniform_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ClassNumbersAlong",
    "DiscrepancyReport",
    "EarParameters",
    "FieldContext",
    "HurwitzTable",
    "IntervalCounts",
    "TraceSummary",
    "TraceTable",
    "TrigPolynomial",
    "bracket_coeff",
    "build_hurwitz_table",
    "build_trace_table",
    "chebyshev_coeffs",
    "chebyshev_sum",
    "clausen_trace",
    "deligne_audit",
    "density_f",
    "discrepancy_report",
    "ear_parameters",
    "empirical_A_count",
    "eval_trig",
    "identity_table",
    "interval_counts",
    "interval_counts_squared",
    "is_prime",
    "make_context",
    "mertens_coeff",
    "moment",
    "multiplicity_rhs",
    "mu_bat",
    "mu_st",
    "optimal_delta",
    "pihol_coeff",
    "proof_bound_audit",
    "selberg_pair",
    "twelve_h_at",
    "two_squares",
    "uniform_grid",
]
