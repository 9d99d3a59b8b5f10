"""Exact truncated q-series engine for MacMahon's partition generating
functions: the families A_k and C_k, the 3-colored partition and
overpartition generating functions, and coefficient-exact verification of
the identity families connecting them."""

from .series import (
    TruncatedSeries,
    format_series,
    geometric_square,
    make_series,
    pochhammer,
)
from .partitions import (
    PartitionOracleResult,
    jacobi_cube,
    mk_bruteforce,
    mk_odd_bruteforce,
    overpartition_series,
    p3_series,
    sigma,
    theta_square,
)
from .families import (
    MacmahonFamily,
    a_k_directsum,
    binomial,
    compute_A_family,
    compute_C_family,
    members,
)
from .identities import (
    Mismatch,
    VerificationReport,
    verify_corollary_A,
    verify_corollary_C,
    verify_divisor_identities,
    verify_limit_A,
    verify_limit_C,
    verify_theorem_A,
    verify_theorem_C,
)

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries",
    "make_series",
    "format_series",
    "pochhammer",
    "geometric_square",
    "jacobi_cube",
    "theta_square",
    "p3_series",
    "overpartition_series",
    "sigma",
    "mk_bruteforce",
    "mk_odd_bruteforce",
    "PartitionOracleResult",
    "MacmahonFamily",
    "compute_A_family",
    "compute_C_family",
    "members",
    "a_k_directsum",
    "binomial",
    "VerificationReport",
    "Mismatch",
    "verify_theorem_A",
    "verify_theorem_C",
    "verify_corollary_A",
    "verify_corollary_C",
    "verify_limit_A",
    "verify_limit_C",
    "verify_divisor_identities",
]
