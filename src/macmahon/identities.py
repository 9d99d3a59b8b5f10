"""Exact identity verification with first-mismatch diagnostics.

Every verifier compares coefficient vectors over an explicit window and
reports rather than raises: a failed identity comes back as a report whose
first_mismatch pins the exponent and both values, which is what you want when
bisecting a bad coefficient pipeline.

The infinite sums of the two main theorems are truncated by valuation: the
shifted member for index m first contributes at exponent m(m+1)/2 - k(k+1)/2
(family A) or m^2 - k^2 (family C), so only finitely many members reach the
compared window.  terms_used records exactly how many did.

All negative-power normalizations are realized by shifting the generating
function side upward; no series here ever carries a negative exponent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .families import binomial, compute_A_family, compute_C_family
from .partitions import overpartition_series, p3_series, sigma
from .series import TruncatedSeries


@dataclass(frozen=True)
class Mismatch:
    exponent: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    k: int | None
    j: int | None
    order: int
    passed: bool
    first_mismatch: Mismatch | None
    terms_used: int
    elapsed_ms: float

    def __post_init__(self) -> None:
        if self.passed != (self.first_mismatch is None):
            raise ValueError("passed must hold exactly when there is no mismatch")

    def to_json_dict(self) -> dict:
        mm = None
        if self.first_mismatch is not None:
            mm = {
                "exponent": self.first_mismatch.exponent,
                "lhs": str(self.first_mismatch.lhs),
                "rhs": str(self.first_mismatch.rhs),
            }
        return {
            "identity": self.identity,
            "k": self.k,
            "j": self.j,
            "N": self.order,
            "passed": self.passed,
            "first_mismatch": mm,
            "terms_used": self.terms_used,
            "elapsed_ms": self.elapsed_ms,
        }


def _report(
    identity: str,
    k: int | None,
    j: int | None,
    order: int,
    mismatch: Mismatch | None,
    terms_used: int,
    t0: float,
) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        k=k,
        j=j,
        order=order,
        passed=mismatch is None,
        first_mismatch=mismatch,
        terms_used=terms_used,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _reject_bool(**params: int) -> None:
    # bool is an int subclass; a True k would otherwise pass as 1 and be
    # reported as true
    for name, value in params.items():
        if isinstance(value, bool):
            raise TypeError(f"{name} must be an int, not bool")


def _compare(lhs: Sequence[int], rhs: Sequence[int], top: int) -> Mismatch | None:
    for n in range(top + 1):
        if lhs[n] != rhs[n]:
            return Mismatch(n, lhs[n], rhs[n])
    return None


# -- main theorems ------------------------------------------------------------


def theorem_rhs_A(k: int, order: int) -> tuple[TruncatedSeries, int]:
    """Weighted member sum of the main A identity, lowered by q^(k(k+1)/2) so
    it aligns with the 3-colored generating function window 0..order.
    Returns the series and the number of members that reach the window."""
    _reject_bool(k=k, order=order)
    if k < 0:
        raise ValueError("k must be non-negative")
    shift = k * (k + 1) // 2
    family_order = order + shift
    m_top = k
    while (m_top + 1) * (m_top + 2) // 2 <= family_order:
        m_top += 1
    fam = compute_A_family(m_top, family_order, lowest=k)
    out = [0] * (order + 1)
    for m in range(k, m_top + 1):
        w = binomial(2 * m + 1, m + k + 1)
        cs = fam.member(m).coeffs
        for n in range(order + 1):
            c = cs[n + shift]
            if c:
                out[n] += w * c
    return TruncatedSeries(tuple(out), order), m_top - k + 1


def theorem_rhs_C(k: int, order: int) -> tuple[TruncatedSeries, int]:
    """Weighted member sum of the main C identity, lowered by q^(k^2)."""
    _reject_bool(k=k, order=order)
    if k < 0:
        raise ValueError("k must be non-negative")
    shift = k * k
    family_order = order + shift
    m_top = k
    while (m_top + 1) * (m_top + 1) <= family_order:
        m_top += 1
    fam = compute_C_family(m_top, family_order, lowest=k)
    out = [0] * (order + 1)
    for m in range(k, m_top + 1):
        w = binomial(2 * m, m + k)
        cs = fam.member(m).coeffs
        for n in range(order + 1):
            c = cs[n + shift]
            if c:
                out[n] += w * c
    return TruncatedSeries(tuple(out), order), m_top - k + 1


def verify_theorem_A(k: int, order: int) -> VerificationReport:
    """3-colored generating function == weighted sum of A members, exactly,
    on coefficients 0..order."""
    t0 = time.perf_counter()
    rhs, terms = theorem_rhs_A(k, order)
    lhs = p3_series(order)
    mm = _compare(lhs.coeffs, rhs.coeffs, order)
    return _report("thm-a", k, None, order, mm, terms, t0)


def verify_theorem_C(k: int, order: int) -> VerificationReport:
    """Overpartition generating function == weighted sum of C members."""
    t0 = time.perf_counter()
    rhs, terms = theorem_rhs_C(k, order)
    lhs = overpartition_series(order)
    mm = _compare(lhs.coeffs, rhs.coeffs, order)
    return _report("thm-c", k, None, order, mm, terms, t0)


# -- truncated corollary formulas ---------------------------------------------


def corollary_A_weights(k: int, j: int) -> list[int]:
    return [binomial(2 * m + 2 * k + 1, m + 2 * k + 1) for m in range(j + 1)]


def corollary_C_weights(k: int, j: int) -> list[int]:
    return [binomial(2 * m + 2 * k, m + 2 * k) for m in range(j + 1)]


def verify_corollary_A(k: int, j: int) -> VerificationReport:
    """p3(n) == sum of j+1 weighted member coefficients, for every n in the
    guaranteed window n < (j+1)(j+2k+2)/2."""
    _reject_bool(k=k, j=j)
    if k < 0 or j < 0:
        raise ValueError("k and j must be non-negative")
    t0 = time.perf_counter()
    n_top = (j + 1) * (j + 2 * k + 2) // 2 - 1
    shift = k * (k + 1) // 2
    fam = compute_A_family(k + j, n_top + shift, lowest=k)
    weights = corollary_A_weights(k, j)
    lhs = p3_series(n_top)
    rhs = [0] * (n_top + 1)
    for m, w in enumerate(weights):
        cs = fam.member(k + m).coeffs
        for n in range(n_top + 1):
            c = cs[n + shift]
            if c:
                rhs[n] += w * c
    mm = _compare(lhs.coeffs, rhs, n_top)
    return _report("cor-a", k, j, n_top, mm, j + 1, t0)


def verify_corollary_C(k: int, j: int) -> VerificationReport:
    """Overpartition count == sum of j+1 weighted odd-family coefficients for
    n < (j+1)(j+2k+1)."""
    _reject_bool(k=k, j=j)
    if k < 0 or j < 0:
        raise ValueError("k and j must be non-negative")
    t0 = time.perf_counter()
    n_top = (j + 1) * (j + 2 * k + 1) - 1
    shift = k * k
    fam = compute_C_family(k + j, n_top + shift, lowest=k)
    weights = corollary_C_weights(k, j)
    lhs = overpartition_series(n_top)
    rhs = [0] * (n_top + 1)
    for m, w in enumerate(weights):
        cs = fam.member(k + m).coeffs
        for n in range(n_top + 1):
            c = cs[n + shift]
            if c:
                rhs[n] += w * c
    mm = _compare(lhs.coeffs, rhs, n_top)
    return _report("cor-c", k, j, n_top, mm, j + 1, t0)


# -- single-member limit relations ---------------------------------------------


def verify_limit_A(k: int, order: int) -> VerificationReport:
    """The lowered member A_k alone matches the 3-colored generating function
    through exponent k, i.e. the remainder has valuation >= k+1.  Only
    exponents up to shift+k are compared, so the member is built only that far."""
    _reject_bool(k=k, order=order)
    if k < 0:
        raise ValueError("k must be non-negative")
    shift = k * (k + 1) // 2
    if shift > order:
        raise ValueError("order must be at least k(k+1)/2")
    t0 = time.perf_counter()
    top = min(k, order - shift)
    member = compute_A_family(k, shift + top, lowest=k).member(k).coeffs
    lhs = p3_series(top)
    mm = None
    for n in range(top + 1):
        if lhs.coeffs[n] != member[n + shift]:
            mm = Mismatch(n, lhs.coeffs[n], member[n + shift])
            break
    return _report("limit-a", k, None, order, mm, 1, t0)


def verify_limit_C(k: int, order: int) -> VerificationReport:
    """The lowered member C_k matches the overpartition generating function
    through exponent 2k, i.e. the remainder has valuation >= 2k+1.  Only
    exponents up to shift+2k are compared, so the member is built only that far."""
    _reject_bool(k=k, order=order)
    if k < 0:
        raise ValueError("k must be non-negative")
    shift = k * k
    if shift > order:
        raise ValueError("order must be at least k^2")
    t0 = time.perf_counter()
    top = min(2 * k, order - shift)
    member = compute_C_family(k, shift + top, lowest=k).member(k).coeffs
    lhs = overpartition_series(top)
    mm = None
    for n in range(top + 1):
        if lhs.coeffs[n] != member[n + shift]:
            mm = Mismatch(n, lhs.coeffs[n], member[n + shift])
            break
    return _report("limit-c", k, None, order, mm, 1, t0)


# -- divisor-sum formulas -------------------------------------------------------


def verify_divisor_identities(order: int) -> VerificationReport:
    """Member 1 carries sigma_1(n); member 2 satisfies
    8*coeff = (1-2n)*sigma_1(n) + sigma_3(n), which in particular forces the
    right side to be divisible by 8.  Checked for 1 <= n <= order."""
    _reject_bool(order=order)
    if order < 1:
        raise ValueError("need order >= 1")
    t0 = time.perf_counter()
    fam = compute_A_family(2, order, lowest=1)
    a1 = fam.member(1).coeffs
    a2 = fam.member(2).coeffs
    mm = None
    for n in range(1, order + 1):
        s1 = sigma(1, n)
        if a1[n] != s1:
            mm = Mismatch(n, a1[n], s1)
            break
        expr = (1 - 2 * n) * s1 + sigma(3, n)
        if 8 * a2[n] != expr:
            mm = Mismatch(n, 8 * a2[n], expr)
            break
    return _report("divisor", None, None, order, mm, 2, t0)

