"""Exact identity verification with first-mismatch diagnostics.

Every verifier compares coefficient vectors over an explicit window and
reports rather than raises: a failed identity comes back as a report whose
first_mismatch pins the exponent and both values, which is what you want when
bisecting a bad coefficient pipeline.

Six of the seven verifiers check one shape.  For family A (part sizes 1, 2,
3, ..., generating function p3) and family C (odd part sizes, generating
function overp), and every k,

    gf = sum over m >= k of w(m, k) * member m lowered by q^lowval(k),

where lowval(k), the valuation floor of member k, is k(k+1)/2 for A and k^2
for C, and w(m, k) is C(2m+1, m+k+1) for A and C(2m, m+k) for C.  The two
families differ only in that data.  Member m first contributes at exponent
lowval(m) - lowval(k), so each verifier cuts the sum to finitely many members
and a window:

- thm-*: every member that reaches the window 0..N; terms_used records how
  many did;
- cor-*: members k..k+j, on the window below lowval(k+j+1) - lowval(k), where
  the first omitted member begins;
- limit-*: member k alone, on the j = 0 corollary window, cut short where
  the order built would pass N.

family_request(identity, k, j, N) names what a verifier reads, (tag, K,
order, lowest): members k..K through the order, where each identity sets
the order and K is the top member that can be nonzero at it.  The verifier
derives its window and terms_used from it.  A corollary or limit verifier
asks its family store for exactly that; a theorem verifier asks for a
rounded build that covers it: the order rounded up to a multiple of 32 and
kept within the order limit, the lowest member rounded down to an even one,
and every member that can be nonzero at that order.  Theorem orders change
only a little from one k to the next, so a sweep over k builds a few
families and reads the rest out of them.  An order above the package's
order limit (families.MAX_ORDER) is refused with ValueError on every call,
before anything is built or read, the exact order before a rounded one, and
family_request refuses a limit order below its window's floor with
OrderBelowFloor.

Every family verifier reads its check from one store, which keeps one per
family and k.  A check compares p3 or overp with the member sum of the whole
build its call asks its family store for, on that build's window, and keeps
only the first mismatch, or None.  For one family and k the sum is one
series, and each window cuts it short, so a kept check answers every call of
its family and k whose window it reaches, whichever verifier asks: the call
drops a mismatch past its own window, as comparing the two prefixes would.
A longer window replaces the kept check, and a hit reads no series and
compares nothing.  theorem_rhs cuts a fresh sum short and keeps none, so a
longer sum cut short and a shorter one are built apart when compared.

Member m is zero below its floor, lowval(m) - lowval(k), and the sum reads
it from there; one that is not is read in full, so the comparison reports
where.  A kept check covers every member its build reaches, which can be
more than a later call's own build holds.  On correct families no report
depends on which call made the check; on a faulty one a hit, say a corollary
or limit call answered by a theorem's check, can report a member above its
own, nonzero below its floor in its window, that a cold call never reads.

The divisor verifier makes no store request.  It reads members 1 and 2 of A
from the power sums of the product's factors, by Newton's identity, and
refuses an order below 1 or above the order limit itself.

All negative-power normalizations are realized by shifting the generating
function side upward; no series here ever carries a negative exponent.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Sequence

from . import families
from .families import (
    MacmahonFamily,
    _check_order,
    _packed_square,
    _top_member,
    compute_A_family,
    compute_C_family,
)
from .partitions import _divisor_sums, _lowval, overpartition_series, p3_series

# sigma serves no verifier; it stays bound here because perfbench/tracer.py
# wraps macmahon.identities.sigma
from .partitions import sigma
from .series import TruncatedSeries, _check_param, _CoveringStore, _Record, _setfield


class Mismatch(_Record):
    """The first exponent at which the two sides of an identity differ."""

    __slots__ = ("exponent", "lhs", "rhs")

    def __init__(self, exponent: int, lhs: int, rhs: int) -> None:
        _setfield(self, "exponent", exponent)
        _setfield(self, "lhs", lhs)
        _setfield(self, "rhs", rhs)


class VerificationReport(_Record):
    """The outcome of one verifier call."""

    __slots__ = ("identity", "k", "j", "order", "first_mismatch", "terms_used", "elapsed_ms")

    def __init__(
        self,
        identity: str,
        k: int | None,
        j: int | None,
        order: int,
        first_mismatch: Mismatch | None,
        terms_used: int,
        elapsed_ms: float,
    ) -> None:
        _setfield(self, "identity", identity)
        _setfield(self, "k", k)
        _setfield(self, "j", j)
        _setfield(self, "order", order)
        _setfield(self, "first_mismatch", first_mismatch)
        _setfield(self, "terms_used", terms_used)
        _setfield(self, "elapsed_ms", elapsed_ms)

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

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
            "elapsed_ms": f"{self.elapsed_ms:.3f}",
        }


def _compare(lhs: Sequence[int], rhs: Sequence[int], top: int) -> Mismatch | None:
    for n in range(top + 1):
        if lhs[n] != rhs[n]:
            return Mismatch(n, lhs[n], rhs[n])
    return None


# -- the weighted member sum ---------------------------------------------------

# tag -> (step between part sizes, weight w(m, k) of member m in the identity
# for k).  The sums run over m >= k, so both binomial arguments stay in range.
# The stores and the generating functions are read by their global names
# below, which Python looks up at call time, so a store or series replaced on
# this module is what the verifiers read.  A check kept before a family
# store is replaced stays what they read until _first_mismatch is cleared.
_FAMILIES = {
    "A": (1, lambda m, k: math.comb(2 * m + 1, m + k + 1)),
    "C": (2, lambda m, k: math.comb(2 * m, m + k)),
}


class OrderBelowFloor(ValueError):
    """A limit or divisor verifier's order lies below `floor`, the valuation
    of member k, where its window would start."""

    def __init__(self, k: int, floor: int) -> None:
        super().__init__(f"order must be at least {floor}, the valuation of member {k}")
        self.floor = floor


def family_request(
    identity: str, k: int | None, j: int | None, N: int | None
) -> tuple[str, int, int, int]:
    """What the verifier of `identity` (a `macmahon verify` target) reads for
    these parameters, (tag, K, order, lowest): members lowest..K of family
    tag through the order.  Parameters it takes no part in are ignored."""
    tag = identity[-1].upper()
    if tag not in _FAMILIES:
        # the divisor verifier reads its members from power sums
        raise ValueError(f"{identity} makes no family store request")
    step = _FAMILIES[tag][0]
    shift = _lowval(k, step)
    if identity.startswith("thm"):
        order = N + shift
    elif identity.startswith("cor"):
        order = _lowval(k + j + 1, step) - 1
    elif N < shift:
        raise OrderBelowFloor(k, shift)
    else:
        order = min(_lowval(k + 1, step) - 1, N)
    # lowval(m) >= m, so no member above `order` reaches it: that is the cap,
    # k + j for a corollary and k for a limit
    return tag, _top_member(step, order, order), order, k


# a theorem's build order is rounded up to a multiple of this, lowest to even
_ORDER_GRID = 32


def _build_order(identity: str, order: int) -> int:
    """The order `identity`'s family store builds for its family_request's
    order, for a theorem rounded up to the grid within the order limit.  The
    exact order is refused first, so an error names it."""
    _check_order(order)
    if identity.startswith("thm"):
        order = min(-(-order // _ORDER_GRID) * _ORDER_GRID, families.MAX_ORDER)
    return order


def _serve(identity: str, request: tuple[str, int, int, int]) -> MacmahonFamily:
    """The family `identity`'s store serves its build from: every member
    nonzero at the build's order from k up, for a theorem from k - k % 2."""
    tag, _, order, lowest = request
    order = _build_order(identity, order)
    if identity.startswith("thm"):
        lowest -= lowest % 2
    K = _top_member(_FAMILIES[tag][0], order, order)
    store = compute_A_family if tag == "A" else compute_C_family
    return store(K, order, lowest=lowest)


def _lowered_sum(fam: MacmahonFamily, k: int) -> list[int]:
    """Coefficients 0..window of the sum of w(m, k) times member m lowered by
    q^lowval(k), over every member m >= k of `fam`; the window ends at the
    family's order lowered the same."""
    step, weight = _FAMILIES[fam.family]
    shift = _lowval(k, step)
    window = fam.truncation_order - shift
    out = [0] * (window + 1)
    floor = 0  # lowval(m) - lowval(k): member m is zero below it
    for m in range(k, fam.degree_cap + 1):
        w = weight(m, k)
        cs = fam.member(m).coeffs
        # a member that is not zero below its floor is read in full, so the
        # comparison reports where it is not
        start = 0 if floor and any(cs[shift : shift + floor]) else floor
        for n in range(start, window + 1):
            c = cs[n + shift]
            if c:
                out[n] += w * c
        floor += 1 + step * m
    return out


def _check_key(identity: str, request: tuple[str, int, int, int]) -> tuple[tuple[str, int], int]:
    # kept in the slot of its family and k under its build's window; the
    # order is refused here, so a hit refuses it too
    tag, _, order, k = request
    return (tag, k), _build_order(identity, order) - _lowval(k, _FAMILIES[tag][0])


def _first_mismatch_uncached(identity: str, request: tuple[str, int, int, int]) -> Mismatch | None:
    """The first mismatch of p3 or overp with the sum of every member from k
    up of the build `identity`'s family_request asks for, on its window."""
    fam = _serve(identity, request)
    rhs = _lowered_sum(fam, request[3])
    window = len(rhs) - 1
    gf = p3_series if fam.family == "A" else overpartition_series
    return _compare(gf(window).coeffs, rhs, window)


# one check per family and k answers every window it reaches
_first_mismatch = _CoveringStore(
    _first_mismatch_uncached, _check_key, operator.ge, lambda value, key: value, 1
)


def theorem_rhs(tag: str, k: int, order: int) -> tuple[TruncatedSeries, int]:
    """The member sum of the main identity for family `tag` ("A" or "C") and
    k on the window 0..order, and the number of members that reach it."""
    _check_param("k", k)
    _check_param("order", order)
    identity = f"thm-{tag.lower()}"
    request = family_request(identity, k, None, order)
    # a fresh sum, never kept, so two calls compare sums built apart
    rhs = _lowered_sum(_serve(identity, request), k)[: order + 1]
    return TruncatedSeries(tuple(rhs), order), request[1] - k + 1


def corollary_weights(tag: str, k: int, j: int) -> list[int]:
    weight = _FAMILIES[tag][1]
    return [weight(m, k) for m in range(k, k + j + 1)]


def _verify(identity: str, k: int, j: int | None, order: int | None) -> VerificationReport:
    _check_param("k", k)
    _check_param("j", j)
    _check_param("order", order)
    t0 = time.perf_counter()
    request = tag, K, top, _ = family_request(identity, k, j, order)
    window = top - _lowval(k, _FAMILIES[tag][0])
    mm = _first_mismatch(identity, request)
    # the check may reach past the window; a mismatch there is not this call's
    if mm is not None and mm.exponent > window:
        mm = None
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    order = window if order is None else order
    return VerificationReport(identity, k, j, order, mm, K - k + 1, elapsed_ms)


# -- main theorems ------------------------------------------------------------


def verify_theorem_A(k: int, order: int) -> VerificationReport:
    """3-colored generating function == weighted sum of A members, exactly,
    on coefficients 0..order."""
    return _verify("thm-a", k, None, order)


def verify_theorem_C(k: int, order: int) -> VerificationReport:
    """Overpartition generating function == weighted sum of C members."""
    return _verify("thm-c", k, None, order)


# -- truncated corollary formulas ---------------------------------------------


def verify_corollary_A(k: int, j: int) -> VerificationReport:
    """p3(n) == sum of j+1 weighted member coefficients, for every n in the
    guaranteed window n < (j+1)(j+2k+2)/2."""
    return _verify("cor-a", k, j, None)


def verify_corollary_C(k: int, j: int) -> VerificationReport:
    """Overpartition count == sum of j+1 weighted odd-family coefficients for
    n < (j+1)(j+2k+1)."""
    return _verify("cor-c", k, j, None)


# -- single-member limit relations ---------------------------------------------


def verify_limit_A(k: int, order: int) -> VerificationReport:
    """The lowered member A_k alone matches the 3-colored generating function
    through exponent k, i.e. the remainder has valuation >= k+1.  Only
    exponents up to shift+k are compared, so the member is built only that far."""
    return _verify("limit-a", k, None, order)


def verify_limit_C(k: int, order: int) -> VerificationReport:
    """The lowered member C_k matches the overpartition generating function
    through exponent 2k, i.e. the remainder has valuation >= 2k+1.  Only
    exponents up to shift+2k are compared, so the member is built only that far."""
    return _verify("limit-c", k, None, order)


# -- divisor-sum formulas -------------------------------------------------------


def _power_sum_members(s1: list[int], s3: list[int]) -> tuple[list[int], list[int]]:
    # Members 1 and 2 of A through the order of the divisor sums s1 = sigma_1
    # and s3 = sigma_3.  A_k is the k-th elementary symmetric function of
    # the factors x_s = q^s/(1-q^s)^2 = sum over m of m q^(sm), whose power
    # sums have [q^n] p_1 = sigma_1(n) and, as x_s^2 = sum over m of
    # C(m+1, 3) q^(sm), [q^n] p_2 = sum over d | n of C(d+1, 3) =
    # (sigma_3(n) - sigma_1(n))/6.  Newton's identity gives A_1 = p_1 and
    # A_2 = (p_1^2 - p_2)/2, from the product definition alone.
    square = _packed_square(s1)
    return s1, [(sq - (c3 - c1) // 6) // 2 for sq, c1, c3 in zip(square, s1, s3)]


def verify_divisor_identities(order: int) -> VerificationReport:
    """Member 1 carries sigma_1(n); member 2 satisfies
    8*coeff = (1-2n)*sigma_1(n) + sigma_3(n), which in particular forces the
    right side to be divisible by 8.  Checked for 1 <= n <= order.

    Both members come from the power sums of the product's factors, by
    Newton's identity, and the sums from one divisor sieve; no family is
    folded.  So the A_1 comparison is nearly tautological, as p_1 is the
    sigma_1 row itself.  The substance is the A_2 formula, which equates
    the square of that row with a combination of sigma_1 and sigma_3."""
    _check_param("order", order)
    # the divisor sums start at n = 1, the valuation of member 1
    if order < 1:
        raise OrderBelowFloor(1, 1)
    _check_order(order)
    t0 = time.perf_counter()
    s1, s3 = _divisor_sums(order)
    a1, a2 = _power_sum_members(s1, s3)
    mm = None
    for n in range(1, order + 1):
        if a1[n] != s1[n]:
            mm = Mismatch(n, a1[n], s1[n])
            break
        expr = (1 - 2 * n) * s1[n] + s3[n]
        if 8 * a2[n] != expr:
            mm = Mismatch(n, 8 * a2[n], expr)
            break
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return VerificationReport("divisor", None, None, order, mm, 2, elapsed_ms)
