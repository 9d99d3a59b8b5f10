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
order, lowest): members lowest..K through the order, from which it derives
its window and terms_used.  A corollary or limit verifier asks its store
for exactly that.  A theorem verifier asks for a rounded build that covers
it: the order rounded up to a multiple of 32 and kept within the order
limit, the lowest member rounded down to an even one, and every member that
can be nonzero at that order.  Theorem orders change only a little from one
k to the next, so a sweep over k builds a few families and reads the rest
out of them.  An order above the package's order limit (families.MAX_ORDER)
is refused with ValueError before anything is built, the theorem's exact
order before its rounded one, and family_request refuses a limit order
below its window's floor with OrderBelowFloor.

A theorem verifier asks the store of theorem sums before any family store.
For one (identity, k) the sum is the same series, p3 or overp, whatever the
window, so a sum built once answers every shorter window with its prefix.
The store keys a sum by (identity, k, window), where the window is the
rounded build's order lowered by lowval(k); a miss sums every member of
that build over that whole window.  It keeps 32 sums, one per k <= 15 for
both families, and a new sum drops the shorter one of its (identity, k).
The verifier compares through N only and takes terms_used from the exact
family_request.  theorem_rhs and the corollary and limit verifiers sum
afresh.  theorem_rhs does so that a longer sum cut short and a shorter sum
are built apart when they are compared; a kept sum would compare a prefix
with itself.  A corollary or limit sum reads j + 1 members or one, which
costs little next to a theorem sum, which reads every member that reaches
its window.

The divisor verifier makes no store request.  It reads members 1 and 2 of A
from the power sums of the product's factors, by Newton's identity, and
refuses an order below 1 or above the order limit itself.

All negative-power normalizations are realized by shifting the generating
function side upward; no series here ever carries a negative exponent.
"""

from __future__ import annotations

import math
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
# this module is what the verifiers read.  A theorem sum kept before a family
# store is replaced stays what they read until _theorem_sum is cleared.
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
        # lowval(m) >= m, so no member above `order` reaches it: that is the cap
        return tag, _top_member(step, order, order), order, k
    if identity.startswith("cor"):
        return tag, k + j, _lowval(k + j + 1, step) - 1, k
    if N < shift:
        raise OrderBelowFloor(k, shift)
    return tag, k, min(_lowval(k + 1, step) - 1, N), k


# a theorem verifier's store request is rounded to a multiple of this order
# and down to an even lowest member
_ORDER_GRID = 32


def _rounded_order(order: int) -> int:
    # a theorem order rounded up to the grid and kept within the order limit;
    # the exact order is refused first, so the error names it
    _check_order(order)
    return min(-(-order // _ORDER_GRID) * _ORDER_GRID, families.MAX_ORDER)


def _serve(
    identity: str, k: int | None, j: int | None, N: int | None
) -> tuple[tuple[str, int, int, int], MacmahonFamily]:
    """The family_request of the verifier of `identity` and the family its
    store serves it from: the request itself, or for a theorem verifier a
    rounded build that covers it."""
    request = tag, K, order, lowest = family_request(identity, k, j, N)
    store = compute_A_family if tag == "A" else compute_C_family
    if identity.startswith("thm"):
        order = _rounded_order(order)
        lowest -= lowest % 2
        K = _top_member(_FAMILIES[tag][0], order, order)
    return request, store(K, order, lowest=lowest)


def _lowered_sum(request: tuple[str, int, int, int], fam: MacmahonFamily) -> list[int]:
    """Coefficients 0..window of the sum of w(m, k) times member m lowered by
    q^lowval(k), over the members m = k..K of `request` (tag, K, order, k),
    read out of `fam`, a family that covers it; the window ends at the
    request's order lowered the same."""
    tag, K, order, k = request
    step, weight = _FAMILIES[tag]
    shift = _lowval(k, step)
    window = order - shift
    out = [0] * (window + 1)
    floor = 0  # lowval(m) - lowval(k): member m is zero below it
    for m in range(k, K + 1):
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


def _sum_key(identity: str, k: int, N: int) -> tuple[str, int, int]:
    # a theorem sum is kept under the window of the rounded build it is read
    # out of: that build's order lowered by lowval(k)
    shift = _lowval(k, _FAMILIES[identity[-1].upper()][0])
    return identity, k, _rounded_order(N + shift) - shift


def _sum_covers(kept: tuple[str, int, int], key: tuple[str, int, int]) -> bool:
    # a kept sum answers its own identity and k through any window it reaches
    return kept[2] >= key[2] and kept[1] == key[1] and kept[0] == key[0]


def _theorem_sum_uncached(identity: str, k: int, N: int) -> tuple[int, ...]:
    """The member sum of theorem `identity` for k on the whole window of the
    rounded build that covers window N: every member that reaches it."""
    request, fam = _serve(identity, k, None, N)
    whole = request[0], fam.degree_cap, fam.truncation_order, k
    return tuple(_lowered_sum(whole, fam))


# the sum of one (identity, k) is one series, p3 or overp, for every window,
# so a kept sum answers every shorter window with its prefix; 32 sums hold
# both families' k = 0..15
_theorem_sum = _CoveringStore(
    _theorem_sum_uncached, _sum_key, _sum_covers, lambda value, key: value, 32
)


def theorem_rhs(tag: str, k: int, order: int) -> tuple[TruncatedSeries, int]:
    """The member sum of the main identity for family `tag` ("A" or "C") and
    k on the window 0..order, and the number of members that reach it."""
    _check_param("k", k)
    _check_param("order", order)
    request, fam = _serve(f"thm-{tag.lower()}", k, None, order)
    return TruncatedSeries(tuple(_lowered_sum(request, fam)), order), request[1] - k + 1


def corollary_weights(tag: str, k: int, j: int) -> list[int]:
    weight = _FAMILIES[tag][1]
    return [weight(m, k) for m in range(k, k + j + 1)]


def _verify(identity: str, k: int, j: int | None, order: int | None) -> VerificationReport:
    _check_param("k", k)
    _check_param("j", j)
    _check_param("order", order)
    t0 = time.perf_counter()
    if identity.startswith("thm"):
        # the kept sum may reach past the window; only 0..order is compared
        rhs = _theorem_sum(identity, k, order)
        request, window = family_request(identity, k, j, order), order
    else:
        request, fam = _serve(identity, k, j, order)
        rhs = _lowered_sum(request, fam)
        window = len(rhs) - 1
    gf = p3_series if request[0] == "A" else overpartition_series
    mm = _compare(gf(window).coeffs, rhs, window)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    order = window if order is None else order
    return VerificationReport(identity, k, j, order, mm, request[1] - k + 1, elapsed_ms)


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
