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
derives its window and terms_used from it; a limit order below the window's
floor raises OrderBelowFloor.

_build_request names the build whose check answers the call, (tag, k,
order, lowest).  It refuses an order above the order limit
(partitions.MAX_ORDER) with ValueError on every call, before anything is
read.  A corollary or limit call's build is its request.  A theorem call's
has the order rounded up to a multiple of 32 within the limit and the
lowest member rounded down to even, so a sweep over k, whose orders change
little, builds a few families and reads the rest out of them.

The store of checks keeps one check per family and k, in the slot (tag, k)
under the build's order.  A miss asks the family store for every member of
the build that can be nonzero at its order, compares p3 or overp with the
member sum from k up on the build's window, that order lowered by lowval(k),
and keeps the first mismatch, or None.  For one family and k the sum is one
series, so a kept check answers every call of its family and k whose window
it reaches, whichever verifier asks; the call drops a mismatch past its own
window, as comparing the two prefixes would.  A longer window replaces the
kept check, and a hit reads no series and compares nothing.

Member m is zero below its floor, lowval(m) - lowval(k), and the sum reads
it from there; one that is not is read in full, so the comparison reports
where.  Such a member can lie above a later call's own build, so a check
that read one is returned but not kept.  A kept check then answers a call
as a cold call would, since each member above the call's own is zero below
its floor, which lies past the call's window: on any family, correct or
faulty, no report depends on which calls came before it.

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

from . import partitions
from .families import MacmahonFamily, _packed_square, compute_A_family, compute_C_family
from .partitions import _check_order, _divisor_sums, _lowval, _top_member
from .partitions import overpartition_series, p3_series

# sigma serves no verifier; it stays bound here because perfbench/tracer.py
# wraps macmahon.identities.sigma
from .partitions import sigma
from .series import _check_param, _CoveringStore, _Record, _setfield


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
    return tag, _top_member(step, order), order, k


# a theorem's build order is rounded up to a multiple of this, lowest to even
_ORDER_GRID = 32


def _build_request(identity: str, request: tuple) -> tuple[str, int, int, int]:
    """The build whose check answers `identity`'s family_request, (tag, k,
    order, lowest): for a theorem the order rounded up to the grid within
    the order limit and the lowest member rounded down to even.  The exact
    order is refused first, so an error names it, and a call that a kept
    check answers is refused too."""
    tag, _, order, k = request
    lowest = k
    _check_order(order)
    if identity.startswith("thm"):
        order = min(-(-order // _ORDER_GRID) * _ORDER_GRID, partitions.MAX_ORDER)
        lowest -= lowest % 2
    return tag, k, order, lowest


def _lowered_sum(fam: MacmahonFamily, k: int) -> tuple[list[int], bool]:
    """Coefficients 0..window of the sum of w(m, k) times member m lowered by
    q^lowval(k), over every member m >= k of `fam`; the window ends at the
    family's order lowered the same; and False if some member was read in
    full, being nonzero below its floor."""
    step, weight = _FAMILIES[fam.family]
    shift = _lowval(k, step)
    window = fam.truncation_order - shift
    out = [0] * (window + 1)
    clean = True
    floor = 0  # lowval(m) - lowval(k): member m is zero below it
    for m in range(k, fam.degree_cap + 1):
        w = weight(m, k)
        cs = fam.member(m).coeffs
        start = floor
        # a member that is not zero below its floor is read in full, so the
        # comparison reports where it is not
        if floor and any(cs[shift : shift + floor]):
            start, clean = 0, False
        for n in range(start, window + 1):
            c = cs[n + shift]
            if c:
                out[n] += w * c
        floor += 1 + step * m
    return out, clean


class _Unkept(Exception):
    """Raised by a miss of the store of checks with a check it must return
    but not keep; a store keeps nothing its build raises."""


def _check_key(build: tuple[str, int, int, int]) -> tuple[tuple[str, int], int]:
    # kept in the slot of its family and k under its build's order, which
    # within a slot orders builds as their windows do
    tag, k, order, _ = build
    return (tag, k), order


def _first_mismatch_uncached(build: tuple[str, int, int, int]) -> Mismatch | None:
    """The first mismatch of p3 or overp with the sum of every member from k
    up of the build, on its window: members lowest..K through the order, K
    the top member that can be nonzero there."""
    tag, k, order, lowest = build
    store = compute_A_family if tag == "A" else compute_C_family
    K = _top_member(_FAMILIES[tag][0], order)
    rhs, clean = _lowered_sum(store(K, order, lowest=lowest), k)
    window = len(rhs) - 1
    gf = p3_series if tag == "A" else overpartition_series
    mm = _compare(gf(window).coeffs, rhs, window)
    if not clean:
        # a member read in full may lie above a later call's own build
        raise _Unkept(mm)
    return mm


# one check per family and k answers every window it reaches
_first_mismatch = _CoveringStore(
    _first_mismatch_uncached, _check_key, operator.ge, lambda value, key: value, 1
)


def _verify(identity: str, k: int, j: int | None, order: int | None) -> VerificationReport:
    _check_param("k", k)
    _check_param("j", j)
    _check_param("order", order)
    t0 = time.perf_counter()
    request = tag, K, top, _ = family_request(identity, k, j, order)
    window = top - _lowval(k, _FAMILIES[tag][0])
    try:
        mm = _first_mismatch(_build_request(identity, request))
    except _Unkept as unkept:
        mm = unkept.args[0]
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
