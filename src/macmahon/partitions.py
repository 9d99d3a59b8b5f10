"""Theta series, partition generating functions, and enumeration oracles.

`_theta_row(step, k, order)` is the sparse theta factor of member k of A
(step 1) or C (step 2) in the closed form of Andrews and Rose, one term per
member from k up to `_top_member(step, order)`, the top member whose
valuation floor lies within the order; that member caps every family build
and verifier request too.  The theta route in families.py multiplies the
row into the dense series.  Row 0 is the denominator of each generating
function, (q;q)^3 for p3 and (q^2;q^2)(q;q^2)^2 for overp, and
`jacobi_cube`/`theta_square` are its dense form.  The two generating functions the identity verifiers target are
produced by inverting them (O(sqrt N) nonzero terms), which keeps the
inversion recurrence cheap.  Each is a covering store (series.py) keeping
the longest series it has inverted, whose prefixes answer shorter orders
exactly.  MAX_ORDER is the package's one order limit: these two stores,
the family stores and builds and `members` (families.py), and every
verifier refuse an order above it with ValueError before they invert, fold
or read anything.  The test suite checks both theta expansions against
their infinite-product forms, built from plain coefficient lists
(tests/oracles.py).

The brute-force counters at the bottom enumerate partitions directly
(decreasing part size, then a multiplicity loop per size) and are the ground
truth the production family computation is measured against.
"""

from __future__ import annotations

import functools
import math
import operator

from .series import TruncatedSeries, _check_param, _CoveringStore, _Record, _setfield


def _lowval(k: int, step: int) -> int:
    # the valuation floor of member k: the sum of its k smallest part sizes
    # 1, 1+step, ..., 1+(k-1)*step (step 1 for A, 2 for C)
    return k + step * k * (k - 1) // 2


def _top_member(step: int, order: int) -> int:
    # the largest m with lowval(m) <= order, above which every member is zero
    # through the order: the root of step*m^2 + (2-step)*m = 2*order, rounded
    # down exactly, as floor(floor(y)/c) = floor(y/c) for integer c > 0
    b = 2 - step
    return (math.isqrt(b * b + 8 * step * order) - b) // (2 * step)


def _theta_row(step: int, k: int, order: int) -> list[tuple[int, int]]:
    # (coefficient, exponent) of the sparse theta factor of member k: for A,
    # (-1)^(m+k) (2m+1)/(2k+1) C(m+k, 2k) at q^(m(m+1)/2); for C,
    # (-1)^(m+k) 2m/(m+k) C(m+k, 2k) at q^(m^2), with 1 at m = k = 0.  The
    # exponent is the valuation floor of member m, and the divisions are
    # exact.  Row 0 is the denominator of the generating function.
    row = []
    for m in range(k, _top_member(step, order) + 1):
        if step == 1:
            c = (2 * m + 1) * math.comb(m + k, 2 * k) // (2 * k + 1)
        else:
            c = 2 * m * math.comb(m + k, 2 * k) // (m + k) if m else 1
        row.append((-c if (m + k) % 2 else c, _lowval(m, step)))
    return row


def _dense_row_zero(step: int, order: int) -> TruncatedSeries:
    c = [0] * (order + 1)
    for coeff, e in _theta_row(step, 0, order):
        c[e] = coeff
    return TruncatedSeries(tuple(c), order)


def jacobi_cube(order: int) -> TruncatedSeries:
    """Cube of the q-Pochhammer (q;q)_inf as the alternating triangular-number
    series 1 - 3q + 5q^3 - 7q^6 + 9q^10 - ..., theta row 0 of A."""
    return _dense_row_zero(1, order)


def theta_square(order: int) -> TruncatedSeries:
    """(q^2;q^2)_inf (q;q^2)_inf^2 as the alternating square series
    1 - 2q + 2q^4 - 2q^9 + ..., theta row 0 of C."""
    return _dense_row_zero(2, order)


# The highest truncation order any series or family build reaches, above
# the order 10608 of the deep k=100 corollary window.  It bounds the size of
# every coefficient vector and packed integer, not time: a fold grows about
# 8x per doubling of its order.
MAX_ORDER = 20_000


def _check_order(order: int) -> int:
    # the package's one check of the order limit; returns the order
    if order > MAX_ORDER:
        raise ValueError(
            f"this call builds truncation order {order}, above the order limit {MAX_ORDER}"
        )
    return order


def _series_key(order: int) -> tuple[None, int]:
    # a generating-function store has one slot, and a request's key is its
    # order; an order above the limit is refused before anything is inverted
    _check_param("truncation order", order)
    return None, _check_order(order)


# a kept series serves every order up to its own with a prefix; a miss is
# longer than the kept series and drops it, so only the longest is kept
_series_store = functools.partial(
    _CoveringStore,
    check=_series_key,
    covers=operator.ge,
    cut=TruncatedSeries.truncate,
    maxsize=1,
)


@_series_store
def p3_series(order: int) -> TruncatedSeries:
    """Generating function of the 3-colored partition counts."""
    return jacobi_cube(order).invert()


@_series_store
def overpartition_series(order: int) -> TruncatedSeries:
    """Generating function of the overpartition counts: 1, 2, 4, 8, 14, 24, ..."""
    return theta_square(order).invert()


def sigma(nu: int, n: int) -> int:
    """Divisor power sum: sum of d^nu over divisors d of n, by trial division
    up to sqrt(n).  For every n up to an order at once, `_divisor_sums` sieves
    sigma_1 and sigma_3."""
    _check_param("nu", nu)
    _check_param("n", n)
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d**nu
            e = n // d
            if e != d:
                total += e**nu
    return total


def _divisor_sums(order: int) -> tuple[list[int], list[int]]:
    # sigma_1(n) and sigma_3(n) for n = 0..order, 0 at n = 0, from one sieve
    # over the divisor pairs d * e = n with d <= e: O(order log order) adds
    s1 = [0] * (order + 1)
    s3 = [0] * (order + 1)
    for d in range(1, math.isqrt(order) + 1):
        d3 = d**3
        # n = d^2 has the divisor d once
        s1[d * d] += d
        s3[d * d] += d3
        # n = d * e for e > d has both
        for e in range(d + 1, order // d + 1):
            s1[d * e] += d + e
            s3[d * e] += d3 + e * e * e
    return s1, s3


class PartitionOracleResult(_Record):
    """Exact multiplicity-product count from exhaustive enumeration."""

    __slots__ = ("k", "n", "value", "odd_parts_only")

    def __init__(self, k: int, n: int, value: int, odd_parts_only: bool) -> None:
        _setfield(self, "k", k)
        _setfield(self, "n", n)
        _setfield(self, "value", value)
        _setfield(self, "odd_parts_only", odd_parts_only)


def _multiplicity_product_sum(k: int, n: int, odd_parts_only: bool) -> int:
    """Sum, over partitions of n with exactly k distinct part sizes, of the
    product of the part multiplicities.

    Sizes are chosen in decreasing order; per size a multiplicity loop runs.
    Exponential in spirit, fine for the oracle range (n up to ~40).
    """
    _check_param("k", k)
    _check_param("n", n)
    if k == 0:
        return 1 if n == 0 else 0
    step = 2 if odd_parts_only else 1

    def count(max_size: int, remaining: int, sizes_left: int) -> int:
        if sizes_left == 0:
            return 1 if remaining == 0 else 0
        s = max_size
        if odd_parts_only and s % 2 == 0:
            s -= 1
        # cheapest completion below s: the smallest sizes_left-1 distinct sizes
        if odd_parts_only:
            tail = (sizes_left - 1) ** 2
        else:
            tail = (sizes_left - 1) * sizes_left // 2
        total = 0
        while s >= 1:
            if s - (sizes_left - 1) * step < 1:
                break  # not enough distinct sizes at or below s
            if s + tail <= remaining:
                m = 1
                while m * s + tail <= remaining:
                    sub = count(s - step, remaining - m * s, sizes_left - 1)
                    if sub:
                        total += m * sub
                    m += 1
            s -= step
        return total

    return count(n, n, k)


def mk_bruteforce(k: int, n: int) -> PartitionOracleResult:
    """Exhaustive value of the multiplicity-product partition count
    (k distinct part sizes, any parity).  Intended for small n."""
    return PartitionOracleResult(k, n, _multiplicity_product_sum(k, n, False), False)


def mk_odd_bruteforce(k: int, n: int) -> PartitionOracleResult:
    """Same count restricted to odd part sizes; zero whenever n < k^2 since the
    smallest k distinct odd sizes sum to k^2."""
    return PartitionOracleResult(k, n, _multiplicity_product_sum(k, n, True), True)
