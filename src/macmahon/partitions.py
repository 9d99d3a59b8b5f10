"""Theta series, partition generating functions, and enumeration oracles.

The two generating functions the identity verifiers target are produced by
inverting sparse theta expansions (O(sqrt N) nonzero terms), which keeps the
inversion recurrence cheap.  Each is a covering store (series.py) keeping
the longest series it has inverted, whose prefixes answer shorter orders
exactly.  The test suite checks both theta expansions against their
infinite-product forms, built from plain coefficient lists (tests/oracles.py).

The brute-force counters at the bottom enumerate partitions directly
(decreasing part size, then a multiplicity loop per size) and are the ground
truth the production family computation is measured against.
"""

from __future__ import annotations

import functools
import operator

from .series import TruncatedSeries, _CoveringStore, _Record, _setfield


def jacobi_cube(order: int) -> TruncatedSeries:
    """Cube of the q-Pochhammer (q;q)_inf as the alternating triangular-number
    series 1 - 3q + 5q^3 - 7q^6 + 9q^10 - ..."""
    c = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        c[n * (n + 1) // 2] = (2 * n + 1) * (-1 if n % 2 else 1)
        n += 1
    return TruncatedSeries(tuple(c), order)


def theta_square(order: int) -> TruncatedSeries:
    """(q^2;q^2)_inf (q;q^2)_inf^2 as the alternating square series
    1 - 2q + 2q^4 - 2q^9 + ..."""
    c = [0] * (order + 1)
    c[0] = 1
    n = 1
    while n * n <= order:
        c[n * n] = -2 if n % 2 else 2
        n += 1
    return TruncatedSeries(tuple(c), order)


def _check_order(order: int) -> int:
    # the key of a generating-function request is its order
    if isinstance(order, bool):
        raise TypeError("truncation order must be an int, not bool")
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    return order


# a kept series serves every order up to its own with a prefix; a miss is
# longer than every kept series and drops them, so only the longest is kept
_series_store = functools.partial(
    _CoveringStore, check=_check_order, covers=operator.ge, cut=TruncatedSeries.truncate
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
    """Divisor power sum: sum of d^nu over divisors d of n.  Trial division;
    n stays small everywhere this is used."""
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**nu
            e = n // d
            if e != d:
                total += e**nu
        d += 1
    return total


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
    if k < 0 or n < 0:
        raise ValueError("k and n must be non-negative")
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
