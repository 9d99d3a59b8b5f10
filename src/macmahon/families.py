"""Production computation of the partition-family series A_0..A_K and C_0..C_K.

Both families are the t-coefficients of the same kind of product,

    prod over part sizes s of (1 + t * q^s/(1-q^s)^2),

with s running over all positive integers for the A family and over odd
integers for the C family.  The product is folded in one pass over s with all
t-degrees carried jointly.  Each t-degree's coefficient window lives in one
big integer with fixed-width slots, so the two divisions by (1-q^s) become
geometric doublings on machine-speed bignum adds; this is what makes
truncation orders in the thousands (the deep corollary checks) practical.

The fold exploits the valuation floor of each t-degree (k(k+1)/2 for A, k^2
for C) and the degree ramp: after f factors only t-degrees <= f can be
nonzero.  It uses gmpy2 integers when available.

The literal nested-sum definition of A_k is kept as `a_k_directsum`, an
independent oracle for small parameters; it never feeds the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .series import TruncatedSeries, geometric_square

try:
    from gmpy2 import mpz as _bigint
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _bigint = int

@dataclass(frozen=True)
class MacmahonFamily:
    """A_0..A_K or C_0..C_K at one shared truncation order."""

    family: str  # "A" | "C"
    members: tuple[TruncatedSeries, ...]
    truncation_order: int
    degree_cap: int

    def __post_init__(self) -> None:
        if self.family not in ("A", "C"):
            raise ValueError("family tag must be 'A' or 'C'")
        if len(self.members) != self.degree_cap + 1:
            raise ValueError("need exactly degree_cap+1 members")
        if self.members[0].coeffs[0] != 1 or self.members[0].valuation() != 0:
            raise ValueError("member 0 must be the constant series 1")

    def member(self, k: int) -> TruncatedSeries:
        if not 0 <= k <= self.degree_cap:
            raise IndexError(f"family holds members 0..{self.degree_cap}")
        return self.members[k]

    def coefficient(self, k: int, n: int) -> int:
        """The multiplicity-product partition count encoded at q^n of member k."""
        return self.member(k).coefficient(n)


def binomial(n: int, r: int) -> int:
    """Binomial coefficient, zero outside 0 <= r <= n."""
    if n < 0:
        raise ValueError("binomial needs n >= 0")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def _slot_bits(order: int) -> int:
    # Every accumulated coefficient is bounded by the 3-colored partition
    # count p3(order) < exp(pi*sqrt(2*order)); the two prefix passes per
    # factor multiply a slot by at most (order+1) each.  Byte-aligned for
    # cheap unpacking.
    bound_bits = int(math.pi * math.sqrt(2 * order) / math.log(2)) + 1
    bits = bound_bits + 2 * (order + 1).bit_length() + 32
    return ((bits + 7) // 8) * 8


def _fold_packed(
    factors: Iterable[int], lowvals: list[int], k_eff: int, order: int, slot_bits: int
) -> list:
    b = slot_bits
    one = _bigint(1)
    rows = [_bigint(0) for _ in range(k_eff + 1)]
    rows[0] = one
    applied = 0
    for s in factors:
        applied += 1
        for k in range(min(k_eff, applied), 0, -1):
            lv = lowvals[k - 1]
            if lv + s > order:
                continue
            x = rows[k - 1]
            if not x:
                continue
            # slots of x that still matter once everything is lifted by q^s
            w = order - lv - s + 1
            mask = (one << (b * w)) - 1
            t = x & mask
            # two geometric-doubling passes realize division by (1-q^s)^2;
            # shifts only move slots upward, so masking per step is exact
            for _ in range(2):
                span = s
                while span < w:
                    t += t << (b * span)
                    t &= mask
                    span <<= 1
            # lift by q^s and align to this degree's valuation floor
            rows[k] += t << (b * (lv + s - lowvals[k]))
    return rows


def _unpack_packed_row(row, lowval: int, order: int, slot_bits: int) -> tuple[int, ...]:
    width = order - lowval + 1
    b8 = slot_bits // 8
    # to_bytes overflows if a slot ever escaped its window: structural guard
    raw = int(row).to_bytes(width * b8, "little")
    coeffs = [0] * (order + 1)
    for i in range(width):
        chunk = raw[i * b8 : (i + 1) * b8]
        c = int.from_bytes(chunk, "little")
        if c:
            coeffs[lowval + i] = c
    return tuple(coeffs)


def _compute_family(
    tag: str,
    K: int,
    order: int,
    factors: Callable[[int], Iterable[int]],
    lowval: Callable[[int], int],
) -> MacmahonFamily:
    if isinstance(K, bool) or isinstance(order, bool):
        raise TypeError("family cap and truncation order must be ints, not bool")
    if K < 0:
        raise ValueError("family cap must be non-negative")
    if order < 0:
        raise ValueError("truncation order must be non-negative")

    lowvals = [lowval(k) for k in range(K + 1)]
    k_eff = K
    while k_eff > 0 and lowvals[k_eff] > order:
        k_eff -= 1

    bits = _slot_bits(order)
    packed = _fold_packed(factors(order), lowvals, k_eff, order, bits)
    members = [
        TruncatedSeries(_unpack_packed_row(packed[k], lowvals[k], order, bits), order)
        for k in range(k_eff + 1)
    ]
    members.extend(TruncatedSeries.zero(order) for _ in range(k_eff + 1, K + 1))
    return MacmahonFamily(tag, tuple(members), order, K)


def compute_A_family_uncached(K: int, order: int) -> MacmahonFamily:
    """A_0..A_K at the given order; part sizes run over all positive integers,
    so member k has valuation k(k+1)/2."""
    return _compute_family(
        "A",
        K,
        order,
        lambda n: range(1, n + 1),
        lambda k: k * (k + 1) // 2,
    )


def compute_C_family_uncached(K: int, order: int) -> MacmahonFamily:
    """C_0..C_K at the given order; part sizes run over odd integers, so
    member k has valuation k^2."""
    return _compute_family(
        "C",
        K,
        order,
        lambda n: range(1, n + 1, 2),
        lambda k: k * k,
    )


# verification suites reuse the same (K, order) family across many checks;
# results are immutable, so sharing them through a cache is safe.  typed=True
# keeps True apart from 1, so a bool argument cannot hit a cached int entry
# and skip the argument check.
compute_A_family = lru_cache(maxsize=12, typed=True)(compute_A_family_uncached)
compute_C_family = lru_cache(maxsize=12, typed=True)(compute_C_family_uncached)


def a_k_directsum(k: int, order: int) -> TruncatedSeries:
    """Literal nested sum over increasing part-size tuples s_1 < ... < s_k of
    the product of the per-size expansions q^s/(1-q^s)^2.

    Oracle for small k and order only; cost grows like the number of size
    tuples with sum <= order.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return TruncatedSeries.one(order)
    acc = [0] * (order + 1)

    def rec(next_size: int, budget: int, prod: TruncatedSeries, left: int) -> None:
        if left == 0:
            for i, c in prod.nonzero_terms():
                acc[i] += c
            return
        s = next_size
        # cheapest completion uses sizes s, s+1, ..., s+left-1
        while left * s + left * (left - 1) // 2 <= budget:
            rec(s + 1, budget - s, prod * geometric_square(s, order), left - 1)
            s += 1

    rec(1, order, TruncatedSeries.one(order), k)
    return TruncatedSeries(tuple(acc), order)
