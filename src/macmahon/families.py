"""Production computation of the partition-family series A_0..A_K and C_0..C_K.

Both families are the t-coefficients of the same kind of product,

    prod over part sizes s of (1 + t * q^s/(1-q^s)^2),

with s running over all positive integers for the A family and over odd
integers for the C family.  The product is folded in one pass over s with all
t-degrees carried jointly.  Each t-degree's coefficient window lives in one
big integer with fixed-width slots, so the two divisions by (1-q^s) become
geometric doublings on machine-speed bignum adds (on gmpy2 integers when
available).

The fold exploits the valuation floor of each t-degree (k(k+1)/2 for A, k^2
for C, the sum of the first k factors) and the degree ramp: after f factors
only t-degrees <= f can be nonzero.  A caller that reads only members
lowest..K gets only those: the rows it asked for keep the full window, while
each row below lowest is cut to the exponents that can still reach row
lowest, since the distinct factors it still needs sum to at least a known
minimum.  This is what makes the deep corollary windows (k = 100 at
truncation orders 5355 and 10608) cost a fraction of a second.

Slot widths rest on the bound p3(order) < exp(pi*sqrt(2*order)) plus a
margin; unpacking checks that every slot of every returned row stays below
the bound, and raises ArithmeticError otherwise.

The literal nested-sum definition of A_k is kept as `a_k_directsum`, an
independent oracle for small parameters; it never feeds the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .series import TruncatedSeries, geometric_square

try:
    from gmpy2 import mpz as _bigint
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _bigint = int

@dataclass(frozen=True)
class MacmahonFamily:
    """Members lowest..K of A or C at one shared truncation order."""

    family: str  # "A" | "C"
    members: tuple[TruncatedSeries, ...]
    truncation_order: int
    degree_cap: int
    lowest: int = 0

    def __post_init__(self) -> None:
        if self.family not in ("A", "C"):
            raise ValueError("family tag must be 'A' or 'C'")
        if not 0 <= self.lowest <= self.degree_cap:
            raise ValueError("lowest member must lie in 0..degree_cap")
        if len(self.members) != self.degree_cap - self.lowest + 1:
            raise ValueError("need exactly degree_cap-lowest+1 members")
        if self.lowest == 0 and (
            self.members[0].coeffs[0] != 1 or self.members[0].valuation() != 0
        ):
            raise ValueError("member 0 must be the constant series 1")

    def member(self, k: int) -> TruncatedSeries:
        if not self.lowest <= k <= self.degree_cap:
            raise IndexError(f"family holds members {self.lowest}..{self.degree_cap}")
        return self.members[k - self.lowest]

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


def _bound_bits(order: int) -> int:
    # Every accumulated coefficient is bounded by the 3-colored partition
    # count p3(order) < exp(pi*sqrt(2*order)).
    return int(math.pi * math.sqrt(2 * order) / math.log(2)) + 1


def _slot_bits(order: int) -> int:
    # The two prefix passes per factor multiply a slot by at most (order+1)
    # each; the margin on top of the bound is what unpacking checks stays
    # zero.  Byte-aligned for cheap unpacking.
    bits = _bound_bits(order) + 2 * (order + 1).bit_length() + 32
    return ((bits + 7) // 8) * 8


def _lowval(k: int, step: int) -> int:
    # sum of the first k factors 1, 1+step, ..., 1+(k-1)*step
    return k + step * k * (k - 1) // 2


def _fold_packed(step: int, lowest: int, k_eff: int, order: int, slot_bits: int) -> list:
    b = slot_bits
    one = _bigint(1)
    lowvals = [_lowval(k, step) for k in range(k_eff + 1)]
    rows = [_bigint(0) for _ in range(k_eff + 1)]
    rows[0] = one
    applied = 0
    for s in range(1, order + 1, step):
        applied += 1
        for k in range(min(k_eff, applied), 0, -1):
            lv = lowvals[k - 1]
            # a term of an intermediate row k < lowest still needs r more
            # distinct factors above s, which add at least r*s+step*r(r+1)/2
            r = max(lowest - k, 0)
            cut = r * s + step * r * (r + 1) // 2
            # slots of x that still matter once everything is lifted by q^s
            w = order - cut - lv - s + 1
            if w <= 0:
                # for k <= lowest the cheapest way through row k to row
                # lowest only grows as k falls: no lower row has a window
                if k <= lowest:
                    break
                continue
            x = rows[k - 1]
            if not x:
                continue
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


def _unpack_packed_row(
    row, lowval: int, order: int, slot_bits: int, bound_bits: int
) -> tuple[int, ...]:
    width = order - lowval + 1
    b8 = slot_bits // 8
    # to_bytes overflows if the top slot ever escaped its window
    raw = int(row).to_bytes(width * b8, "little")
    coeffs = [0] * (order + 1)
    for i in range(width):
        c = int.from_bytes(raw[i * b8 : (i + 1) * b8], "little")
        if c:
            # a slot past the p3 bound means the margin above it, and with it
            # the slot width, can no longer be trusted
            if c >> bound_bits:
                raise ArithmeticError(
                    f"packed slot at q^{lowval + i} exceeds {bound_bits} bits"
                )
            coeffs[lowval + i] = c
    return tuple(coeffs)


def _compute_family(tag: str, step: int, K: int, order: int, lowest: int) -> MacmahonFamily:
    if isinstance(K, bool) or isinstance(order, bool) or isinstance(lowest, bool):
        raise TypeError("family cap, truncation order and lowest member must be ints, not bool")
    if K < 0:
        raise ValueError("family cap must be non-negative")
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    if not 0 <= lowest <= K:
        raise ValueError("lowest member must lie in 0..K")

    k_eff = K
    while k_eff > 0 and _lowval(k_eff, step) > order:
        k_eff -= 1

    members = []
    if lowest <= k_eff:
        bits = _slot_bits(order)
        bound = _bound_bits(order)
        packed = _fold_packed(step, lowest, k_eff, order, bits)
        members = [
            TruncatedSeries(
                _unpack_packed_row(packed[k], _lowval(k, step), order, bits, bound), order
            )
            for k in range(lowest, k_eff + 1)
        ]
    members.extend(TruncatedSeries.zero(order) for _ in range(lowest + len(members), K + 1))
    return MacmahonFamily(tag, tuple(members), order, K, lowest)


def compute_A_family_uncached(K: int, order: int, lowest: int = 0) -> MacmahonFamily:
    """A_lowest..A_K at the given order; part sizes run over all positive
    integers, so member k has valuation k(k+1)/2."""
    return _compute_family("A", 1, K, order, lowest)


def compute_C_family_uncached(K: int, order: int, lowest: int = 0) -> MacmahonFamily:
    """C_lowest..C_K at the given order; part sizes run over odd integers, so
    member k has valuation k^2."""
    return _compute_family("C", 2, K, order, lowest)


# verification suites reuse the same (K, order, lowest) family across many
# checks; results are immutable, so sharing them through a cache is safe.
# typed=True keeps True apart from 1, so a bool argument cannot hit a cached
# int entry and skip the argument check.
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
