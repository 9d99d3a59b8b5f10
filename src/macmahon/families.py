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

`compute_A_family` and `compute_C_family` answer from a covering store: a
request is cut out of any kept family that reaches as low, as far and as
high, since a prefix of a truncated series is exact and member k depends
neither on the cap nor on the lowest member asked for.  A miss builds
exactly the request.  The `_uncached` functions always build.

`members(family, ks, order)` is the second route: each member is p3 (for
A) or overp (for C) times a sparse theta row of O(sqrt(order)) terms, the
closed form of Andrews and Rose.  It builds only the members asked for and
is far cheaper than the fold, so it serves the CLI's `compute` and `table`.
The identities the verifiers check are the binomial inverse of that closed
form, so checking them on its output would prove little: every verifier,
the two family stores, the `_uncached` functions and the bench run the fold.

Slot widths rest on the bound p3(order) < exp(pi*sqrt(2*order)) plus a
margin; unpacking checks that every slot of every returned row stays below
the bound, and raises ArithmeticError otherwise.  Both routes unpack the
same way.

The literal nested-sum definition of A_k is kept as `a_k_directsum`, an
independent oracle for small parameters; it never feeds the production path.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple
from dataclasses import dataclass

from .partitions import overpartition_series, p3_series
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
    row, lowval: int, order: int, slot_bits: int, bound_bits: int, byteorder: str = "little"
) -> tuple[int, ...]:
    # "little": the lowest slot holds q^lowval (the fold); "big": the lowest
    # slot holds q^order (the theta route).  Either way the bytes list the
    # slots from q^lowval up.
    width = order - lowval + 1
    b8 = slot_bits // 8
    # to_bytes overflows if the top slot ever escaped its window
    raw = int(row).to_bytes(width * b8, byteorder)
    coeffs = [0] * (order + 1)
    for i in range(width):
        c = int.from_bytes(raw[i * b8 : (i + 1) * b8], byteorder)
        if c:
            # a slot past the p3 bound means the margin above it, and with it
            # the slot width, can no longer be trusted
            if c >> bound_bits:
                raise ArithmeticError(
                    f"packed slot at q^{lowval + i} exceeds {bound_bits} bits"
                )
            coeffs[lowval + i] = c
    return tuple(coeffs)


def _check_request(K: int, order: int, lowest: int) -> None:
    if isinstance(K, bool) or isinstance(order, bool) or isinstance(lowest, bool):
        raise TypeError("family cap, truncation order and lowest member must be ints, not bool")
    if K < 0:
        raise ValueError("family cap must be non-negative")
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    if not 0 <= lowest <= K:
        raise ValueError("lowest member must lie in 0..K")


def _top_member(step: int, K: int, order: int) -> int:
    # the highest member <= K whose valuation floor lies within the order;
    # every member above it is zero there.  A floor within the order forces
    # (k-1)^2 <= 2*order/step, so the loop starts at most a step or two high.
    k = min(K, math.isqrt(2 * order // step) + 1)
    while k > 0 and _lowval(k, step) > order:
        k -= 1
    return k


def _compute_family(tag: str, step: int, K: int, order: int, lowest: int) -> MacmahonFamily:
    _check_request(K, order, lowest)
    k_eff = _top_member(step, K, order)
    built = []
    if lowest <= k_eff:
        bits = _slot_bits(order)
        bound = _bound_bits(order)
        packed = _fold_packed(step, lowest, k_eff, order, bits)
        built = [
            TruncatedSeries(
                _unpack_packed_row(packed[k], _lowval(k, step), order, bits, bound), order
            )
            for k in range(lowest, k_eff + 1)
        ]
    built.extend(TruncatedSeries.zero(order) for _ in range(lowest + len(built), K + 1))
    return MacmahonFamily(tag, tuple(built), order, K, lowest)


def compute_A_family_uncached(K: int, order: int, lowest: int = 0) -> MacmahonFamily:
    """A_lowest..A_K at the given order; part sizes run over all positive
    integers, so member k has valuation k(k+1)/2."""
    return _compute_family("A", 1, K, order, lowest)


def compute_C_family_uncached(K: int, order: int, lowest: int = 0) -> MacmahonFamily:
    """C_lowest..C_K at the given order; part sizes run over odd integers, so
    member k has valuation k^2."""
    return _compute_family("C", 2, K, order, lowest)


CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])

# the most families one store keeps; the least recently used goes first
_KEPT_FAMILIES = 12


def _covers(fam: MacmahonFamily, order: int, lowest: int, top: int) -> bool:
    # fam holds every member lowest..top that can be nonzero at the order,
    # each at least that far
    return fam.lowest <= lowest and fam.truncation_order >= order and fam.degree_cap >= top


class _CoveringStore:
    """Families built so far for one of A and C.  A request is served from
    any kept family that covers it, truncated to exactly the requested K,
    order and lowest; this is exact because a prefix of a truncated series is
    exact and member k does not depend on the cap or on which members below
    it were asked for.  A miss builds exactly the request, never wider, and
    then drops the kept families the new one covers.

    Arguments are checked before any lookup, so a bool or a negative value
    raises whatever is kept.  Results are immutable and the bookkeeping is
    under a lock, so one store is safe to share across threads."""

    def __init__(self, build, step: int) -> None:
        functools.update_wrapper(self, build)
        self._build = build
        self._step = step
        self._kept: list[MacmahonFamily] = []  # least recently used first
        self._hits = self._misses = 0
        self._lock = threading.Lock()

    def __call__(self, K: int, order: int, lowest: int = 0) -> MacmahonFamily:
        _check_request(K, order, lowest)
        top = _top_member(self._step, K, order)
        fam = self._lookup(order, lowest, top)
        if fam is None:
            fam = self._build(K, order, lowest)
            self._keep(fam)
            return fam
        if (fam.degree_cap, fam.truncation_order, fam.lowest) == (K, order, lowest):
            return fam
        cut = tuple(
            fam.member(k).truncate(order) if k <= top else TruncatedSeries.zero(order)
            for k in range(lowest, K + 1)
        )
        return MacmahonFamily(fam.family, cut, order, K, lowest)

    def _lookup(self, order: int, lowest: int, top: int) -> MacmahonFamily | None:
        with self._lock:
            for i in range(len(self._kept) - 1, -1, -1):
                if _covers(self._kept[i], order, lowest, top):
                    self._hits += 1
                    self._kept.append(self._kept.pop(i))
                    return self._kept[-1]
            self._misses += 1
            return None

    def _keep(self, fam: MacmahonFamily) -> None:
        with self._lock:
            self._kept = [
                kept
                for kept in self._kept
                if not _covers(
                    fam,
                    kept.truncation_order,
                    kept.lowest,
                    _top_member(self._step, kept.degree_cap, kept.truncation_order),
                )
            ]
            self._kept.append(fam)
            del self._kept[:-_KEPT_FAMILIES]

    def cache_info(self) -> CacheInfo:
        """Hits (covered requests), misses (builds), the bound and the number
        of families kept."""
        with self._lock:
            return CacheInfo(self._hits, self._misses, _KEPT_FAMILIES, len(self._kept))

    def cache_clear(self) -> None:
        with self._lock:
            self._kept = []
            self._hits = self._misses = 0


# verification suites read overlapping members of one family at orders that
# differ from call to call, so most requests are covered by an earlier build;
# results are immutable, so sharing them is safe
compute_A_family = _CoveringStore(compute_A_family_uncached, 1)
compute_C_family = _CoveringStore(compute_C_family_uncached, 2)


# -- the theta-quotient route ----------------------------------------------------------


def _theta_row(step: int, k: int, order: int) -> list[tuple[int, int]]:
    # (coefficient, exponent) of the sparse factor of member k: for A,
    # (-1)^(m+k) (2m+1)/(2k+1) C(m+k, 2k) at q^(m(m+1)/2); for C,
    # (-1)^(m+k) 2m/(m+k) C(m+k, 2k) at q^(m^2), with 1 at m = k = 0.  The
    # exponent is the valuation floor of member m, and the divisions are exact.
    row = []
    m = k
    while _lowval(m, step) <= order:
        if step == 1:
            c = (2 * m + 1) * math.comb(m + k, 2 * k) // (2 * k + 1)
        else:
            c = 2 * m * math.comb(m + k, 2 * k) // (m + k) if m else 1
        row.append((-c if (m + k) % 2 else c, _lowval(m, step)))
        m += 1
    return row


def members(family: str, ks, order: int) -> tuple[TruncatedSeries, ...]:
    """Members A_k (family "A") or C_k (family "C") for each k in ks, in the
    order given, exact through q^order.

    Each member is a dense generating function times a sparse theta row of
    O(sqrt(order)) terms (Andrews-Rose, J. reine angew. Math. 676, 2013):

        A_k = p3    * sum_{m>=k} (-1)^(m+k) (2m+1)/(2k+1) C(m+k, 2k) q^(m(m+1)/2)
        C_k = overp * sum_{m>=k} (-1)^(m+k) 2m/(m+k) C(m+k, 2k) q^(m^2)

    The dense series is packed once into slots of the fold's width, highest
    exponent lowest, so a theta term c*q^e adds c times the packed series
    with its e lowest slots dropped.  The sum then equals, as an integer,
    the member's coefficients q^order down to its valuation floor packed the
    same way; nothing is reduced, so negative partial sums are harmless.
    Unpacking checks every slot against the p3 bound, as for the fold, so a
    slot too narrow for its coefficient raises ArithmeticError.  A member
    whose valuation floor lies above the order is the zero series.

    These formulas are the binomial inverse of the identities the verifiers
    check, so the verifiers never use this route; they read the fold.
    """
    if family not in ("A", "C"):
        raise ValueError("family tag must be 'A' or 'C'")
    ks = tuple(ks)
    if isinstance(order, bool) or any(isinstance(k, bool) for k in ks):
        raise TypeError("member indices and truncation order must be ints, not bool")
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    if any(k < 0 for k in ks):
        raise ValueError("member indices must be non-negative")
    step = 1 if family == "A" else 2
    dense = p3_series(order) if step == 1 else overpartition_series(order)
    bits, bound = _slot_bits(order), _bound_bits(order)
    b8 = bits // 8
    # highest exponent in the lowest slot: dropping the low e slots leaves
    # the dense series shifted by q^e and cut at the order
    packed = _bigint(
        int.from_bytes(b"".join(c.to_bytes(b8, "big") for c in dense.coeffs), "big")
    )
    built = {}
    for k in ks:
        if k in built:
            continue
        lowval = _lowval(k, step)
        if lowval > order:
            built[k] = TruncatedSeries.zero(order)
            continue
        acc = 0
        for c, e in _theta_row(step, k, order):
            acc += c * (packed >> (bits * e))
        built[k] = TruncatedSeries(
            _unpack_packed_row(acc, lowval, order, bits, bound, "big"), order
        )
    return tuple(built[k] for k in ks)


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
