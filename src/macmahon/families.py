"""Production computation of the partition-family series A_0..A_K and C_0..C_K.

Both families are the t-coefficients of the same kind of product,

    prod over part sizes s of (1 + t * q^s/(1-q^s)^2),

with s running over all positive integers for the A family and over odd
integers for the C family.  The product is folded in one pass over s with all
t-degrees carried jointly.  Each t-degree's coefficient window lives in one
big integer with fixed-width slots, so division by (1-q^s)^2 becomes one
geometric-doubling loop of machine-speed bignum adds (on gmpy2 integers when
available) that adds each factor of (1+q^s)^2 (1+q^2s)^2 (1+q^4s)^2 ... twice.
It is exact: the factors commute, cutting at the window is a ring map, and
each partial sum is a non-negative partial sum of the final slot, so no slot
carries.

Both routes below pack a series one way: a row cut at q^top holds q^e in
slot top - e, so the least significant slot holds q^top and the most
significant one the row's valuation floor.  Multiplying by q^s and cutting
at the top is then one right shift, slots that move past the top fall off
the bottom of the integer, and no step needs a mask.  Unpacking reads the
bytes of a row from the floor up.

The fold exploits the valuation floor of each t-degree (k(k+1)/2 for A, k^2
for C, the sum of the first k factors) and the degree ramp: after f factors
only t-degrees <= f can be nonzero.  Its loop visits only the (part size,
t-degree) pairs whose window can still be open.  A caller that reads only
members lowest..K gets only those: the rows it asked for keep the full
window, while each row below lowest is cut to the exponents that can still
reach row lowest, since the distinct factors it still needs sum to at least
a known minimum.  This is what makes the deep corollary windows (k = 100 at
truncation orders 5355 and 10608) cost a fraction of a second.

`compute_A_family` and `compute_C_family` are covering stores (series.py):
a request is cut out of any kept family that reaches as low, as far and as
high, since a prefix of a truncated series is exact and member k depends
neither on the cap nor on the lowest member asked for.  A miss builds the
union of the request and the most recently used kept family (the larger
order, the lower lowest member, every member that can be nonzero at that
order) when `_fold_cost` puts the union at most the request's cost plus the
kept family's, the two builds it replaces, and exactly the request
otherwise, as it does a request with nothing to fold.  A theorem sweep over
k then builds one family that each later k reads.  The `_uncached` functions
always build.

`members(family, ks, order)` is the second route: each member is p3 (for
A) or overp (for C) times a sparse theta row of O(sqrt(order)) terms, the
closed form of Andrews and Rose.  It builds only the members asked for and
is far cheaper than the fold, so it serves the CLI's `compute` and `table`.
The identities the verifiers check are the binomial inverse of that closed
form, so checking them on its output would prove little: every verifier
that reads a family, the two family stores, the `_uncached` functions and
the bench run the fold.

MAX_ORDER is the package's one order limit: both stores, the `_uncached`
functions and `members` refuse an order above it with ValueError before they
read a series or fold anything.

The theta route's slots hold the dense series itself, so they are sized by
the series they hold.  The fold's slots are sized by `_fold_bound_bits`,
the smallest of the family total, a prefix sum of p3 or overp and a
binomial in the cap; its comment holds the argument for each.  The theta
route checks member k against the same helper as a fold of members k..k,
which reads the prefix sum from the series store that already holds the
dense series.

Every width leaves at least 8 guard bits above its bound.  Unpacking raises
ArithmeticError on a width with fewer, before it reads a slot, and checks
every slot of every returned row against the bound it was sized by (the
member's own, on the theta route): a wrong bound shows up in the guard bits
instead of passing silently.

The literal nested-sum definition of A_k is kept as `a_k_directsum`, an
independent oracle for small parameters; it never feeds the production path.
"""

from __future__ import annotations

import functools
import math

from .partitions import _lowval, _theta_row, overpartition_series, p3_series
from .series import TruncatedSeries, _CoveringStore, _Record, _setfield, geometric_square
from .series import _check_param

try:
    from gmpy2 import mpz as _bigint
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _bigint = int

class MacmahonFamily(_Record):
    """Members lowest..K of A or C at one shared truncation order."""

    __slots__ = ("family", "members", "truncation_order", "degree_cap", "lowest")

    def __init__(
        self,
        family: str,  # "A" | "C"
        members: tuple[TruncatedSeries, ...],
        truncation_order: int,
        degree_cap: int,
        lowest: int = 0,
    ) -> None:
        if family not in ("A", "C"):
            raise ValueError("family tag must be 'A' or 'C'")
        if not 0 <= lowest <= degree_cap:
            raise ValueError("lowest member must lie in 0..degree_cap")
        if len(members) != degree_cap - lowest + 1:
            raise ValueError("need exactly degree_cap-lowest+1 members")
        for member in members:
            if member.truncation_order != truncation_order:
                raise ValueError("every member must have the family's truncation order")
        first = members[0].coeffs
        if lowest == 0 and (first[0] != 1 or first.count(0) != len(first) - 1):
            raise ValueError("member 0 must be the constant series 1")
        _setfield(self, "family", family)
        _setfield(self, "members", members)
        _setfield(self, "truncation_order", truncation_order)
        _setfield(self, "degree_cap", degree_cap)
        _setfield(self, "lowest", lowest)

    def member(self, k: int) -> TruncatedSeries:
        if not self.lowest <= k <= self.degree_cap:
            raise IndexError(f"family holds members {self.lowest}..{self.degree_cap}")
        return self.members[k - self.lowest]


# The highest truncation order any build reaches, above the order 10608 of
# the deep k=100 corollary window.  It bounds the size of every coefficient
# vector and packed integer, not time: a fold grows about 8x per doubling of
# its order.
MAX_ORDER = 20_000


def _check_order(order: int) -> int:
    # the package's one check of the order limit; returns the order
    if order > MAX_ORDER:
        raise ValueError(
            f"this call builds truncation order {order}, above the order limit {MAX_ORDER}"
        )
    return order


def _total_bound_bits(step: int, order: int) -> int:
    # The bit length of the family total's running maximum through the
    # order, T = (q^6;q^6)/((q;q)(q^2;q^2)(q^3;q^3)) for A and
    # (q^4;q^4)(q^6;q^6)^2/((q;q)(q^3;q^3)(q^12;q^12)) for C.  Both grow like
    # n^-alpha exp(pi*sqrt(c*n)), alpha from the eta quotient's weight; beta
    # is fitted on the exact total, so the closed form stays within one bit
    # of it at every order up to MAX_ORDER.
    if order == 0:
        return 1
    c, alpha, beta = (10 / 9, 1.25, -3.3) if step == 1 else (5 / 9, 0.75, -2.6)
    return math.ceil(
        math.pi * math.sqrt(c * order) / math.log(2) - alpha * math.log2(order) + beta
    )


def _fold_bound_bits(step: int, order: int, lowest: int, top: int) -> int:
    # The bound a build of members lowest..top holds its slots and returned
    # coefficients to: the smallest of three.  Each rests on one fact, that
    # every slot is a partial sum of non-negative terms of some
    # A_k(lowval(k)+d) with k <= top and d <= D = order - lowval(lowest).
    # For k >= lowest, d <= order - lowval(k) <= D.  A cut row k < lowest
    # reaches exponent order - cut, and its cut is least at the first factor
    # it takes, which is at least the k-th smallest part, so cut + lowval(k)
    # >= lowval(lowest) there.
    #
    # - The family total.  A_k(n) <= T(n) = sum_k A_k(n), the product at
    #   t = 1: prod_s (1 + q^s/(1-q^s)^2) = prod_s (1+q^(3s))/((1-q^s)(1-q^(2s))),
    #   the quotient in _total_bound_bits once 1+q^(3s) = (1-q^(6s))/(1-q^(3s))
    #   (for C, s odd, the same steps over odd s).  No series is read.  Its
    #   closed form is checked against the exact total at every order up to
    #   MAX_ORDER, above which no build goes.
    # - The prefix sum.  A_k(lowval(k)+d) <= sum_{j<=d} [q^j] P_k, P_k =
    #   prod_{i<=k} (1-q^i)^-3.  Write the parts as s_i = i + t_i with t
    #   non-decreasing, and read the weight prod m_i as marking one copy of
    #   each size, m_i = 1 + a_i + b_i.  The map to (t, a, b) is injective,
    #   its offset sum t_i + sum (a_i+b_i)*i is at most d, and P_k counts
    #   the triples.  P_k lies under p3; for C, s_i = 2i-1+2t_i gives prod_{i<=k}
    #   (1-q^(2i))^-1 (1-q^(2i-1))^-2, under 1/((q^2;q^2)(q;q^2)^2) = overp.
    #   The series is read only where 3D < 2*order, where its bound
    #   exp(pi*sqrt(2D)) (or exp(pi*sqrt(D))) falls below the family total's,
    #   p2 < exp(pi*sqrt(4*order/3)) (or (-q;q)^2), as 1 + x/(1-x)^2 <=
    #   1/(1-x)^2.  A verifier's D is its own window, the prefix it reads
    #   next anyway, and the theta route already holds the series through
    #   the order.  This bound takes the k = 100 corollary windows from the
    #   family total's 344-bit slots to 112-bit ones.
    # - The cap.  Each of P_k's 3k factors lies under 1/(1-q) (also for C),
    #   so the prefix sum of P_k through d is at most that of (1-q)^-3k,
    #   which is C(d+3k, 3k) <= C(D+3*top, 3*top).  With a small cap this is
    #   a polynomial in the order: a build of members 1..2 at order 600
    #   takes 56-bit slots instead of the family total's 112.
    reach = order - _lowval(lowest, step)
    bound = min(
        _total_bound_bits(step, order), math.comb(reach + 3 * top, 3 * top).bit_length()
    )
    if 3 * reach >= 2 * order:
        return bound
    dense = p3_series(reach) if step == 1 else overpartition_series(reach)
    return min(bound, sum(dense.coeffs).bit_length())


def _slot_bits(bound_bits: int) -> int:
    # At least 8 guard bits above the bound, which unpacking checks stay
    # zero.  Byte-aligned for cheap unpacking.
    return (bound_bits + 15) // 8 * 8


def _fold_packed(step: int, lowest: int, k_eff: int, order: int, slot_bits: int) -> list:
    b = slot_bits
    lowvals = [_lowval(k, step) for k in range(k_eff + 1)]
    # a row k below lowest feeds row lowest only through exponents up to
    # order - lowval(lowest) above its own floor, so its top slot holds
    # q^(order - drop[k]); every other row's holds q^order
    drop = [max(lowvals[lowest] - lv, 0) for lv in lowvals]
    rows = [_bigint(0) for _ in range(k_eff + 1)]
    rows[0] = _bigint(1) << (b * (order - drop[0]))
    # Row k takes factor s on the window w below, which is open only while
    # cut + lowval(k-1) + s <= order.  Row k-1 is nonzero only once s is at
    # least the k-th factor, and then cut + lowval(k-1) >= lowval(lowest-1):
    # for k >= lowest the cut is 0 and lowval rises with k; for k < lowest
    # the r cut terms s+step, ..., s+r*step each exceed one of the factors
    # k..lowest-1 that lowval(lowest-1) adds to lowval(k-1).  So no window
    # opens for s > order - lowval(max(lowest, 1) - 1), and for k >= lowest
    # it is open exactly while lowval(k-1) + s <= order, the bound `top`
    # tracks as s grows.
    top = k_eff
    last = order - lowvals[max(lowest, 1) - 1]
    for applied, s in enumerate(range(1, last + 1, step), 1):
        while lowvals[top - 1] + s > order:
            top -= 1
        for k in range(min(top, applied), 0, -1):
            # row k-1 is read once k-1 factors are in, enough for its first
            # term, and s is at least the k-th factor: no shift is negative
            if k >= lowest:
                # uncut: `top` keeps the window open, and row k-1 is cut only
                # at k = lowest, where its top slot is q^(order - drop[k-1])
                w = order - lowvals[k - 1] - s + 1
                t = rows[k - 1] >> (b * (s - drop[k - 1]))
                lift = 0
            else:
                # a term of row k < lowest still needs r more distinct
                # factors above s, which add at least r*s+step*r(r+1)/2
                r = lowest - k
                cut = r * s + step * r * (r + 1) // 2
                w = order - cut - lowvals[k - 1] - s + 1
                if w <= 0:
                    break  # the way through row k to row lowest only grows as k falls
                # drop the exponents above order - cut - s
                t = rows[k - 1] >> (b * (cut + s - drop[k - 1]))
                lift = b * (cut - drop[k])
            # the w slots that still matter, times (1-q^s)^-2 = prod (1+q^span)^2
            # over span = s, 2s, 4s, ... < w: one loop adds each factor twice,
            # sh = b*span bits apart (exact, as the module docstring says)
            sh, end = b * s, b * w
            while sh < end:
                t += t >> sh
                t += t >> sh
                sh <<= 1
            # lift by q^s: the bottom slot of t moves to q^(order - cut); a
            # zero lift would only copy t
            rows[k] += t << lift if lift else t
    return rows


def _unpack_packed_row(
    row, lowval: int, order: int, slot_bits: int, bound_bits: int
) -> tuple[int, ...]:
    # the lowest slot holds q^order, so the bytes list the slots from
    # q^lowval up
    if slot_bits < bound_bits + 8:
        # with fewer guard bits, a coefficient past the bound can carry into
        # the next slot and leave both under it, where no check below sees it
        raise ArithmeticError(
            f"{slot_bits}-bit slots leave fewer than 8 guard bits above {bound_bits} bits"
        )
    b8 = slot_bits // 8
    # to_bytes overflows if the floor slot ever carried out of its window
    raw = int(row).to_bytes((order - lowval + 1) * b8, "big")
    slots = [int.from_bytes(raw[i : i + b8], "big") for i in range(0, len(raw), b8)]
    # a slot past the family's bound means the bound, and with it the slot
    # width, can no longer be trusted
    if max(slots, default=0) >> bound_bits:
        e = next(i for i, c in enumerate(slots) if c >> bound_bits)
        raise ArithmeticError(f"packed slot at q^{lowval + e} exceeds {bound_bits} bits")
    return (0,) * lowval + tuple(slots)


def _request_key(step: int, K: int, order: int, lowest: int = 0) -> tuple:
    # refuses a bad request, an order above the limit included, and keys a
    # good one by (order, lowest, top member, K) for the family stores
    _check_param("family cap", K)
    _check_param("truncation order", order)
    _check_order(order)
    _check_param("lowest member", lowest)
    if lowest > K:
        raise ValueError("lowest member must lie in 0..K")
    return order, lowest, _top_member(step, K, order), K


def _top_member(step: int, K: int, order: int) -> int:
    # the highest member <= K whose valuation floor lies within the order;
    # every member above it is zero there.  A floor within the order forces
    # (k-1)^2 <= 2*order/step, so the loop starts at most a step or two high.
    k = min(K, math.isqrt(2 * order // step) + 1)
    while k > 0 and _lowval(k, step) > order:
        k -= 1
    return k


def _compute_family(tag: str, step: int, K: int, order: int, lowest: int) -> MacmahonFamily:
    k_eff = _request_key(step, K, order, lowest)[2]
    built = []
    if lowest <= k_eff:
        bound = _fold_bound_bits(step, order, lowest, k_eff)
        bits = _slot_bits(bound)
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


def _fold_cost(step: int, order: int, lowest: int, top: int) -> int:
    # An estimate of a build's fold work, from its key alone: no series read
    # and no walk over the part sizes, so a miss can afford to ask it three
    # times.
    # Row k's first window, at s = the k-th smallest part, is W_k wide (the
    # window w of _fold_packed), and its later windows shrink by r + 1 slots
    # per factor, r = max(lowest - k, 0), so the row moves about W_k^2/(r+1)
    # slots, each as wide as the family total.  It does not fall as the order
    # grows, and does not rise as lowest grows.
    if lowest > top:
        return 0  # nothing to fold: every member asked for is zero
    total = 0
    lowval = 0  # of row k - 1; the k-th smallest part is 1 + (k-1)*step
    for k in range(1, top + 1):
        part = 1 + (k - 1) * step
        r = lowest - k if lowest > k else 0
        w = order - lowval - step * r * (r + 1) // 2 - part * (r + 1) + 1
        if w > 0:
            total += w * w // (r + 1)
        lowval += part
    return total * _total_bound_bits(step, order)


def _grow_request(step: int, kept: tuple, key: tuple) -> tuple | None:
    # the build (K, order, lowest) of the union of a kept family and a missed
    # request, or None where the union costs more than the two builds it
    # replaces, the request and the kept family it evicts; so the work a
    # union spends beyond the request is at most what the kept family cost.
    # A request with nothing to fold (member 0 alone, say) is built exactly:
    # its union could cost as much as the kept family, only to fold it again.
    order, lowest = max(kept[0], key[0]), min(kept[1], key[1])
    top = _top_member(step, order, order)
    union = _fold_cost(step, order, lowest, top)
    exact = _fold_cost(step, *key[:3])
    if exact == 0 or union > exact + _fold_cost(step, *kept[:3]):
        return None
    return top, order, lowest


def _covers_request(kept: tuple, key: tuple) -> bool:
    # the kept family holds every member lowest..top that can be nonzero at
    # the order, each at least that far
    return kept[0] >= key[0] and kept[1] <= key[1] and kept[2] >= key[2]


def _cut_family(fam: MacmahonFamily, key: tuple) -> MacmahonFamily:
    # exactly the requested K, order and lowest; member k does not depend on
    # the cap or on which members below it were asked for
    order, lowest, top, K = key
    if (fam.truncation_order, fam.lowest, fam.degree_cap) == (order, lowest, K):
        return fam
    cut = tuple(
        fam.member(k).truncate(order) if k <= top else TruncatedSeries.zero(order)
        for k in range(lowest, K + 1)
    )
    return MacmahonFamily(fam.family, cut, order, K, lowest)


# verification suites read overlapping members of one family at orders that
# differ from call to call, so most requests are covered by an earlier build
# or by the union a miss grows; results are immutable, so sharing them is safe
compute_A_family = _CoveringStore(
    compute_A_family_uncached,
    functools.partial(_request_key, 1),
    _covers_request,
    _cut_family,
    functools.partial(_grow_request, 1),
)
compute_C_family = _CoveringStore(
    compute_C_family_uncached,
    functools.partial(_request_key, 2),
    _covers_request,
    _cut_family,
    functools.partial(_grow_request, 2),
)
# update_wrapper copied the build's names; each store answers to its own
compute_A_family.__name__ = compute_A_family.__qualname__ = "compute_A_family"
compute_C_family.__name__ = compute_C_family.__qualname__ = "compute_C_family"


# -- the theta-quotient route ----------------------------------------------------------


def members(family: str, ks, order: int) -> tuple[TruncatedSeries, ...]:
    """Members A_k (family "A") or C_k (family "C") for each k in ks, in the
    order given, exact through q^order.

    Each member is a dense generating function times a sparse theta row of
    O(sqrt(order)) terms (Andrews-Rose, J. reine angew. Math. 676, 2013):

        A_k = p3    * sum_{m>=k} (-1)^(m+k) (2m+1)/(2k+1) C(m+k, 2k) q^(m(m+1)/2)
        C_k = overp * sum_{m>=k} (-1)^(m+k) 2m/(m+k) C(m+k, 2k) q^(m^2)

    The dense series is packed once into slots sized by the series they
    hold, its largest coefficient plus at least 8 guard bits, so a theta
    term c*q^e adds c times the packed series shifted right by e slots.  The
    sum then equals, as an integer, the member packed the same way; nothing
    is masked, so negative partial sums are harmless.  Unpacking checks every
    slot of member k against `_fold_bound_bits`, the bound of a fold of
    members k..k, so a slot too narrow for its coefficient raises
    ArithmeticError.  A member whose valuation floor lies above the order is
    the zero series.  An order above MAX_ORDER raises ValueError before the
    dense series is read.

    These formulas are the binomial inverse of the identities the verifiers
    check, so the verifiers never use this route; they read the fold.
    """
    if family not in ("A", "C"):
        raise ValueError("family tag must be 'A' or 'C'")
    ks = tuple(ks)
    _check_param("truncation order", order)
    _check_order(order)
    for k in ks:
        _check_param("member indices", k)
    step = 1 if family == "A" else 2
    dense = p3_series(order) if step == 1 else overpartition_series(order)
    # Packing needs only the dense coefficients to fit.  Each member's own
    # bound, checked below with its 8 guard bits, lies under the family
    # total T, and for n >= 1 p3 >= 3T and overp >= 2T, since the weights of
    # the k = 0 identity are at least 3 (A) and 2 (C); so a slot too narrow
    # for a member still raises in unpacking, never passes silently.
    bits = _slot_bits(max(dense.coeffs).bit_length())
    b8 = bits // 8
    packed = _bigint(
        int.from_bytes(b"".join(c.to_bytes(b8, "big") for c in dense.coeffs), "big")
    )
    built = []
    for k in ks:
        lowval = _lowval(k, step)
        if lowval > order:
            built.append(TruncatedSeries.zero(order))
            continue
        acc = 0
        for c, e in _theta_row(step, k, order):
            acc += c * (packed >> (bits * e))
        # member k obeys the bounds of a fold of members k..k, so each
        # member is checked against its own
        own = _fold_bound_bits(step, order, k, k)
        built.append(TruncatedSeries(_unpack_packed_row(acc, lowval, order, bits, own), order))
    return tuple(built)


def a_k_directsum(k: int, order: int) -> TruncatedSeries:
    """Literal nested sum over increasing part-size tuples s_1 < ... < s_k of
    the product of the per-size expansions q^s/(1-q^s)^2.

    Oracle for small k and order only; cost grows like the number of size
    tuples with sum <= order.
    """
    _check_param("k", k)
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
