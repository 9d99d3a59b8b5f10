"""Independent oracles for the test suite.

Everything here is built from first principles with plain loops and shares
no code path with the library it checks: partition counts come from the
bounded-part recurrence, generating functions from explicit convolution,
the differential recursion's products from one Kronecker multiplication on
plain ints, overpartitions and multiplicity products from unpruned multiset
enumeration.
The exceptions are tools rather than oracles.  `as_series` wraps a
coefficient list in the library's series type for tests that hand one to the
library, and `doctored` wraps a family build so that it serves one member
with one coefficient off.  `member_sum` and `identity_weights` read the sum
and the weights of the identities through the library's own
`identities._lowered_sum` and `identities._FAMILIES`, for tests that
compare them with something else.  `reference_fold` is a reference rather than an oracle: the
library's packed fold with the plainest loop bounds and its own slot layout,
kept to check the library's tighter bounds, and `p2_bound_bits` gives it a
slot width wider than any the library takes.
"""

from __future__ import annotations

from math import comb, isqrt, log, pi, sqrt

from macmahon.families import MacmahonFamily, compute_A_family_uncached, compute_C_family_uncached
from macmahon.identities import _FAMILIES, _lowered_sum
from macmahon.partitions import _lowval
from macmahon.series import TruncatedSeries


def as_series(coeffs: list[int], order: int) -> TruncatedSeries:
    """`coeffs` zero-padded to q^order as a TruncatedSeries."""
    return TruncatedSeries(tuple(coeffs) + (0,) * (order + 1 - len(coeffs)), order)


def doctored(build, m: int, e: int):
    """The family build `build(K, order, lowest=0)` with one added to member
    m's coefficient at exponent e in every family that holds it that far."""

    def serve(K, order, lowest=0):
        fam = build(K, order, lowest=lowest)
        if not lowest <= m <= K or e > order:
            return fam
        coeffs = list(fam.member(m).coeffs)
        coeffs[e] += 1
        rows = list(fam.members)
        rows[m - lowest] = TruncatedSeries(tuple(coeffs), order)
        return MacmahonFamily(fam.family, tuple(rows), order, K, lowest)

    return serve


def member_sum(tag: str, k: int, order: int) -> TruncatedSeries:
    """The member sum of the identity for family `tag` ("A" or "C") and k on
    the window 0..order: `_lowered_sum` over a fresh build of every member
    from k up that reaches the window, so two calls sum builds made apart."""
    step = _FAMILIES[tag][0]
    top = order + _lowval(k, step)
    build = compute_A_family_uncached if tag == "A" else compute_C_family_uncached
    rhs, _ = _lowered_sum(build(top_member(step, top, top), top, lowest=k), k)
    return TruncatedSeries(tuple(rhs), order)


def top_member(step: int, K: int, order: int) -> int:
    """The highest member <= K whose valuation floor lies within the order,
    by search: a floor within the order forces (k-1)^2 <= 2*order/step, so
    the countdown starts at most a step or two high."""
    k = min(K, isqrt(2 * order // step) + 1)
    while k > 0 and _lowval(k, step) > order:
        k -= 1
    return k


def identity_weights(tag: str, k: int, j: int) -> list[int]:
    """The weights w(m, k) of members k..k+j in the identity for family
    `tag` and k."""
    weight = _FAMILIES[tag][1]
    return [weight(m, k) for m in range(k, k + j + 1)]


def partition_counts(top: int) -> list[int]:
    """p(0..top) via the classic coin-style recurrence over part sizes."""
    dp = [1] + [0] * top
    for part in range(1, top + 1):
        for n in range(part, top + 1):
            dp[n] += dp[n - part]
    return dp


def convolve(a: list[int], b: list[int], top: int) -> list[int]:
    out = [0] * (top + 1)
    for i in range(min(len(a), top + 1)):
        ai = a[i]
        if not ai:
            continue
        for j in range(min(len(b), top + 1 - i)):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def kronecker_product(a: list[int], b: list[int], top: int) -> list[int]:
    """Coefficients 0..top of a*b for non-negative coefficient lists: each
    list is packed into one int, with slots wide enough for any coefficient
    of the product, the two ints are multiplied once and the slots are read
    back.  A negative coefficient raises OverflowError."""
    a, b = a[: top + 1], b[: top + 1]
    # a product coefficient sums at most len(b) terms, each under max(a)*max(b)
    bits = max(a, default=0).bit_length() + max(b, default=0).bit_length() + len(b).bit_length()
    width = (bits + 7) // 8

    def pack(c: list[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in c), "little")

    raw = (pack(a) * pack(b)).to_bytes(width * max(len(a) + len(b), top + 1), "little")
    return [int.from_bytes(raw[n * width : (n + 1) * width], "little") for n in range(top + 1)]


def pochhammer(a: int, b: int, top: int) -> list[int]:
    """Coefficients 0..top of (1-q^a)(1-q^(a+b))(1-q^(a+2b))..., the product
    form the theta expansions are checked against.  Factors above q^top
    cannot touch a kept coefficient and are skipped."""
    if a < 1 or b < 1:
        raise ValueError("pochhammer exponents must be positive")
    c = [1] + [0] * top
    for e in range(a, top + 1, b):
        # multiply by (1 - q^e) in place, descending so c[i-e] is still old
        for i in range(top, e - 1, -1):
            c[i] -= c[i - e]
    return c


def three_colored_counts(top: int) -> list[int]:
    """Triple self-convolution of the partition counts."""
    p = partition_counts(top)
    return convolve(convolve(p, p, top), p, top)


def overpartition_counts(top: int) -> list[int]:
    """Overpartition counts 0..top: distinct-part counts (0/1 knapsack)
    convolved with the partition counts."""
    distinct = [1] + [0] * top
    for part in range(1, top + 1):
        for n in range(top, part - 1, -1):
            distinct[n] += distinct[n - part]
    return convolve(distinct, partition_counts(top), top)


def theta_family_A(K: int, top: int) -> list[list[int]]:
    """A_0..A_K through q^top from the Andrews-Rose theta quotient
    A_k = p3 * sum_{m>=k} (-1)^(m+k) (2m+1)/(2k+1) C(m+k, m-k) q^(m(m+1)/2)
    (J. reine angew. Math. 676, 2013)."""
    p3 = three_colored_counts(top)
    rows = []
    for k in range(K + 1):
        theta = [0] * (top + 1)
        m = k
        while m * (m + 1) // 2 <= top:
            num = (2 * m + 1) * comb(m + k, m - k)
            assert num % (2 * k + 1) == 0
            theta[m * (m + 1) // 2] = (-1) ** (m + k) * (num // (2 * k + 1))
            m += 1
        rows.append(convolve(theta, p3, top))
    return rows


def theta_family_C(K: int, top: int) -> list[list[int]]:
    """C_0..C_K through q^top from the odd-part analogue
    C_k = overp * sum_{m>=k} (-1)^(m+k) c(m, k) q^(m^2), with c(0, 0) = 1
    and c(m, k) = 2m/(m+k) C(m+k, 2k)."""
    overp = overpartition_counts(top)
    rows = []
    for k in range(K + 1):
        theta = [0] * (top + 1)
        m = k
        while m * m <= top:
            if m == 0:
                c = 1
            else:
                num = 2 * m * comb(m + k, 2 * k)
                assert num % (m + k) == 0
                c = num // (m + k)
            theta[m * m] = (-1) ** (m + k) * c
            m += 1
        rows.append(convolve(theta, overp, top))
    return rows


def overpartition_count(n: int) -> int:
    """Enumerate partitions; the first copy of each distinct size may be
    overlined, so each partition contributes 2^(distinct sizes)."""
    total = 0

    def rec(max_size: int, remaining: int, distinct: int) -> None:
        nonlocal total
        if remaining == 0:
            total += 1 << distinct
            return
        for s in range(min(max_size, remaining), 0, -1):
            m = 1
            while m * s <= remaining:
                rec(s - 1, remaining - m * s, distinct + 1)
                m += 1

    rec(n, n, 0)
    return total


def multiplicity_product_total(n: int, k: int, odd_only: bool = False) -> int:
    """Unpruned enumeration of partitions of n; sums the product of part
    multiplicities over those with exactly k distinct sizes."""
    total = 0

    def rec(max_size: int, remaining: int, sizes: int, prod: int) -> None:
        nonlocal total
        if remaining == 0:
            if sizes == k:
                total += prod
            return
        for s in range(min(max_size, remaining), 0, -1):
            if odd_only and s % 2 == 0:
                continue
            m = 1
            while m * s <= remaining:
                rec(s - 1, remaining - m * s, sizes + 1, prod * m)
                m += 1

    rec(n, n, 0, 1)
    return total


def divisor_power_sum(n: int, power: int) -> int:
    """Plain full-scan divisor sum."""
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def divisor_power_sums(top: int, power: int) -> list[int]:
    """sigma_power(n) for n = 0..top by a sieve over the divisors; 0 at n = 0."""
    out = [0] * (top + 1)
    for d in range(1, top + 1):
        dp = d**power
        for n in range(d, top + 1, d):
            out[n] += dp
    return out


def odd_divisor_cofactor_sums(top: int) -> list[int]:
    """Sum of n/d over the odd divisors d of n, for n = 0..top, by a sieve;
    0 at n = 0."""
    out = [0] * (top + 1)
    for d in range(1, top + 1, 2):
        for cofactor, n in enumerate(range(d, top + 1, d), 1):
            out[n] += cofactor
    return out


def family_total(step: int, top: int) -> list[int]:
    """Coefficients 0..top of the family's product at t = 1, the sum of all
    its members: prod over part sizes s = 1, 1+step, 1+2*step, ... of (1 +
    sum_{j>=1} j q^(sj)), the expansion of 1 + q^s/(1-q^s)^2, multiplied in
    one factor at a time."""
    c = [1] + [0] * top
    for s in range(1, top + 1, step):
        # descending, so every c[n - s*j] read is still the old coefficient
        for n in range(top, s - 1, -1):
            c[n] += sum(j * c[n - s * j] for j in range(1, n // s + 1))
    return c


def p2_bound_bits(step: int, order: int) -> int:
    """A bit length no family member's coefficient at `order` passes, nor
    any slot a fold of the family holds: the coefficient of prod over the
    part sizes s of 1/(1-q^s)^2, which lies above the family's product at
    t = 1 since 1 + x/(1-x)^2 <= 1/(1-x)^2.  For step 1 that is the
    2-colored count p2 < exp(pi*sqrt(4*order/3)), for step 2 (-q;q)^2 <
    exp(pi*sqrt(2*order/3)).  Looser than every bound the fold takes, so a
    deliberately wide slot."""
    return int(pi * sqrt(4 * order / (3 * step)) / log(2)) + 1


def differential_recursion_failures(step: int, rows: dict[int, list[int]], top: int) -> list[int]:
    """The k, among those with rows k-1 and k both given, whose differential
    recursion fails through q^top.  With D = q d/dq,

        (2k)(2k+1) A_k = (6 A_1 + k(k-1)) A_{k-1} - 2 D A_{k-1}    (step 1)
        (2k)(2k-1) C_k = (2 C_1 + (k-1)^2) C_{k-1} - D C_{k-1}     (step 2)

    anchored on A_1 = sum sigma(n) q^n and C_1 = sum over odd d | n of n/d,
    both from the divisor sieves here rather than from `rows`.  Given the
    anchor the relations fix every member, and they are neither the paper's
    binomial identities nor the theta closed form.  Member coefficients
    are counts, so a negative one raises OverflowError."""
    if step == 1:
        anchor, factor, diff = divisor_power_sums(top, 1), 6, 2
    else:
        anchor, factor, diff = odd_divisor_cofactor_sums(top), 2, 1
    failures = []
    for k in sorted(rows):
        if k - 1 not in rows:
            continue
        prev, cur = rows[k - 1], rows[k]
        lhs = (2 * k) * (2 * k + 1) if step == 1 else (2 * k) * (2 * k - 1)
        scalar = k * (k - 1) if step == 1 else (k - 1) ** 2
        product = kronecker_product(prev, anchor, top)
        if any(
            lhs * cur[n] != factor * product[n] + (scalar - diff * n) * prev[n]
            for n in range(top + 1)
        ):
            failures.append(k)
    return failures


def reference_fold(step: int, lowest: int, k_eff: int, order: int, slot_bits: int) -> list[int]:
    """The packed fold with the plainest loop bounds: the s loop runs to the
    order and the k loop starts at the degree ramp, stepping over every
    empty window one by one.  Row k keeps q^lowval(k) in its lowest slot,
    the reverse of the library's layout, so the two share no slot
    arithmetic.  The library's fold, which starts and stops where windows
    can be open, must return the same rows, cut intermediates included."""

    def lowval(k: int) -> int:
        return k + step * k * (k - 1) // 2

    b = slot_bits
    one = 1
    lowvals = [lowval(k) for k in range(k_eff + 1)]
    rows = [0 for _ in range(k_eff + 1)]
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


def fold_window_volume(step: int, lowest: int, k_eff: int, order: int, slot_bits: int) -> int:
    """Bits the packed fold moves, walked over `reference_fold`'s window
    schedule without any big integer.  A window of w slots on row k costs
    w to cut it from row k-1, 4w per doubling step for its two adds, w to
    lift it and the width of row k, which the add into row k copies:
    `slot_bits * (w * (4 * steps + 2) + row_k)`, steps the least j with
    s * 2^j >= w.  Rows stay zero until a window reaches them."""

    def lowval(k: int) -> int:
        return k + step * k * (k - 1) // 2

    lowvals = [lowval(k) for k in range(k_eff + 1)]
    widths = [order - max(lowvals[lowest] - lv, 0) - lv + 1 for lv in lowvals]
    nonzero = [True] + [False] * k_eff
    volume = 0
    applied = 0
    for s in range(1, order + 1, step):
        applied += 1
        for k in range(min(k_eff, applied), 0, -1):
            r = max(lowest - k, 0)
            w = order - r * s - step * r * (r + 1) // 2 - lowvals[k - 1] - s + 1
            if w <= 0:
                if k <= lowest:
                    break
                continue
            if not nonzero[k - 1]:
                continue
            steps = 0
            while s << steps < w:
                steps += 1
            volume += slot_bits * (w * (4 * steps + 2) + widths[k])
            nonzero[k] = True
    return volume
