"""Production family computation against every independent route: the paper
displays, the brute-force counters, the literal nested sum, the unpruned
enumeration, and the theta-quotient closed forms."""

import functools
import itertools
import math
import operator
import pydoc
import random
import sys
import threading

import pytest

import oracles
from macmahon.families import (
    MacmahonFamily,
    _fold_bound_bits,
    _fold_packed,
    _theta_row,
    _lowval,
    _slot_bits,
    _total_bound_bits,
    _unpack_packed_row,
    a_k_directsum,
    compute_A_family,
    compute_A_family_uncached,
    compute_C_family,
    compute_C_family_uncached,
    members,
)
import macmahon.families as families
import macmahon.identities as identities
import macmahon.partitions as partitions
from macmahon.identities import family_request
from macmahon.partitions import (
    MAX_ORDER,
    _top_member,
    jacobi_cube,
    mk_bruteforce,
    mk_odd_bruteforce,
    overpartition_series,
    p3_series,
    theta_square,
)
from macmahon.series import TruncatedSeries
from oracles import as_series

# initial segments as displayed: (k, first exponent, coefficients)
A_SNAPSHOTS = [
    (0, 0, [1]),
    (1, 1, [1, 3, 4, 7, 6]),
    (2, 3, [1, 3, 9, 15, 30]),
    (3, 6, [1, 3, 9, 22, 42]),
    (4, 10, [1, 3, 9, 22, 51]),
    (5, 15, [1, 3, 9, 22, 51]),
]


def test_A_family_matches_snapshots():
    fam = compute_A_family(5, 19)
    for k, start, coeffs in A_SNAPSHOTS:
        member = fam.members[k]
        for i, c in enumerate(coeffs):
            assert member.coeffs[start + i] == c, (k, start + i)
        # nothing below the valuation floor
        assert all(member.coeffs[i] == 0 for i in range(start))


def test_A_member_2_at_order_7():
    fam = compute_A_family(2, 7)
    assert fam.members[2].coeffs == (0, 0, 0, 1, 3, 9, 15, 30)


def test_A_member_3_at_order_10():
    fam = compute_A_family(3, 10)
    assert fam.members[3].coeffs == (0,) * 6 + (1, 3, 9, 22, 42)


def test_A_member_0_is_one():
    assert compute_A_family(0, 12).members[0] == TruncatedSeries.one(12)


def test_C_member_1_first_coefficients():
    fam = compute_C_family(1, 4)
    assert fam.members[1].coeffs[1] == 1
    assert fam.members[1].coeffs[2] == 2


def test_C_member_0_is_one():
    assert compute_C_family(0, 9).members[0] == TruncatedSeries.one(9)


def test_C_valuations_are_squares():
    fam = compute_C_family(5, 40)
    for k in range(6):
        coeffs = fam.members[k].coeffs
        assert not any(coeffs[: k * k]) and coeffs[k * k], k


def test_A_valuations_are_triangular():
    fam = compute_A_family(6, 30)
    for k in range(7):
        coeffs = fam.members[k].coeffs
        floor = k * (k + 1) // 2
        assert not any(coeffs[:floor]) and coeffs[floor], k


def test_family_coefficients_are_nonnegative():
    fam = compute_A_family(6, 40)
    famC = compute_C_family(5, 40)
    for f in (fam, famC):
        for member in f.members:
            assert all(c >= 0 for c in member.coeffs)


def test_members_beyond_reach_are_zero():
    fam = compute_A_family(8, 20)  # valuation of member 7 is 28 > 20
    assert fam.members[7] == TruncatedSeries.zero(20)
    assert fam.members[8] == TruncatedSeries.zero(20)


def test_family_accessors():
    fam = compute_A_family(3, 12)
    assert fam.member(2) == fam.members[2]
    assert fam.member(2).coefficient(5) == 9
    with pytest.raises(IndexError):
        fam.member(4)


def test_family_validates_member_zero():
    with pytest.raises(ValueError):
        MacmahonFamily("A", (TruncatedSeries.zero(3),), 3, 0)
    with pytest.raises(ValueError):
        MacmahonFamily("A", (TruncatedSeries((1, 5, 7), 2),), 2, 0)
    with pytest.raises(ValueError):
        MacmahonFamily("B", (TruncatedSeries.one(3),), 3, 0)
    # every member must have the family's truncation order
    with pytest.raises(ValueError, match="truncation order"):
        MacmahonFamily("A", (TruncatedSeries.one(3), TruncatedSeries.zero(5)), 3, 1)
    with pytest.raises(ValueError, match="truncation order"):
        MacmahonFamily("A", (TruncatedSeries.one(3),), 7, 0)


def test_stabilized_prefix_for_k_at_least_4():
    fam = compute_A_family(6, 40)
    for k in (4, 5, 6):
        start = k * (k + 1) // 2
        got = [fam.members[k].coeffs[start + i] for i in range(5)]
        assert got == [1, 3, 9, 22, 51], k


def test_family_against_bruteforce_grid():
    # every order below 32 and caps past the reachable degree, where the
    # members above it must come back zero
    for build, counter in (
        (compute_A_family_uncached, mk_bruteforce),
        (compute_C_family_uncached, mk_odd_bruteforce),
    ):
        want = [[counter(k, n).value for n in range(32)] for k in range(7)]
        for order in range(32):
            for K in (0, 1, 3, 6):
                fam = build(K, order)
                for k in range(K + 1):
                    assert list(fam.members[k].coeffs) == want[k][: order + 1], (K, order, k)


def test_shifted_members_track_the_generating_function():
    # the remainder after lowering member k starts no earlier than k+1
    order = 80
    fam = compute_A_family(10, order)
    for k in range(11):
        start = k * (k + 1) // 2
        window = order - start
        p3 = p3_series(window)
        remainder = as_series(
            [fam.members[k].coeffs[n + start] - p3.coeffs[n] for n in range(window + 1)],
            window,
        )
        assert not any(remainder.coeffs[: k + 1]), k


# -- members-only builds ------------------------------------------------------------


@pytest.mark.parametrize(
    "build", [compute_A_family_uncached, compute_C_family_uncached], ids=["A", "C"]
)
def test_members_only_equals_full_fold(build):
    # rows below lowest are cut to the window they can still feed; the rows
    # that come back must not notice
    for order in list(range(32)) + [201, 256, 333]:
        for K in (0, 1, 3, 6, 12):
            full = build(K, order)
            for lowest in range(K + 1):
                fam = build(K, order, lowest)
                assert fam.lowest == lowest
                assert fam.members == full.members[lowest:], (K, order, lowest)
                for k in range(lowest, K + 1):
                    assert fam.member(k) == full.member(k)


@pytest.mark.parametrize("step,deep", [(1, 594), (2, 1155)], ids=["A", "C"])
def test_fold_visits_every_window_the_reference_loop_does(step, deep):
    # the fold's loop starts and stops where windows can be open; the loop
    # that steps over every (s, k) must give the same rows for the cap the
    # builds pass, every k, the cut intermediates below lowest included.
    # Full builds (lowest 0 or 1) stop at order 333: past it they would
    # take most of 20 s and run the same loop bounds as the rest.  The
    # reference keeps q^lowval(k) in the lowest slot; the fold keeps q^e in
    # slot top_k - e, so each reference row is re-packed that way, and it
    # must hold nothing above the top the fold gives its row.  The fold
    # splits on k >= lowest, and the deep corollary windows ask for lowest
    # K-1..K-3 at order lowval(K+1) - 1, so those shapes run too; past
    # order 40 only there, to keep the test's time down
    for K in (0, 1, 2, 5, 12, 33):
        corollary = _lowval(K + 1, step) - 1
        orders = set(range(41)) | {_lowval(K, step) - 1, _lowval(K, step), corollary, 333, deep}
        for order in sorted(orders - {-1}):
            k_eff = min(K, _top_member(step, order))
            bits = _slot_bits(oracles.p2_bound_bits(step, order))
            lowests = {K - 1, K} | ({0, 1} if order <= 333 else set())
            if order <= 40 or order == corollary:
                lowests |= {K - 3, K - 2}
            mask = (1 << bits) - 1
            for lowest in sorted(lo for lo in lowests if 0 <= lo <= k_eff):
                got = _fold_packed(step, lowest, k_eff, order, bits)
                ref = oracles.reference_fold(step, lowest, k_eff, order, bits)
                want = []
                for k, row in enumerate(ref):
                    floor = _lowval(k, step)
                    top = order - max(_lowval(lowest, step) - floor, 0)
                    assert row >> (bits * (top - floor + 1)) == 0, (K, order, lowest, k)
                    want.append(sum(
                        ((row >> (bits * (e - floor))) & mask) << (bits * (top - e))
                        for e in range(floor, top + 1)
                    ))
                assert got == want, (K, order, lowest)


@pytest.mark.parametrize("k", [12, 20, 32])
def test_corollary_shapes_match_theta_and_bruteforce(k):
    # the exact (cap, order, lowest) requests the corollary verifiers make
    # at j = 3: both families, against the theta quotients, and near each
    # member's valuation floor against brute force
    j = 3
    shapes = (
        ("A", compute_A_family_uncached, oracles.theta_family_A, mk_bruteforce,
         (j + 1) * (j + 2 * k + 2) // 2 - 1 + k * (k + 1) // 2, lambda m: m * (m + 1) // 2),
        ("C", compute_C_family_uncached, oracles.theta_family_C, mk_odd_bruteforce,
         (j + 1) * (j + 2 * k + 1) - 1 + k * k, lambda m: m * m),
    )
    for tag, build, theta, counter, order, lowval in shapes:
        fam = build(k + j, order, k)
        rows = theta(k + j, order)
        for m in range(k, k + j + 1):
            assert list(fam.member(m).coeffs) == rows[m], (tag, m)
            floor = lowval(m)
            for n in range(floor, min(floor + 8, order) + 1):
                assert fam.member(m).coeffs[n] == counter(m, n).value, (tag, m, n)


def test_member_below_lowest_raises():
    fam = compute_C_family(5, 40, lowest=3)
    assert len(fam.members) == 3
    assert fam.member(3) == fam.members[0]
    with pytest.raises(IndexError):
        fam.member(2)
    with pytest.raises(IndexError):
        fam.member(0)
    with pytest.raises(IndexError):
        fam.member(6)


def test_family_validates_member_count_for_lowest():
    three = (TruncatedSeries.zero(3),) * 3
    assert MacmahonFamily("A", three, 3, 4, 2).member(4) == TruncatedSeries.zero(3)
    with pytest.raises(ValueError):
        MacmahonFamily("A", three, 3, 4, 1)
    with pytest.raises(ValueError):
        MacmahonFamily("A", three, 3, 4, 3)
    with pytest.raises(ValueError):
        MacmahonFamily("A", three[:1], 3, 4, 5)


def test_lowest_out_of_range_or_bool_rejected():
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            compute_A_family_uncached(3, 10, bad)
    with pytest.raises(TypeError):
        compute_C_family_uncached(3, 10, True)
    compute_A_family(1, 5, lowest=1)
    with pytest.raises(TypeError):
        compute_A_family(1, 5, lowest=True)


# -- the packed slot width ----------------------------------------------------------


def test_slot_widths_leave_guard_bits_above_their_bounds():
    bounds = (oracles.p2_bound_bits, _total_bound_bits)
    for order in (0, 1, 31, 600, 1295, 10608, MAX_ORDER):
        for step in (1, 2):
            for bound in (bits(step, order) for bits in bounds):
                assert _slot_bits(bound) % 8 == 0
                assert _slot_bits(bound) >= bound + 8
    # full folds, on the family total
    widths = {
        (step, order): _slot_bits(_total_bound_bits(step, order))
        for step in (1, 2) for order in (600, 1295)
    }
    assert widths == {(1, 600): 112, (1, 1295): 168, (2, 600): 88, (2, 1295): 120}


def total_theta(step, top):
    # the family total over its dense series, T_A / p3 and T_C / overp: the
    # theta rows summed over k, sparse at the floors lowval(m), with
    # coefficients 1, -2, 1, 1, -2, 1, ... for A and 1, -1, -1, 2, -1, -1,
    # 2, ... for C
    c = [0] * (top + 1)
    m = 0
    while _lowval(m, step) <= top:
        if step == 1:
            c[_lowval(m, step)] = -2 if m % 3 == 1 else 1
        else:
            c[_lowval(m, step)] = 1 if m == 0 else 2 if m % 3 == 0 else -1
        m += 1
    return c


@pytest.mark.parametrize("step", [1, 2], ids=["A", "C"])
def test_total_theta_is_the_family_total_over_its_dense_series(step):
    # against the theta rows the theta route uses, and against the product
    # at t = 1 multiplied out factor by factor
    top = 300
    sparse = total_theta(step, top)
    rows = [_theta_row(step, k, top) for k in range(_top_member(step, top) + 1)]
    summed = [0] * (top + 1)
    for row in rows:
        for c, e in row:
            summed[e] += c
    assert sparse == summed
    dense = oracles.three_colored_counts(top) if step == 1 else oracles.overpartition_counts(top)
    assert oracles.convolve(sparse, dense, top) == oracles.family_total(step, top)


def test_bounds_hold_through_the_order_limit(order_limit_series):
    # p2 = p3 * (q;q)_inf and (-q;q)^2 = overp * (q^2;q^2)_inf, where
    # (q;q)_inf is the sparse pentagonal series sum over m != 0 of
    # (-1)^m q^(m(3m-1)/2), plus 1, and (q^2;q^2)_inf is the same in q^2
    def times_euler(dense, power):
        out = dense[:]
        m = 1
        while power * m * (3 * m - 1) // 2 <= MAX_ORDER:
            op = operator.sub if m % 2 else operator.add
            for e in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
                out[power * e:] = map(op, out[power * e:], dense)
            m += 1
        return out

    # the family totals T_A = p3 * total_theta(1) and T_C = overp *
    # total_theta(2), a coefficient of 2 taken from the doubled series
    def times_total_theta(dense, step):
        out = [0] * len(dense)
        twice = [2 * c for c in dense]
        for e, c in enumerate(total_theta(step, MAX_ORDER)):
            if c:
                src = twice if abs(c) == 2 else dense
                out[e:] = map(operator.add if c > 0 else operator.sub, out[e:], src)
        return out

    p3 = list(order_limit_series["A"].coeffs)
    overp = list(order_limit_series["C"].coeffs)
    p2, odd2 = times_euler(p3, 1), times_euler(overp, 2)
    totals = {1: times_total_theta(p3, 1), 2: times_total_theta(overp, 2)}
    assert p2[:6] == [1, 2, 5, 10, 20, 36]
    assert odd2[:6] == [1, 2, 3, 6, 9, 14]
    assert totals[1][:8] == [1, 1, 3, 5, 10, 15, 28, 41]
    assert totals[2][:8] == [1, 1, 2, 4, 5, 8, 12, 16]
    # the p2 bound the tests take deliberately wide slots from holds
    for n in range(MAX_ORDER + 1):
        assert p2[n].bit_length() <= oracles.p2_bound_bits(1, n), n
        assert odd2[n].bit_length() <= oracles.p2_bound_bits(2, n), n
    # the closed form for the total holds the running maximum of the exact
    # total at every order up to the order limit, the highest any build
    # reaches, within one bit.  It also stays under the dense series the
    # theta route packs, whose slots are sized by that series alone: p3 >=
    # 3T and overp >= 2T above q^0, the k = 0 identity's least weights
    dense, weight = {1: p3, 2: overp}, {1: 3, 2: 2}
    for step, total in totals.items():
        most = 0
        for n in range(MAX_ORDER + 1):
            most = max(most, total[n])
            closed = _total_bound_bits(step, n)
            assert most.bit_length() <= closed <= most.bit_length() + 1, (step, n)
            assert closed <= dense[step][n].bit_length(), (step, n)
            assert n == 0 or dense[step][n] >= weight[step] * total[n], (step, n)


@pytest.mark.parametrize(
    "build,theta,K,order,lowest",
    [
        (compute_A_family_uncached, oracles.theta_family_A, 12, 500, 0),
        (compute_C_family_uncached, oracles.theta_family_C, 14, 600, 12),
        (compute_A_family_uncached, oracles.theta_family_A, 35, 665, 32),
        (compute_C_family_uncached, oracles.theta_family_C, 35, 1295, 32),
        (compute_A_family_uncached, oracles.theta_family_A, 2, 600, 1),
    ],
    ids=["A-full", "C-members-only", "A-cor-32-3", "C-cor-32-3", "A-divisor"],
)
def test_fold_catches_a_bound_one_bit_short(build, theta, K, order, lowest, monkeypatch):
    # the true bound is the largest bit length of any coefficient built; one
    # bit less leaves that coefficient in the guard bits, and a slot one byte
    # narrower than the coefficients need leaves fewer than 8 guard bits.
    # Nine bits short, the coefficient no longer fits its own width: the
    # slots carry into each other, and the guard bits must still show it.
    # The cases are a full fold, sized by the family total; the corollary
    # windows at (32, 3), sized by the prefix sum; and the divisor build,
    # sized by the binomial in its cap
    import macmahon.families as families_module

    want = theta(K, order)[lowest:]
    true_bits = max(c.bit_length() for row in want for c in row)
    cases = [
        (true_bits - 1, _slot_bits(true_bits - 1), ArithmeticError),
        (true_bits, _slot_bits(true_bits), None),
        (true_bits, (true_bits + 7) // 8 * 8 - 8, ArithmeticError),
        (true_bits - 9, _slot_bits(true_bits - 9), ArithmeticError),
    ]
    for bound, slot, error in cases:
        monkeypatch.setattr(
            families_module, "_fold_bound_bits", lambda step, order, lowest, top: bound
        )
        monkeypatch.setattr(families_module, "_slot_bits", lambda bound_bits: slot)
        if error is None:
            fam = build(K, order, lowest)
            assert [list(m.coeffs) for m in fam.members] == want
        else:
            with pytest.raises(error):
                build(K, order, lowest)


# -- the offset bound of members-only builds ----------------------------------------


@pytest.mark.parametrize(
    "build,step,order,gf",
    [(compute_A_family_uncached, 1, 700, p3_series),
     (compute_C_family_uncached, 2, 1100, overpartition_series)],
    ids=["A", "C"],
)
def test_members_sit_under_the_prefix_sums_of_their_series(build, step, order, gf):
    # the inequalities the members-only and capped widths rest on, on full
    # folds (sized by the family total): A_k(lowval(k)+d) <= sum_{j<=d}
    # p3(j), and C_k likewise under overp; and both under the binomial
    # C(d+3k, 3k), the same sum for (1-q)^-3k.  All three are 1 at d = 0;
    # past it the prefix sum holds the j = 0 term the member cannot reach
    fam = build(_top_member(step, order), order)
    sums = list(itertools.accumulate(gf(order).coeffs))
    for k in range(1, fam.degree_cap + 1):
        floor = _lowval(k, step)
        cs = fam.member(k).coeffs
        assert cs[floor] == sums[0] == 1, k
        binomial = 1  # C(d+3k, 3k), kept incrementally
        for d in range(1, order - floor + 1):
            binomial = binomial * (d + 3 * k) // d
            assert cs[floor + d] < sums[d], (k, d)
            assert cs[floor + d] <= binomial, (k, d)
        assert binomial == math.comb(order - floor + 3 * k, 3 * k)


def test_members_only_slot_widths():
    # each shape sized by the bound that wins there: the corollary windows
    # (32, 3) and (100, 2) by their series prefix; full and theorem builds
    # (D close to the order) by the family total; the divisor build (K = 2)
    # by the binomial in its cap.  The fold bound alone gave 144, 144, 136,
    # 104, 128 and 296 bits for the last six
    shapes = {
        (1, 665, 32, 35): 72, (2, 1295, 32, 35): 80,
        (1, 5355, 100, 102): 112, (2, 10608, 100, 102): 112,
        (1, 665, 0, 665): 120, (2, 1295, 0, 1295): 120,
        (1, 578, 12, 578): 112, (2, 644, 12, 644): 88,
        (1, 500, 1, 2): 56, (1, 3000, 1, 2): 72,
    }
    widths = {
        (step, order, lowest, K): _slot_bits(
            _fold_bound_bits(step, order, lowest, min(K, _top_member(step, order)))
        )
        for step, order, lowest, K in shapes
    }
    assert widths == shapes
    for step, order in [(1, 665), (2, 1295), (1, 578), (2, 644)]:
        top = _top_member(step, order)
        assert _fold_bound_bits(step, order, 0, top) == _total_bound_bits(step, order)
    for order in (500, 3000):
        assert _fold_bound_bits(1, order, 1, 2) == math.comb(order - 1 + 6, 6).bit_length()


@pytest.mark.parametrize(
    "build,step,K,order,lowest",
    [(compute_A_family_uncached, 1, 35, 665, 32), (compute_C_family_uncached, 2, 35, 1295, 32)],
    ids=["A", "C"],
)
def test_members_only_builds_equal_the_reference_fold_at_the_full_width(
    build, step, K, order, lowest
):
    # the narrow slots must not change a coefficient: the plain reference
    # loop at the wider p2 bound's width gives the same rows
    fam = build(K, order, lowest)
    wide = _slot_bits(oracles.p2_bound_bits(step, order))
    top = min(K, _top_member(step, order))
    assert _slot_bits(_fold_bound_bits(step, order, lowest, top)) < wide
    rows = oracles.reference_fold(step, lowest, K, order, wide)
    mask = (1 << wide) - 1
    for k in range(lowest, K + 1):
        # the reference keeps q^e in slot e - lowval(k), lowest first
        floor = _lowval(k, step)
        want = [0] * floor + [(rows[k] >> (wide * i)) & mask for i in range(order - floor + 1)]
        assert list(fam.member(k).coeffs) == want, k


# -- the differential recursion ------------------------------------------------------


@pytest.mark.parametrize(
    "tag,build,step",
    [("A", compute_A_family_uncached, 1), ("C", compute_C_family_uncached, 2)],
    ids=["A", "C"],
)
def test_folds_satisfy_the_differential_recursion(tag, build, step):
    # anchored on the divisor sieves, the recursion fixes every member from
    # member 1 up: relations 1..12 of a full fold and of the theta route at
    # order 300, relations 1..12 of the A fold at the north-star row K = 12,
    # N = 1000, every relation of the theta route at order 2000, and
    # relations 33..35 of the members-only build the corollary verifier
    # makes at (32, 3)
    routes = [
        (build(12, 300).members, 300),
        (members(tag, range(13), 300), 300),
        (members(tag, range(_top_member(step, 2000) + 1), 2000), 2000),
    ]
    if step == 1:
        routes.append((build(12, 1000).members, 1000))
    for route, top in routes:
        rows = {k: list(m.coeffs) for k, m in enumerate(route)}
        assert oracles.differential_recursion_failures(step, rows, top) == [], top
    order = family_request(f"cor-{tag.lower()}", 32, 3, None)[2]
    deep = build(35, order, 32)
    rows = {k: list(deep.member(k).coeffs) for k in range(32, 36)}
    assert all(any(row) for row in rows.values())
    assert oracles.differential_recursion_failures(step, rows, order) == []


def test_the_differential_recursion_catches_one_coefficient_off_by_one():
    # on the fold and on the theta route
    for route in (compute_A_family_uncached(12, 300).members, members("A", range(13), 300)):
        rows = {k: list(m.coeffs) for k, m in enumerate(route)}
        rows[5][_lowval(5, 1) + 40] += 1
        assert oracles.differential_recursion_failures(1, rows, 300) == [5, 6]


@pytest.mark.parametrize(
    "build,gf_name,K,order,lowest,scale",
    [
        (compute_A_family_uncached, "p3_series", 14, 80, 12, 2),
        (compute_C_family_uncached, "overpartition_series", 15, 147, 12, 2),
        (compute_A_family_uncached, "p3_series", 35, 665, 32, 16),
        (compute_C_family_uncached, "overpartition_series", 35, 1295, 32, 16),
    ],
    ids=["A-halved", "C-halved", "A-cor-32-3", "C-cor-32-3"],
)
def test_a_doctored_series_raises(build, gf_name, K, order, lowest, scale, monkeypatch):
    # the prefix sum is read, not assumed: a series scaled down far enough
    # that its sum falls below the largest coefficient must raise, never
    # return a wrong family.  Halving shows only where the bound is tight,
    # two or three offsets above the floor; the (32, 3) windows sit 3 bits
    # under their sums, so there the series is cut to a sixteenth
    import macmahon.families as families_module

    true = getattr(families_module, gf_name)

    def doctored(order):
        series = true(order)
        return TruncatedSeries(tuple(c // scale for c in series.coeffs), order)

    monkeypatch.setattr(families_module, gf_name, doctored)
    with pytest.raises(ArithmeticError):
        build(K, order, lowest)


@pytest.mark.parametrize(
    "build,K,order,lowest",
    [
        (compute_A_family_uncached, 12, 500, 0),
        (compute_C_family_uncached, 12, 600, 0),
        (compute_A_family_uncached, 14, 578, 12),
        (compute_C_family_uncached, 14, 600, 12),
    ],
    ids=["A-full", "C-full", "A-near-full", "C-near-full"],
)
def test_full_and_near_full_builds_read_no_series(build, K, order, lowest, monkeypatch):
    # where 3D >= 2*order the family total is the smaller one, so no series
    # may be inverted for the width
    import macmahon.families as families_module

    def refuse(order):
        raise AssertionError("a full or near-full build read a generating function")

    want = build(K, order, lowest)
    monkeypatch.setattr(families_module, "p3_series", refuse)
    monkeypatch.setattr(families_module, "overpartition_series", refuse)
    assert build(K, order, lowest) == want


@pytest.mark.parametrize("slot_bits", [64, 16], ids=["guard-bits-set", "carried-out"])
def test_unpack_rejects_a_slot_too_narrow_for_its_coefficients(slot_bits):
    # A_3 reaches tens of thousands by q^60.  A claimed 8-bit bound leaves
    # the true values in the guard bits of a 64-bit slot, and overflows a
    # 16-bit slot into its neighbour; unpacking must refuse both
    order, k = 60, 3
    rows = _fold_packed(1, 0, k, order, slot_bits)
    with pytest.raises(ArithmeticError):
        _unpack_packed_row(rows[k], 6, order, slot_bits, 8)
    # fewer than 8 guard bits are refused before any slot is read, even on
    # a row with no slot for the per-slot check to catch
    with pytest.raises(ArithmeticError, match="guard bits"):
        _unpack_packed_row(0, 6, order, slot_bits, slot_bits - 7)
    bound = oracles.p2_bound_bits(1, order)
    bits = _slot_bits(bound)
    wide = _fold_packed(1, 0, k, order, bits)
    got = _unpack_packed_row(wide[k], 6, order, bits, bound)
    assert list(got) == oracles.theta_family_A(k, order)[k]


def test_unpack_names_the_lowest_exponent_past_the_bound():
    # with two slots over an 8-bit bound, at q^9 and q^14, the message names
    # the lower one
    order, lowval, bits = 20, 6, 16

    def packed(coeffs):
        return sum(c << (bits * (order - e)) for e, c in coeffs.items())

    under = {e: e for e in range(lowval, order + 1)}
    got = _unpack_packed_row(packed(under), lowval, order, bits, 8)
    assert got == (0,) * lowval + tuple(range(lowval, order + 1))
    with pytest.raises(ArithmeticError, match=r"^packed slot at q\^9 exceeds 8 bits$"):
        _unpack_packed_row(packed(under | {9: 300, 14: 700}), lowval, order, bits, 8)


# -- the literal nested sum ---------------------------------------------------------


def test_directsum_degree_one():
    assert a_k_directsum(1, 5) == as_series([0, 1, 3, 4, 7, 6], 5)


def test_directsum_degree_two():
    assert a_k_directsum(2, 7) == as_series([0, 0, 0, 1, 3, 9, 15, 30], 7)


def test_directsum_below_valuation_is_zero():
    assert a_k_directsum(3, 5) == TruncatedSeries.zero(5)


def test_directsum_degree_zero():
    assert a_k_directsum(0, 4) == TruncatedSeries.one(4)


def test_directsum_rejects_negative():
    with pytest.raises(ValueError):
        a_k_directsum(-1, 5)


def test_directsum_matches_family():
    fam = compute_A_family(3, 25)
    for k in range(4):
        assert a_k_directsum(k, 25) == fam.members[k], k


# -- the theta-quotient closed forms (test-only oracle) -------------------------------


def _oracle_members(rows, order):
    return tuple(TruncatedSeries(tuple(row), order) for row in rows)


@pytest.mark.parametrize("K,order", [(0, 0), (0, 10), (3, 17), (5, 50), (12, 120), (9, 300)])
def test_fold_equals_theta_oracle_A(K, order):
    fam = compute_A_family_uncached(K, order)
    assert fam.members == _oracle_members(oracles.theta_family_A(K, order), order)


@pytest.mark.parametrize("K,order", [(0, 0), (2, 9), (4, 60), (12, 150), (7, 300)])
def test_fold_equals_theta_oracle_C(K, order):
    fam = compute_C_family_uncached(K, order)
    assert fam.members == _oracle_members(oracles.theta_family_C(K, order), order)


def test_packed_fold_works_with_builtin_ints(monkeypatch):
    # the gmpy2 integer type is optional; the packed fold must give identical
    # results on plain Python ints
    import macmahon.families as families_module

    monkeypatch.setattr(families_module, "_bigint", int)
    packed = compute_A_family_uncached(5, 60)
    assert packed.members == _oracle_members(oracles.theta_family_A(5, 60), 60)


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        compute_A_family_uncached(-1, 10)
    with pytest.raises(ValueError):
        compute_C_family_uncached(1, -10)


@pytest.mark.parametrize("build", [compute_A_family, compute_C_family], ids=["A", "C"])
def test_bool_parameters_rejected_after_cache_hit(build):
    # every request below is covered by the kept family, so only the
    # argument checks ahead of the lookup can refuse it
    build(3, 20)
    assert build(1, 5).lowest == 0 and build.cache_info().hits == 1
    for bad in [(True, 5), (1, True), (1, 5, True), (True, 5, 1), (1.0, 5), (1, 5.0), (1, 5, 0.0)]:
        with pytest.raises(TypeError):
            build(*bad)
    for bad in [(-1, 5), (1, -5), (1, 5, -1), (1, 5, 2)]:
        with pytest.raises(ValueError):
            build(*bad)
    assert build.cache_info().hits == 1
    with pytest.raises(TypeError):
        compute_A_family_uncached(False, 5)
    with pytest.raises(TypeError):
        compute_C_family_uncached(0, False)
    with pytest.raises(TypeError, match="truncation order must be an int, not float"):
        compute_C_family_uncached(0, 5.0)


# -- the covering store ----------------------------------------------------------------


@pytest.mark.parametrize(
    "build,fresh",
    [(compute_A_family, compute_A_family_uncached), (compute_C_family, compute_C_family_uncached)],
    ids=["A", "C"],
)
def test_store_serves_shuffled_requests_exactly(build, fresh):
    # a served family equals a fresh build in every field, whether it was
    # built, kept whole or cut out of a wider one
    rng = random.Random(20241)
    requests = []
    for _ in range(70):
        K = rng.randint(0, 12)
        requests.append((K, rng.randint(0, 200), rng.randint(0, K)))
    # repeat and narrow some requests so that covered ones come up often
    requests += [(K, order // 2, K) for K, order, _ in requests[:30]]
    rng.shuffle(requests)
    for K, order, lowest in requests:
        served = build(K, order, lowest)
        expected = fresh(K, order, lowest)
        assert served.members == expected.members, (K, order, lowest)
        assert (served.family, served.truncation_order, served.degree_cap, served.lowest) == (
            expected.family, order, K, lowest
        )
    info = build.cache_info()
    assert info.hits + info.misses == len(requests)
    assert info.hits >= 10 and info.misses >= 10


@pytest.mark.parametrize("build", [compute_A_family, compute_C_family], ids=["A", "C"])
def test_cache_info_counts_covered_requests(build):
    build(4, 60)
    assert build(2, 30, lowest=1).member(2).truncation_order == 30
    assert build(4, 60) is build(4, 60)
    # cap 40 reaches no further than cap 4 at order 9
    build(40, 9, lowest=2)
    assert build.cache_info() == (4, 1, 12, 1)
    build(6, 100)  # covers the kept family, which is dropped
    assert build.cache_info() == (4, 2, 12, 1)
    build.cache_clear()
    assert build.cache_info() == (0, 0, 12, 0)


@pytest.mark.parametrize("build", [compute_A_family, compute_C_family], ids=["A", "C"])
def test_store_keeps_at_most_twelve_families(build):
    # each request reaches further than every earlier one but not as low,
    # so none covers another and every one is a miss
    keys = [(k, k * k + k + 5, k) for k in range(30)]
    for key in keys:
        build(*key)
        assert build.cache_info().currsize <= 12
    assert build.cache_info() == (0, 30, 12, 12)
    build(*keys[-1])  # kept
    build(*keys[18])  # kept as the oldest; a hit does not move it
    build(*keys[0])  # dropped long ago as the oldest; a miss drops keys[18]
    assert build.cache_info()[:2] == (2, 31)
    build(*keys[18])  # gone although it was just read
    assert build.cache_info()[:2] == (2, 32)


def _sweep(rng):
    # two passes of the theorem, limit, divisor and corollary verifiers at
    # N = 100 and 140, each pass in its own shuffled order
    reports = []
    for N in (100, 140):
        calls = [(identities.verify_theorem_A, k, N) for k in range(13)]
        calls += [(identities.verify_theorem_C, k, N) for k in range(13)]
        calls += [(identities.verify_limit_A, k, N) for k in range(11)]
        calls += [(identities.verify_limit_C, k, N) for k in range(9)]
        calls.append((identities.verify_divisor_identities, 3 * N))
        calls += [
            (verify, k, j)
            for verify in (identities.verify_corollary_A, identities.verify_corollary_C)
            for k, j in ((0, 3), (1, 2), (2, 2), (20, 2))
        ]
        rng.shuffle(calls)
        reports += [verify(*args) for verify, *args in calls]
    return reports


def test_a_verifier_sweep_builds_fewer_families_by_rounding_theorem_requests(monkeypatch):
    # Pins the stores' work on a fixed sweep, not its time: the misses of the
    # A and C stores must stay at most these figures, and below the same
    # sweep with every theorem request served exactly.  A change that lowers
    # them updates them.
    pinned = {"A": 12, "C": 20}
    stores = {"A": compute_A_family, "C": compute_C_family}
    fresh = {"A": compute_A_family_uncached, "C": compute_C_family_uncached}

    def checked(tag):
        def serve(K, order, lowest=0):
            served = stores[tag](K, order, lowest=lowest)
            assert served == fresh[tag](K, order, lowest), (tag, K, order, lowest)
            return served

        return serve

    for tag in "AC":
        monkeypatch.setattr(identities, f"compute_{tag}_family", checked(tag))
    reports = _sweep(random.Random(26))
    assert len(reports) == 2 * 55 and all(report.passed for report in reports)
    rounded = {tag: stores[tag].cache_info().misses for tag in "AC"}
    assert all(rounded[tag] <= pinned[tag] for tag in "AC"), rounded

    for store in (compute_A_family, compute_C_family, p3_series, overpartition_series):
        store.cache_clear()

    def exact(identity, request):
        tag, _, order, k = request
        return tag, k, order, k

    monkeypatch.setattr(identities, "_build_request", exact)
    # each check is made afresh from its exact request, not kept
    monkeypatch.setattr(identities, "_first_mismatch", identities._first_mismatch_uncached)
    exact_reports = _sweep(random.Random(26))
    assert [r.to_json_dict() | {"elapsed_ms": 0} for r in exact_reports] == [
        r.to_json_dict() | {"elapsed_ms": 0} for r in reports
    ]
    assert all(rounded[tag] < stores[tag].cache_info().misses for tag in "AC"), rounded


def _family_request(rng):
    K = rng.randint(0, 8)
    return K, rng.randint(0, 80), rng.randint(0, K)


def _series_request(rng):
    return (rng.randint(0, 400),)


def _serve_from_threads(store, jobs):
    # each job's requests in its own thread, switching as often as possible
    results = [[] for _ in jobs]

    def work(keys, out):
        for key in keys:
            out.append((key, store(*key), store.cache_info().currsize))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=job) for job in zip(jobs, results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_store_shared_across_threads():
    # a lost update under concurrent lookups and builds would break the
    # hit and miss totals or the bound on kept values
    rng = random.Random(7)
    for store, draw, fresh, kept_at_most in (
        (compute_C_family, _family_request, compute_C_family_uncached, 12),
        (p3_series, _series_request, lambda order: jacobi_cube(order).invert(), 1),
        (overpartition_series, _series_request, lambda order: theta_square(order).invert(), 1),
    ):
        # the family builds read overp, so each store starts from empty
        store.cache_clear()
        jobs = [[draw(rng) for _ in range(40)] for _ in range(4)]
        results = _serve_from_threads(store, jobs)
        name = store.__name__
        info = store.cache_info()
        assert info.hits + info.misses == 160, name
        for out in results:
            assert len(out) == 40
            for key, value, kept in out:
                assert value == fresh(*key), (name, key)
                assert kept <= kept_at_most, (name, key)


def test_each_store_answers_to_its_own_name():
    # pydoc, reprs and tracebacks name a store by __name__; the build it
    # wraps stays reachable as __wrapped__
    stores = {
        "compute_A_family": compute_A_family,
        "compute_C_family": compute_C_family,
        "p3_series": p3_series,
        "overpartition_series": overpartition_series,
    }
    for name, store in stores.items():
        assert (store.__name__, store.__qualname__) == (name, name)
        assert store.__wrapped__ is store._build
    assert compute_A_family.__wrapped__ is compute_A_family_uncached
    assert compute_C_family.__wrapped__ is compute_C_family_uncached
    page = pydoc.render_doc(compute_C_family, renderer=pydoc.plaintext)
    assert page.splitlines()[2].startswith("compute_C_family = ")


# -- the theta-quotient route ---------------------------------------------------------


@functools.cache
def _fold_20_800(tag):
    # every member k <= 20 through q^800 from the fold; any prefix of it is
    # exact, so one build serves every order below
    build = compute_A_family_uncached if tag == "A" else compute_C_family_uncached
    return build(20, 800)


@pytest.mark.parametrize("tag", ["A", "C"])
def test_members_equal_the_fold(tag):
    fold = _fold_20_800(tag)
    for order in list(range(41)) + [57, 97, 128, 210, 333, 401, 512, 677, 800]:
        got = members(tag, range(21), order)
        assert len(got) == 21
        for k in range(21):
            assert got[k] == fold.member(k).truncate(order), (tag, k, order)


@pytest.mark.parametrize(
    "tag,counter", [("A", mk_bruteforce), ("C", mk_odd_bruteforce)], ids=["A", "C"]
)
def test_members_equal_bruteforce(tag, counter):
    got = members(tag, range(7), 25)
    for k in range(7):
        assert list(got[k].coeffs) == [counter(k, n).value for n in range(26)], (tag, k)


def test_members_above_the_top_are_zero():
    # A_6 starts at q^21 and C_5 at q^25: past order 20 and 24 respectively
    assert members("A", [6, 7, 100], 20) == (TruncatedSeries.zero(20),) * 3
    assert members("C", [5, 1000], 24) == (TruncatedSeries.zero(24),) * 2
    for tag, k, floor in (("A", 5, 15), ("C", 4, 16)):
        coeffs = members(tag, [k], floor)[0].coeffs
        assert not any(coeffs[:floor]) and coeffs[floor], tag


@pytest.mark.parametrize("tag", ["A", "C"])
def test_members_keep_the_order_of_ks(tag):
    fold = _fold_20_800(tag)
    ks = [5, 0, 20, 5, 3, 3, 11]
    got = members(tag, ks, 300)
    assert got == tuple(fold.member(k).truncate(300) for k in ks)
    assert members(tag, iter([2, 1]), 50) == (
        fold.member(2).truncate(50),
        fold.member(1).truncate(50),
    )
    assert members(tag, [], 50) == ()


def test_members_validate_their_arguments():
    for bad, message in [
        (("A", [True], 10), "member indices must be an int, not bool"),
        (("C", [1], True), "truncation order must be an int, not bool"),
        (("A", [1, False], 10), "member indices must be an int, not bool"),
        (("A", [2], 10.0), "truncation order must be an int, not float"),
        (("C", [1.0], 10), "member indices must be an int, not float"),
    ]:
        with pytest.raises(TypeError, match=message):
            members(*bad)
    for bad, message in [
        (("A", [-1], 10), "member indices"),
        (("C", [2, -3], 10), "member indices"),
        (("C", [1], -1), "truncation order"),
        (("B", [1], 10), "family tag"),
        (("a", [1], 10), "family tag"),
    ]:
        with pytest.raises(ValueError, match=message):
            members(*bad)


@pytest.mark.parametrize(
    "slot_bits,message",
    [(64, "exceeds 8 bits"), (16, "too big")],
    ids=["guard-bits-set", "dense-overflows"],
)
def test_members_reject_a_slot_too_narrow(slot_bits, message, monkeypatch):
    # A_3 reaches tens of thousands by q^60 and p3 about 10^15.  A claimed
    # 8-bit bound leaves A_3 in the guard bits of a 64-bit slot; a 16-bit
    # slot cannot even hold p3.  Both must raise, never return
    import macmahon.families as families_module

    order = 60
    monkeypatch.setattr(families_module, "_slot_bits", lambda order: slot_bits)
    monkeypatch.setattr(
        families_module, "_fold_bound_bits", lambda step, order, lowest, top: 8
    )
    with pytest.raises(ArithmeticError, match=message):
        members("A", [3], order)
    monkeypatch.undo()
    assert list(members("A", [3], order)[0].coeffs) == oracles.theta_family_A(3, order)[3]


def spy_on_unpack(monkeypatch) -> list[tuple[int, int]]:
    # the (floor, bound) of every row unpacked from here on
    import macmahon.families as families_module

    checked = []
    unpack = families_module._unpack_packed_row

    def spy(row, lowval, order, slot_bits, bound_bits):
        checked.append((lowval, bound_bits))
        return unpack(row, lowval, order, slot_bits, bound_bits)

    monkeypatch.setattr(families_module, "_unpack_packed_row", spy)
    return checked


@pytest.mark.parametrize("tag,order", [("A", 5355), ("C", 10608)])
def test_members_check_each_member_against_its_own_bound(tag, order, monkeypatch):
    # member k is checked against the bound of a fold of members k..k, the
    # smallest of the family total, the dense series' sum through q^(order -
    # lowval(k)) and C(order - lowval(k) + 3k, 3k): one bit for member 0,
    # the binomial's tens of bits for member 1, and the prefix sum's near
    # the top member, where the total needs hundreds
    step = 1 if tag == "A" else 2
    dense = p3_series(order) if tag == "A" else overpartition_series(order)
    sums = list(itertools.accumulate(dense.coeffs))
    checked = spy_on_unpack(monkeypatch)
    ks = [0, 1, 100, _top_member(step, order)]
    members(tag, ks, order)
    total = _total_bound_bits(step, order)
    reach = {k: order - _lowval(k, step) for k in ks}
    binomial = {k: math.comb(reach[k] + 3 * k, 3 * k).bit_length() for k in ks}
    prefix = {k: sums[reach[k]].bit_length() for k in ks}
    want = [(_lowval(k, step), min(total, binomial[k], prefix[k])) for k in ks]
    assert checked == want
    assert checked[0][1] == 1
    assert checked[1][1] == binomial[1] < min(total, prefix[1]) // 4
    assert checked[-1][1] == prefix[ks[-1]] < total // 3


@pytest.mark.parametrize(
    "tag,pinned",
    [("A", [16, 16, 152, 224, 896]), ("C", [16, 16, 112, 160, 632])],
    ids=["A", "C"],
)
def test_theta_slots_are_sized_by_the_series_they_hold(
    tag, pinned, order_limit_stores, monkeypatch
):
    # the width is the packed series' own bit length plus 8 to 15 guard
    # bits, and it clears every member's own bound by at least 8 bits up to
    # the top member, so unpacking's guard-bit check refuses none of them
    step = 1 if tag == "A" else 2
    widths = []
    unpack = families._unpack_packed_row

    def spy(row, lowval, order, slot_bits, bound_bits):
        widths.append(slot_bits)
        return unpack(row, lowval, order, slot_bits, bound_bits)

    monkeypatch.setattr(families, "_unpack_packed_row", spy)
    orders = [0, 1, 600, 1295, MAX_ORDER]
    for order in orders:
        dense = order_limit_stores[tag].truncate(order)
        top = _top_member(step, order)
        # the top member's theta row has a single term
        members(tag, [top], order)
        width = widths[-1]
        assert 8 <= width - max(dense.coeffs).bit_length() < 16, order
        for k in range(top + 1):
            assert width >= _fold_bound_bits(step, order, k, k) + 8, (order, k)
    assert widths == pinned


@pytest.mark.parametrize("tag", ["A", "C"])
def test_members_at_the_order_limit(tag, order_limit_stores, monkeypatch):
    """The theta route at MAX_ORDER, where `compute` and `table` may still
    ask for any member, against two oracles that do not use its closed
    form.  The low members go against MacMahon's divisor sums:

        A_1(n) = sigma_1(n),  8 A_2(n) = (1 - 2n) sigma_1(n) + sigma_3(n),
        C_1(n) = sum of n/d over the odd divisors d of n,

    the last from q^s/(1-q^s)^2 = sum_j j q^(sj).  The top four members (A_196
    to A_199, C_138 to C_141) go against the members-only fold.  The middle
    band (A_3 to A_195, C_2 to C_137) stays unchecked above order 800, where
    test_members_equal_the_fold stops: the fold would take minutes there.
    Member 1 is checked against the binomial C(order + 2, 3), 41 bits,
    where the family total would allow hundreds."""
    order = MAX_ORDER
    if tag == "A":
        low, top, fold = [1, 2], 199, compute_A_family_uncached(199, order, 196)
    else:
        low, top, fold = [1], 141, compute_C_family_uncached(141, order, 138)
    checked = spy_on_unpack(monkeypatch)
    got = members(tag, low + list(range(top - 3, top + 1)), order)
    assert got[len(low):] == fold.members
    assert checked[0] == (1, 41) == (1, math.comb(order + 2, 3).bit_length())
    if tag == "A":
        s1 = oracles.divisor_power_sums(order, 1)
        s3 = oracles.divisor_power_sums(order, 3)
        assert list(got[0].coeffs) == s1
        assert got[1].coeffs[0] == 0
        for n in range(1, order + 1):
            assert 8 * got[1].coeffs[n] == (1 - 2 * n) * s1[n] + s3[n], n
    else:
        assert list(got[0].coeffs) == oracles.odd_divisor_cofactor_sums(order)


def test_builds_past_the_order_limit_raise_before_anything_is_built(monkeypatch):
    # both stores, both _uncached builds and the theta route refuse an order
    # past MAX_ORDER with the CLI's message, before they fold or read a
    # series, and a refused store call counts neither a hit nor a miss;
    # with the limit patched low, a build at exactly the limit still runs
    def refuse(*args, **kwargs):
        raise AssertionError("built past the order limit")

    stores = (compute_A_family, compute_C_family, p3_series, overpartition_series)
    builds = [
        compute_A_family,
        compute_C_family,
        compute_A_family_uncached,
        compute_C_family_uncached,
        lambda K, order: members("A", range(K + 1), order),
        lambda K, order: members("C", range(K + 1), order),
    ]
    for limit in (MAX_ORDER, 30):
        monkeypatch.setattr(partitions, "MAX_ORDER", limit)
        info = [store.cache_info() for store in stores]
        text = f"this call builds truncation order {limit + 1}, above the order limit {limit}"
        with monkeypatch.context() as mp:
            for name in ("_fold_packed", "p3_series", "overpartition_series"):
                mp.setattr(families, name, refuse)
            for build in builds:
                with pytest.raises(ValueError) as exc:
                    build(3, limit + 1)
                assert str(exc.value) == text
        assert [store.cache_info() for store in stores] == info
    want = {"A": oracles.theta_family_A(3, 30), "C": oracles.theta_family_C(3, 30)}
    for build, tag in zip(builds, "ACACAC"):
        got = build(3, 30)
        got = got.members if isinstance(got, MacmahonFamily) else got
        assert [list(m.coeffs) for m in got] == want[tag]


def test_verifiers_do_not_read_the_theta_route():
    # the identities are the binomial inverse of the theta closed form, so
    # the verifiers must keep checking the fold
    import macmahon.identities as identities_module

    assert all(value is not members for value in vars(identities_module).values())


def test_family_matches_unpruned_enumeration_spot():
    fam = compute_A_family(3, 14)
    for n in range(15):
        for k in range(4):
            assert fam.members[k].coeffs[n] == oracles.multiplicity_product_total(n, k)
