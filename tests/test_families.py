"""Production family computation against every independent route: the paper
displays, the brute-force counters, the literal nested sum, the unpruned
enumeration, and the theta-quotient closed forms."""

import random
import sys
import threading

import pytest

import oracles
from macmahon.families import (
    MacmahonFamily,
    _bound_bits,
    _fold_packed,
    _slot_bits,
    _unpack_packed_row,
    a_k_directsum,
    binomial,
    compute_A_family,
    compute_A_family_uncached,
    compute_C_family,
    compute_C_family_uncached,
)
from macmahon.partitions import mk_bruteforce, mk_odd_bruteforce, p3_series
from macmahon.series import TruncatedSeries, make_series

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
        assert member.valuation() == (start if k else 0)
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
        assert fam.members[k].valuation() == (k * k if k else 0)


def test_A_valuations_are_triangular():
    fam = compute_A_family(6, 30)
    for k in range(7):
        assert fam.members[k].valuation() == (k * (k + 1) // 2 if k else 0)


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
    assert fam.coefficient(2, 5) == 9
    with pytest.raises(IndexError):
        fam.member(4)


def test_family_validates_member_zero():
    with pytest.raises(ValueError):
        MacmahonFamily("A", (TruncatedSeries.zero(3),), 3, 0)
    with pytest.raises(ValueError):
        MacmahonFamily("B", (TruncatedSeries.one(3),), 3, 0)


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
        remainder = make_series(
            [fam.members[k].coeffs[n + start] - p3.coeffs[n] for n in range(window + 1)],
            window,
        )
        v = remainder.valuation()
        assert v is None or v >= k + 1, k


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
        fam.coefficient(0, 0)
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


def test_slot_layout_leaves_guard_bits():
    for order in (0, 1, 31, 600, 10608):
        assert _slot_bits(order) % 8 == 0
        assert _slot_bits(order) >= _bound_bits(order) + 32


@pytest.mark.parametrize("slot_bits", [64, 16], ids=["guard-bits-set", "carried-out"])
def test_unpack_rejects_a_slot_too_narrow_for_its_coefficients(slot_bits):
    # A_3 reaches tens of thousands by q^60.  A claimed 8-bit bound leaves
    # the true values in the guard bits of a 64-bit slot, and overflows a
    # 16-bit slot into its neighbour; unpacking must refuse both
    order, k = 60, 3
    rows = _fold_packed(1, 0, k, order, slot_bits)
    with pytest.raises(ArithmeticError):
        _unpack_packed_row(rows[k], 6, order, slot_bits, 8)
    wide = _fold_packed(1, 0, k, order, _slot_bits(order))
    got = _unpack_packed_row(wide[k], 6, order, _slot_bits(order), _bound_bits(order))
    assert list(got) == oracles.theta_family_A(k, order)[k]


# -- the literal nested sum ---------------------------------------------------------


def test_directsum_degree_one():
    assert a_k_directsum(1, 5) == make_series([0, 1, 3, 4, 7, 6], 5)


def test_directsum_degree_two():
    assert a_k_directsum(2, 7) == make_series([0, 0, 0, 1, 3, 9, 15, 30], 7)


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
    for bad in [(True, 5), (1, True), (1, 5, True), (True, 5, 1)]:
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
    build(*keys[0])  # dropped long ago as the least recently used
    assert build.cache_info()[:2] == (1, 31)


def test_store_shared_across_threads():
    # a lost update under concurrent lookups and builds would break the
    # hit and miss totals or the bound on kept families
    rng = random.Random(7)
    jobs = []
    for _ in range(4):
        keys = []
        for _ in range(40):
            K = rng.randint(0, 8)
            keys.append((K, rng.randint(0, 80), rng.randint(0, K)))
        jobs.append(keys)
    results = [[] for _ in jobs]

    def work(keys, out):
        for key in keys:
            out.append((key, compute_C_family(*key)))

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
    info = compute_C_family.cache_info()
    assert info.hits + info.misses == 160 and info.currsize <= 12
    for out in results:
        assert len(out) == 40
        for key, fam in out:
            assert fam == compute_C_family_uncached(*key), key


# -- binomial ------------------------------------------------------------------------------


def test_binomial_worked_example_weights():
    assert binomial(203, 202) == 203
    assert binomial(205, 203) == 20910
    assert binomial(202, 201) == 202
    assert binomial(204, 202) == 20706


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_binomial_pascal_identity(seed=0x9E):
    rng = random.Random(seed)
    for _ in range(80):
        n = rng.randint(0, 500)
        r = rng.randint(-2, n + 2)
        assert binomial(n, r) + binomial(n, r + 1) == binomial(n + 1, r + 1)


def test_family_matches_unpruned_enumeration_spot():
    fam = compute_A_family(3, 14)
    for n in range(15):
        for k in range(4):
            assert fam.members[k].coeffs[n] == oracles.multiplicity_product_total(n, k)
