"""Theta generators, generating functions, divisor sums, and the
enumeration oracles, each checked against an independent route."""

import pytest

import macmahon.identities as identities
import oracles
from macmahon.families import compute_A_family_uncached
from macmahon.partitions import (
    _divisor_sums,
    jacobi_cube,
    mk_bruteforce,
    mk_odd_bruteforce,
    overpartition_series,
    p3_series,
    sigma,
    theta_square,
)
from macmahon.series import TruncatedSeries


# -- theta generators ---------------------------------------------------------


def test_jacobi_cube_initial_terms():
    assert jacobi_cube(10).coeffs == (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9)


def test_jacobi_cube_order_zero():
    assert jacobi_cube(0) == TruncatedSeries.one(0)


def test_jacobi_cube_equals_cubed_product():
    poch = oracles.pochhammer(1, 1, 50)
    cube = oracles.convolve(oracles.convolve(poch, poch, 50), poch, 50)
    assert cube == list(jacobi_cube(50).coeffs)


def test_theta_square_initial_terms():
    assert theta_square(9).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)


def test_theta_square_order_zero():
    assert theta_square(0) == TruncatedSeries.one(0)


def test_theta_square_equals_product_form():
    odd = oracles.pochhammer(1, 2, 50)
    expected = oracles.convolve(oracles.convolve(oracles.pochhammer(2, 2, 50), odd, 50), odd, 50)
    assert list(theta_square(50).coeffs) == expected


def test_theta_generators_truncation_consistency():
    deep_cube = jacobi_cube(200)
    deep_square = theta_square(200)
    for order in (0, 1, 17, 60, 199):
        assert jacobi_cube(order) == deep_cube.truncate(order)
        assert theta_square(order) == deep_square.truncate(order)


# -- generating functions --------------------------------------------------------


def test_p3_series_first_coefficients():
    s = p3_series(6)
    assert s.coeffs[0] == 1  # empty partition
    assert s.coeffs[1] == 3  # one part, three colors
    assert s.coeffs[4] == 51


def test_p3_series_matches_triple_convolution_oracle():
    assert list(p3_series(100).coeffs) == oracles.three_colored_counts(100)


def test_overpartition_series_initial_terms():
    assert overpartition_series(5).coeffs == (1, 2, 4, 8, 14, 24)


def test_overpartition_series_coefficient_six():
    assert overpartition_series(6).coeffs[6] == 40 == oracles.overpartition_count(6)


def test_overpartition_series_matches_enumeration():
    s = overpartition_series(20)
    for n in range(21):
        assert s.coeffs[n] == oracles.overpartition_count(n)


def test_generating_functions_invert_their_theta_series():
    order = 300
    assert p3_series(order) * jacobi_cube(order) == TruncatedSeries.one(order)
    assert overpartition_series(order) * theta_square(order) == TruncatedSeries.one(order)


@pytest.mark.parametrize(
    "cached,theta",
    [(p3_series, jacobi_cube), (overpartition_series, theta_square)],
    ids=["p3", "overp"],
)
def test_generating_functions_serve_prefixes_of_the_longest(cached, theta):
    # below, at and above the longest kept order, then below and at the new one
    cached(50)
    for order in (10, 50, 0, 90, 30, 90):
        assert cached(order) == theta(order).invert(), order
    # two builds; the second covers the first, which is dropped
    assert cached.cache_info() == (5, 2, 12, 1)
    # refused ahead of the lookup, so neither counts
    with pytest.raises(TypeError):
        cached(True)
    with pytest.raises(ValueError):
        cached(-1)
    assert cached.cache_info() == (5, 2, 12, 1)


# -- divisor sums -------------------------------------------------------------------


def test_sigma_values():
    assert sigma(1, 4) == 7
    assert sigma(1, 1) == 1
    assert sigma(3, 4) == 73


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma(1, 0)


def test_sigma_rejects_bool_and_negative_arguments():
    # bool is an int subclass, so True would run as 1, and a negative nu
    # makes d**nu a float
    for bad in [(True, 6), (1, True), (False, 6)]:
        with pytest.raises(TypeError, match="must be an int, not bool"):
            sigma(*bad)
    with pytest.raises(ValueError, match="nu must be non-negative"):
        sigma(-1, 6)
    assert sigma(0, 6) == 4


def test_sigma_against_full_scan():
    for n in range(1, 200):
        assert sigma(1, n) == oracles.divisor_power_sum(n, 1)
        assert sigma(3, n) == oracles.divisor_power_sum(n, 3)


@pytest.mark.parametrize("order", [1, 2, 3, 40, 600, 3000])
def test_divisor_rows_match_the_sieve_oracle_and_the_fold(order):
    # the rows the divisor verifier reads: sigma_1 and sigma_3 from the
    # divisor-pair sieve, the square of the sigma_1 row, and members 1 and 2
    # by Newton's identity, each against a route that shares nothing with it
    s1, s3 = _divisor_sums(order)
    assert s1 == oracles.divisor_power_sums(order, 1)
    assert s3 == oracles.divisor_power_sums(order, 3)
    assert list(identities._square(s1)) == oracles.convolve(s1, s1, order)
    fam = compute_A_family_uncached(2, order, 1)
    a1, a2 = identities._power_sum_members(s1, s3)
    assert [list(a1), list(a2)] == [list(fam.member(m).coeffs) for m in (1, 2)]


def test_divisor_square_rejects_a_slot_one_byte_too_narrow(monkeypatch):
    # fewer than 8 guard bits above the square's bound leave a coefficient
    # past it able to carry into its neighbour unseen, so unpacking refuses
    s1 = _divisor_sums(600)[0]
    slot_bits = identities._slot_bits
    monkeypatch.setattr(identities, "_slot_bits", lambda bound: slot_bits(bound) - 8)
    with pytest.raises(ArithmeticError, match="guard bits"):
        identities._square(s1)


# -- brute-force multiplicity-product counters -----------------------------------------


def test_mk_bruteforce_paper_values():
    assert mk_bruteforce(1, 4).value == 7
    assert mk_bruteforce(2, 5).value == 9
    assert mk_bruteforce(3, 5).value == 0  # 5 < 3*4/2


def test_mk_bruteforce_k_zero():
    assert mk_bruteforce(0, 0).value == 1
    assert mk_bruteforce(0, 7).value == 0


def test_mk_bruteforce_result_fields():
    r = mk_bruteforce(2, 6)
    assert (r.k, r.n, r.odd_parts_only) == (2, 6, False)
    r = mk_odd_bruteforce(2, 6)
    assert r.odd_parts_only is True


def test_mk_bruteforce_rejects_negative():
    with pytest.raises(ValueError):
        mk_bruteforce(-1, 4)
    with pytest.raises(ValueError):
        mk_odd_bruteforce(0, -2)


def test_mk_odd_bruteforce_small_values():
    assert mk_odd_bruteforce(1, 1).value == 1
    assert mk_odd_bruteforce(1, 2).value == 2  # only 1+1, multiplicity 2


def test_mk_odd_zero_below_square():
    for k in range(1, 5):
        for n in range(k * k):
            assert mk_odd_bruteforce(k, n).value == 0


def test_mk_counters_match_unpruned_enumeration():
    for n in range(19):
        for k in range(5):
            assert mk_bruteforce(k, n).value == oracles.multiplicity_product_total(n, k)
            assert mk_odd_bruteforce(k, n).value == oracles.multiplicity_product_total(
                n, k, odd_only=True
            )


def test_mk_values_nonnegative_and_k_range_finite():
    # for n <= 30 every cell is non-negative and k beyond the triangular
    # bound contributes nothing
    for n in range(31):
        for k in range(9):
            v = mk_bruteforce(k, n).value
            assert v >= 0
            if k * (k + 1) // 2 > n:
                assert v == 0
