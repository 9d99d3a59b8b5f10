"""Series-core contract: exact arithmetic, truncation propagation, and the
ring/unit properties on seeded random inputs."""

import random

import pytest

from macmahon.series import (
    TruncatedSeries,
    format_series,
    geometric_square,
    make_series,
    pochhammer,
)
from macmahon.partitions import jacobi_cube, p3_series, theta_square


def series(coeffs, order):
    return make_series(coeffs, order)


def rand_series(rng, order, unit=False):
    coeffs = [rng.randint(-9, 9) for _ in range(order + 1)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return make_series(coeffs, order)


# -- construction ----------------------------------------------------------------


def test_make_series_pads_with_zeros():
    s = make_series([1], 3)
    assert s.coeffs == (1, 0, 0, 0)
    assert s.truncation_order == 3


def test_make_series_first_terms_of_divisor_generating_member():
    s = make_series([0, 1, 3, 4], 3)
    assert s.coeffs == (0, 1, 3, 4)


def test_make_series_empty_is_zero():
    assert make_series([], 2) == TruncatedSeries.zero(2)


def test_make_series_rejects_too_many_coefficients():
    with pytest.raises(ValueError):
        make_series([1, 2, 3], 1)


def test_make_series_rejects_negative_order():
    with pytest.raises(ValueError):
        make_series([1], -1)


def test_make_series_rejects_non_integers():
    with pytest.raises(TypeError):
        make_series([1.5], 2)


def test_coefficient_accessor_bounds():
    s = make_series([5, 6], 1)
    assert s.coefficient(1) == 6
    with pytest.raises(IndexError):
        s.coefficient(2)
    with pytest.raises(IndexError):
        s.coefficient(-1)


# -- add / sub --------------------------------------------------------------------


def test_add_cancellation():
    one_minus_q = make_series([1, -1], 3)
    q = make_series([0, 1], 3)
    assert one_minus_q + q == TruncatedSeries.one(3)


def test_add_identity():
    a = make_series([0, 1, 3, 4, 7, 6], 5)
    assert a + TruncatedSeries.zero(5) == a


def test_add_truncates_to_min_order():
    a = make_series([1, 1], 5)
    b = make_series([1, 0, 1], 2)
    out = a + b
    assert out.truncation_order == 2
    assert out.coeffs == (2, 1, 1)


def test_sub_and_neg():
    a = make_series([3, -2, 5], 2)
    assert a - a == TruncatedSeries.zero(2)
    assert -a == make_series([-3, 2, -5], 2)


# -- mul ----------------------------------------------------------------------------


def test_mul_geometric_telescope():
    a = make_series([1, -1], 3)
    b = make_series([1, 1, 1, 1], 3)
    assert a * b == TruncatedSeries.one(3)


def test_mul_square():
    a = make_series([1, 1], 2)
    assert a * a == make_series([1, 2, 1], 2)


def test_mul_inverse_pair_from_theta_cube():
    assert jacobi_cube(10) * p3_series(10) == TruncatedSeries.one(10)


def test_mul_min_order_propagation():
    a = make_series([1, 2, 3], 2)
    b = make_series([1, 1], 9)
    assert (a * b).truncation_order == 2


def test_scalar_mul():
    a = make_series([1, -2, 3], 2)
    assert 3 * a == make_series([3, -6, 9], 2)
    assert a * -1 == -a


# -- shift ----------------------------------------------------------------------------


def test_shift_monomial():
    assert TruncatedSeries.one(5).shift(3) == make_series([0, 0, 0, 1], 5)


def test_shift_matches_family_leading_term():
    # lifting the constant member by k(k+1)/2 reproduces member k's first term
    from macmahon.families import compute_A_family

    fam = compute_A_family(3, 10)
    lifted = fam.members[0].shift(6)
    assert lifted.valuation() == 6
    assert fam.members[3].valuation() == 6
    assert fam.members[3].coeffs[6] == lifted.coeffs[6] == 1


def test_shift_of_zero():
    assert TruncatedSeries.zero(4).shift(7) == TruncatedSeries.zero(4)


def test_shift_rejects_negative():
    with pytest.raises(ValueError):
        TruncatedSeries.one(4).shift(-1)


def test_shift_is_multiplicative(seed=0xA5):
    rng = random.Random(seed)
    for _ in range(40):
        order = rng.randint(0, 24)
        a = rand_series(rng, order)
        b = rand_series(rng, order)
        s = rng.randint(0, 5)
        t = rng.randint(0, 5)
        assert a.shift(s) * b.shift(t) == (a * b).shift(s + t)


# -- invert ----------------------------------------------------------------------------


def test_invert_geometric():
    assert make_series([1, -1], 3).invert() == make_series([1, 1, 1, 1], 3)


def test_invert_theta_square_gives_overpartition_counts():
    assert theta_square(5).invert().coeffs == (1, 2, 4, 8, 14, 24)


def test_invert_is_involution():
    a = make_series([1, -1, -1], 4)
    assert a.invert().invert() == a


def test_invert_negative_unit():
    a = make_series([-1, 2, 5], 6)
    assert a * a.invert() == TruncatedSeries.one(6)


def test_invert_rejects_non_unit():
    with pytest.raises(ValueError):
        make_series([2, 1], 3).invert()
    with pytest.raises(ValueError):
        TruncatedSeries.zero(3).invert()


def test_invert_property_random_units(seed=0x51):
    rng = random.Random(seed)
    for _ in range(40):
        order = rng.randint(0, 32)
        a = rand_series(rng, order, unit=True)
        assert a * a.invert() == TruncatedSeries.one(order)


# -- valuation --------------------------------------------------------------------------


def test_valuation_of_family_members():
    from macmahon.families import compute_A_family

    assert compute_A_family(2, 10).members[2].valuation() == 3
    assert compute_A_family(5, 20).members[5].valuation() == 15


def test_valuation_of_zero_is_none():
    assert TruncatedSeries.zero(6).valuation() is None


# -- pochhammer and geometric_square -------------------------------------------------------


def test_pochhammer_single_variable():
    assert pochhammer(1, 1, 4).coeffs == (1, -1, -1, 0, 0)


def test_pochhammer_even_exponents():
    assert pochhammer(2, 2, 3) == make_series([1, 0, -1], 3)


def test_pochhammer_order_zero():
    assert pochhammer(1, 1, 0) == TruncatedSeries.one(0)


def test_pochhammer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pochhammer(0, 1, 5)
    with pytest.raises(ValueError):
        pochhammer(1, 0, 5)


def test_geometric_square_values():
    assert geometric_square(1, 4).coeffs == (0, 1, 2, 3, 4)
    assert geometric_square(3, 7).coeffs == (0, 0, 0, 1, 0, 0, 2, 0)
    assert geometric_square(5, 4) == TruncatedSeries.zero(4)
    with pytest.raises(ValueError):
        geometric_square(0, 4)


# -- ring axioms ------------------------------------------------------------------------------


def test_ring_axioms_on_random_series(seed=0xC3):
    rng = random.Random(seed)
    for _ in range(60):
        order = rng.randint(0, 32)
        a = rand_series(rng, order)
        b = rand_series(rng, order)
        c = rand_series(rng, order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- presentation and serialization -----------------------------------------------------------------


def test_format_series():
    assert format_series(jacobi_cube(10)) == "1 - 3q + 5q^3 - 7q^6 + 9q^10"
    assert format_series(TruncatedSeries.zero(5)) == "0"
    assert format_series(make_series([0, 1], 1)) == "q"


def test_json_round_trip():
    s = p3_series(40)
    assert TruncatedSeries.from_json_dict(s.to_json_dict()) == s
    assert all(isinstance(c, str) for c in s.to_json_dict()["coeffs"])


def test_truncate():
    s = make_series([1, 2, 3, 4], 3)
    assert s.truncate(1) == make_series([1, 2], 1)
    with pytest.raises(ValueError):
        s.truncate(9)
