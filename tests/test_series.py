"""Series-core contract: exact coefficients, the product at the smaller
order, unit inverses, and the commutative and associative product on seeded
random inputs; also the product-form reference the theta generators are
checked against."""

import random

import pytest

import oracles
from oracles import as_series
from macmahon.series import TruncatedSeries, format_series, geometric_square
from macmahon.partitions import jacobi_cube, p3_series, theta_square


def rand_series(rng, order, unit=False):
    coeffs = [rng.randint(-9, 9) for _ in range(order + 1)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return as_series(coeffs, order)


# -- construction ----------------------------------------------------------------


def test_coefficient_accessor_bounds():
    s = as_series([5, 6], 1)
    assert s.coefficient(1) == 6
    with pytest.raises(IndexError):
        s.coefficient(2)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_truncation_order_is_a_non_negative_int():
    # a bool order would pass as 1 or 0 and serialize as true or false, and
    # a float one as 1.0
    for order, coeffs in ((True, (1, 0)), (False, (1,)), (1.0, (1, 2))):
        with pytest.raises(TypeError, match="truncation order must be an int, not (bool|float)"):
            TruncatedSeries(coeffs, order)
    with pytest.raises(ValueError, match="truncation order must be non-negative"):
        TruncatedSeries((), -1)
    assert TruncatedSeries((1, 0), 1).to_json_dict()["truncation"] == 1


def test_coefficient_count_must_match_the_order():
    with pytest.raises(ValueError, match="need exactly 1 coefficients, got 2"):
        TruncatedSeries((1, 2), 0)


# -- mul ----------------------------------------------------------------------------


def test_mul_geometric_telescope():
    a = as_series([1, -1], 3)
    b = as_series([1, 1, 1, 1], 3)
    assert a * b == TruncatedSeries.one(3)


def test_mul_square():
    a = as_series([1, 1], 2)
    assert a * a == as_series([1, 2, 1], 2)


def test_mul_inverse_pair_from_theta_cube():
    assert jacobi_cube(10) * p3_series(10) == TruncatedSeries.one(10)


def test_mul_min_order_propagation():
    a = as_series([1, 2, 3], 2)
    b = as_series([1, 1], 9)
    assert (a * b).truncation_order == 2


def test_mul_by_a_non_series_is_a_type_error():
    one = TruncatedSeries.one(3)
    assert one.__mul__(3) is NotImplemented
    with pytest.raises(TypeError):
        one * 3


# -- invert ----------------------------------------------------------------------------


def test_invert_geometric():
    assert as_series([1, -1], 3).invert() == as_series([1, 1, 1, 1], 3)


def test_invert_theta_square_gives_overpartition_counts():
    assert theta_square(5).invert().coeffs == (1, 2, 4, 8, 14, 24)


def test_invert_is_involution():
    a = as_series([1, -1, -1], 4)
    assert a.invert().invert() == a


def test_invert_negative_unit():
    a = as_series([-1, 2, 5], 6)
    assert a * a.invert() == TruncatedSeries.one(6)


def test_invert_rejects_non_unit():
    with pytest.raises(ValueError):
        as_series([2, 1], 3).invert()
    with pytest.raises(ValueError):
        TruncatedSeries.zero(3).invert()


def test_invert_property_random_units(seed=0x51):
    rng = random.Random(seed)
    for _ in range(40):
        order = rng.randint(0, 32)
        a = rand_series(rng, order, unit=True)
        assert a * a.invert() == TruncatedSeries.one(order)


# -- valuation floors -------------------------------------------------------------------


def test_valuation_of_family_members():
    from macmahon.families import compute_A_family

    for k, order, floor in ((2, 10, 3), (5, 20, 15)):
        coeffs = compute_A_family(k, order).members[k].coeffs
        assert not any(coeffs[:floor]) and coeffs[floor], k


def test_shift_matches_family_leading_term():
    # lifting the constant member by k(k+1)/2 reproduces member k's first term
    from macmahon.families import compute_A_family

    fam = compute_A_family(3, 10)
    lifted = fam.members[0] * as_series([0] * 6 + [1], 10)
    assert not any(lifted.coeffs[:6]) and not any(fam.members[3].coeffs[:6])
    assert fam.members[3].coeffs[6] == lifted.coeffs[6] == 1


# -- the product-form reference and geometric_square ----------------------------------------


def test_pochhammer_single_variable():
    assert oracles.pochhammer(1, 1, 4) == [1, -1, -1, 0, 0]


def test_pochhammer_even_exponents():
    assert oracles.pochhammer(2, 2, 3) == [1, 0, -1, 0]


def test_pochhammer_order_zero():
    assert oracles.pochhammer(1, 1, 0) == [1]


def test_pochhammer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracles.pochhammer(0, 1, 5)
    with pytest.raises(ValueError):
        oracles.pochhammer(1, 0, 5)


def test_geometric_square_values():
    assert geometric_square(1, 4).coeffs == (0, 1, 2, 3, 4)
    assert geometric_square(3, 7).coeffs == (0, 0, 0, 1, 0, 0, 2, 0)
    assert geometric_square(5, 4) == TruncatedSeries.zero(4)
    with pytest.raises(ValueError):
        geometric_square(0, 4)


# -- product axioms ------------------------------------------------------------------------------


def test_ring_axioms_on_random_series(seed=0xC3):
    rng = random.Random(seed)
    for _ in range(60):
        order = rng.randint(0, 32)
        a = rand_series(rng, order)
        b = rand_series(rng, order)
        c = rand_series(rng, order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


# -- presentation and serialization -----------------------------------------------------------------


def test_format_series():
    assert format_series(jacobi_cube(10)) == "1 - 3q + 5q^3 - 7q^6 + 9q^10"
    assert format_series(TruncatedSeries.zero(5)) == "0"
    assert format_series(as_series([0, 1], 1)) == "q"
    # repr shows six terms, then cuts the rest
    assert repr(p3_series(20)) == (
        "TruncatedSeries('1 + 3q + 9q^2 + 22q^3 + 51q^4 + 108q^5 + ...', order=20)"
    )


def test_json_round_trip():
    s = p3_series(40)
    obj = s.to_json_dict()
    assert TruncatedSeries(tuple(int(c) for c in obj["coeffs"]), obj["truncation"]) == s
    assert all(isinstance(c, str) for c in obj["coeffs"])


def test_truncate():
    s = as_series([1, 2, 3, 4], 3)
    assert s.truncate(1) == as_series([1, 2], 1)
    with pytest.raises(ValueError):
        s.truncate(9)
