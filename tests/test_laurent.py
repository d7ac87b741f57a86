import json
import math

import pytest
from hypothesis import given, strategies as st

from cfktools import (
    InvalidTorusParameters,
    LaurentPoly,
    alexander_torus,
    semigroup_elements,
    Staircase,
    alexander_of_staircase,
    symmetry_check,
)

from .oracles import brute_semigroup, poly_string, torus_alexander_by_division

COPRIME_PAIRS = [
    (p, q) for q in range(3, 13) for p in range(2, q) if math.gcd(p, q) == 1
]
# every pair the benchmark's torus requests draw from
PAIRS_TO_30 = [
    (p, q) for q in range(3, 31) for p in range(2, q) if math.gcd(p, q) == 1
]


def test_semigroup_examples():
    assert semigroup_elements(2, 3, 10) == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert semigroup_elements(3, 4, 12) == [0, 3, 4, 6, 7, 8, 9, 10, 11, 12]
    assert semigroup_elements(2, 3, 0) == [0]


@pytest.mark.parametrize("p,q", PAIRS_TO_30)
def test_semigroup_matches_brute_force(p, q):
    conductor = (p - 1) * (q - 1)
    bounds = {0, 1, p - 1, p, q, conductor // 2, conductor - 1, conductor,
              conductor + 5, 2 * conductor + p + q}
    for bound in sorted(bounds):
        expected = brute_semigroup(p, q, bound)
        assert semigroup_elements(p, q, bound) == expected, bound
        assert semigroup_elements(q, p, bound) == expected, bound


def test_semigroup_fill_does_not_depend_on_generator_order():
    bound = 3 * 10**5
    evens_then_all = list(range(0, 10**5 + 1, 2)) + list(range(10**5 + 1, bound + 1))
    assert semigroup_elements(2, 10**5 + 1, bound) == evens_then_all
    assert semigroup_elements(10**5 + 1, 2, bound) == evens_then_all


@pytest.mark.parametrize("p,q", [(2, 4), (4, 6), (1, 3), (0, 5), (3, 3)])
def test_semigroup_rejects_bad_parameters(p, q):
    with pytest.raises(InvalidTorusParameters):
        semigroup_elements(p, q, 10)


def test_semigroup_rejects_negative_bound():
    with pytest.raises(ValueError):
        semigroup_elements(2, 3, -1)


@pytest.mark.parametrize("p,q", COPRIME_PAIRS)
def test_conductor_and_gap_count(p, q):
    conductor = (p - 1) * (q - 1)
    members = set(semigroup_elements(p, q, conductor + 10))
    assert all(n in members for n in range(conductor, conductor + 11))
    gaps = [n for n in range(conductor) if n not in members]
    assert len(gaps) == conductor // 2


def test_alexander_examples():
    assert alexander_torus(2, 3) == LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert alexander_torus(3, 4) == LaurentPoly({-3: 1, -2: -1, 0: 1, 2: -1, 3: 1})
    assert alexander_torus(2, 5) == LaurentPoly({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})


def test_alexander_rejects_bad_parameters():
    with pytest.raises(InvalidTorusParameters):
        alexander_torus(2, 4)


@pytest.mark.parametrize("p,q", PAIRS_TO_30)
def test_alexander_against_division_oracle(p, q):
    expected = torus_alexander_by_division(p, q)
    assert [tuple(pair) for pair in alexander_torus(p, q).to_pairs()] == expected
    assert [tuple(pair) for pair in alexander_torus(q, p).to_pairs()] == expected


def test_alexander_of_a_two_strand_knot_in_both_orders():
    # T(2, 2m+1) has every exponent from -m to m, signs alternating from +1
    m = 10**5
    expected = LaurentPoly({e: (-1) ** (e + m) for e in range(-m, m + 1)})
    assert alexander_torus(2, 2 * m + 1) == expected
    assert alexander_torus(2 * m + 1, 2) == expected


@pytest.mark.parametrize("p,q", COPRIME_PAIRS)
def test_alexander_passes_symmetry_gate(p, q):
    assert symmetry_check(alexander_torus(p, q))


def test_symmetry_check_examples():
    assert symmetry_check(LaurentPoly({-1: 1, 0: -1, 1: 1}))
    assert not symmetry_check(LaurentPoly({1: 1, 0: -1}))
    assert symmetry_check(LaurentPoly({0: 1}))


def test_poly_arithmetic():
    t = LaurentPoly({1: 1})
    one = LaurentPoly({0: 1})
    p = t + t.mirrored() - one
    assert p == LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert (p * p).at_one() == 1
    assert p.shifted(2) == LaurentPoly({1: 1, 2: -1, 3: 1})
    assert (p - p) == LaurentPoly({})
    assert not (p - p)
    assert 2 * one == LaurentPoly({0: 2})


def test_poly_string_form():
    assert str(alexander_torus(3, 4)) == "t^-3 - t^-2 + 1 - t^2 + t^3"
    assert str(LaurentPoly({})) == "0"
    assert str(LaurentPoly({1: 1, 0: -1})) == "-1 + t"


_EXPONENT = st.sampled_from([-1, 0, 1]) | st.integers(-50, 50) | st.integers(-(10**30), 10**30)
_COEFFICIENT = (
    st.sampled_from([1, -1])
    | st.integers(-50, 50).filter(bool)
    | st.integers(-(10**40), 10**40).filter(bool)
)


@given(st.dictionaries(_EXPONENT, _COEFFICIENT, max_size=6))
def test_poly_string_matches_the_term_by_term_oracle(coeffs):
    assert str(LaurentPoly(coeffs)) == poly_string(coeffs)


def test_poly_json_pairs_round_trip():
    poly = alexander_torus(5, 7)
    encoded = json.dumps(poly.to_pairs())
    assert LaurentPoly.from_pairs(json.loads(encoded)) == poly
    assert json.dumps(LaurentPoly.from_pairs(json.loads(encoded)).to_pairs()) == encoded


@pytest.mark.parametrize(
    "coeffs", [{0.5: 1, 1: 2.7}, {0: 1.0}, {True: 1}, {0: False}, {"1": 1}, {0: "1"}]
)
def test_non_int_terms_are_refused_not_truncated(coeffs):
    with pytest.raises(ValueError, match="must be int"):
        LaurentPoly(coeffs)


@pytest.mark.parametrize("pairs", [[[0.5, 1]], [[0, 2.7]], [[0, True]], [[True, 1]], [["1", 1]]])
def test_non_int_pairs_are_refused_not_truncated(pairs):
    with pytest.raises(ValueError, match="must be int"):
        LaurentPoly.from_pairs(pairs)


terms = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3), max_size=6)


def _built(poly):
    """poly's stored terms, each an int and none zero, through the checked constructor."""
    pairs = poly.to_pairs()
    assert all(type(e) is int and type(c) is int and c != 0 for e, c in pairs), pairs
    return LaurentPoly(dict(pairs))


@given(terms, terms, st.integers(-5, 5))
def test_unchecked_results_equal_the_checked_constructor(a, b, k):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    total, difference, product = {}, {}, {}
    for e, c in a.items():
        total[e] = total.get(e, 0) + c
        difference[e] = difference.get(e, 0) + c
        for f, d in b.items():
            product[e + f] = product.get(e + f, 0) + c * d
    for e, c in b.items():
        total[e] = total.get(e, 0) + c
        difference[e] = difference.get(e, 0) - c
    assert _built(pa.shifted(k)) == LaurentPoly({e + k: c for e, c in a.items()})
    assert _built(pa.mirrored()) == LaurentPoly({-e: c for e, c in a.items()})
    assert _built(-pa) == LaurentPoly({e: -c for e, c in a.items()})
    assert _built(pa + pb) == LaurentPoly(total)
    assert _built(pa - pb) == LaurentPoly(difference)
    assert _built(pa * pb) == LaurentPoly(product)
    assert _built(pa * k) == _built(k * pa) == LaurentPoly({e: c * k for e, c in a.items()})
    assert _built(LaurentPoly.from_pairs(list(a.items()) + list(b.items()))) == LaurentPoly(total)


@given(st.lists(st.integers(1, 5), max_size=6))
def test_unchecked_staircase_polynomial_equals_the_checked_constructor(half):
    poly = alexander_of_staircase(Staircase(tuple(half + half[::-1])))
    assert _built(poly) == poly


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (5, 7), (29, 30), (30, 29)])
def test_unchecked_torus_polynomial_equals_the_checked_constructor(p, q):
    poly = alexander_torus(p, q)
    assert _built(poly) == poly


def test_a_float_shift_is_refused_and_bool_or_zero_factors_leave_ints():
    poly = LaurentPoly({0: 1, 1: -1})
    with pytest.raises(ValueError, match="must be int"):
        poly.shifted(0.5)
    assert _built(poly.shifted(True)) == LaurentPoly({1: 1, 2: -1})
    assert _built(poly * True) == poly
    assert _built(poly * 0) == LaurentPoly({})
