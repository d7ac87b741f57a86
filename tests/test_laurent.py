import json
import math

import pytest

from cfktools import (
    InvalidTorusParameters,
    LaurentPoly,
    alexander_torus,
    semigroup_elements,
    symmetry_check,
)

from .oracles import brute_semigroup, torus_alexander_by_division

COPRIME_PAIRS = [
    (p, q) for q in range(3, 13) for p in range(2, q) if math.gcd(p, q) == 1
]


def test_semigroup_examples():
    assert semigroup_elements(2, 3, 10) == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert semigroup_elements(3, 4, 12) == [0, 3, 4, 6, 7, 8, 9, 10, 11, 12]
    assert semigroup_elements(2, 3, 0) == [0]


@pytest.mark.parametrize("p,q", COPRIME_PAIRS)
def test_semigroup_matches_brute_force(p, q):
    bound = (p - 1) * (q - 1) + 5
    assert semigroup_elements(p, q, bound) == brute_semigroup(p, q, bound)


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


@pytest.mark.parametrize("p,q", COPRIME_PAIRS)
def test_alexander_against_division_oracle(p, q):
    assert [tuple(pair) for pair in alexander_torus(p, q).to_pairs()] == (
        torus_alexander_by_division(p, q)
    )


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
