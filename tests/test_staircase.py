import math

import pytest
from hypothesis import given, strategies as st

from cfktools import (
    LaurentPoly,
    NotLSpaceForm,
    Staircase,
    Vertex,
    alexander_of_staircase,
    alexander_torus,
    d1_closed_form,
    delta_whitehead,
    staircase_from_alexander,
    tau,
    vertices,
)

from .oracles import reference_delta_whitehead

UNKNOT = Staircase(())
TREFOIL = Staircase((1, 1))
T25 = Staircase((1, 1, 1, 1))
T34 = Staircase((1, 2, 2, 1))

palindromes = st.lists(st.integers(1, 5), min_size=1, max_size=6).map(
    lambda half: Staircase(tuple(half + half[::-1]))
)


@pytest.mark.parametrize(
    "steps", [(1,), (1, 2), (0, 0), (-1, -1), (1, 2, 1, 1)]
)
def test_invalid_step_vectors(steps):
    with pytest.raises(ValueError):
        Staircase(steps)


@pytest.mark.parametrize("steps", [(1.5, 1.5), ("1", "1"), (True, True), (1, 1.0)])
def test_non_int_steps_are_refused_not_truncated(steps):
    with pytest.raises(ValueError, match="must be int"):
        Staircase(steps)


def test_from_alexander_examples():
    assert staircase_from_alexander(alexander_torus(2, 5)) == T25
    assert staircase_from_alexander(alexander_torus(3, 4)) == T34
    assert staircase_from_alexander(LaurentPoly({0: 1})) == UNKNOT


@pytest.mark.parametrize(
    "coeffs",
    [
        {-1: 1, 0: -2, 1: 1},  # coefficient not a unit
        {-1: 1, 0: 1, 1: 1},  # wrong alternation
        {-1: 1, 0: -1},  # even number of terms
        {0: -1},  # top coefficient not +1
        {0: 1, 1: -1, 2: 1},  # exponents not symmetric
        {},
    ],
)
def test_from_alexander_rejects_non_staircase_forms(coeffs):
    with pytest.raises(NotLSpaceForm):
        staircase_from_alexander(LaurentPoly(coeffs))


def test_vertices_examples():
    assert [(v.i, v.j) for v in vertices(T34)] == [
        (0, 3),
        (1, 3),
        (1, 1),
        (3, 1),
        (3, 0),
    ]
    assert [v.gr for v in vertices(T34)] == [0, 1, 0, 1, 0]
    assert [(v.i, v.j, v.gr) for v in vertices(TREFOIL)] == [
        (0, 1, 0),
        (1, 1, 1),
        (1, 0, 0),
    ]
    assert [(v.i, v.j, v.gr) for v in vertices(UNKNOT)] == [(0, 0, 0)]


def test_tau_examples():
    assert tau(TREFOIL) == 1
    assert tau(T34) == 3
    assert tau(UNKNOT) == 0


def test_d1_closed_form_examples():
    assert d1_closed_form(TREFOIL) == -2
    assert d1_closed_form(T34) == -2
    assert d1_closed_form(UNKNOT) == 0


def test_delta_whitehead_examples():
    assert delta_whitehead(T25) == -8
    assert delta_whitehead(T34) == -8
    assert delta_whitehead(UNKNOT) == 0


@given(palindromes)
def test_delta_whitehead_matches_pair_loop(stair):
    assert delta_whitehead(stair) == reference_delta_whitehead(stair)


@pytest.mark.parametrize("q", range(3, 31))
def test_delta_whitehead_matches_pair_loop_on_torus_knots(q):
    for p in range(2, q):
        if math.gcd(p, q) == 1:
            stair = staircase_from_alexander(alexander_torus(p, q))
            assert delta_whitehead(stair) == reference_delta_whitehead(stair), (p, q)


def test_vertices_returns_a_fresh_list():
    stair = Staircase((1, 2, 2, 1))
    walk = [(0, 3, 0), (1, 3, 1), (1, 1, 0), (3, 1, 1), (3, 0, 0)]
    first = vertices(stair)
    first.reverse()
    first.append(Vertex(9, 9, 9))
    assert vertices(stair) == walk
    assert vertices(stair) is not vertices(stair)

    twin = Staircase((1, 2, 2, 1))
    assert vars(stair) != vars(twin)  # only stair has walked
    assert stair == twin and hash(stair) == hash(twin)
    assert repr(stair) == repr(twin) == "Staircase(steps=(1, 2, 2, 1))"
    assert len({stair, twin}) == 1


def test_alexander_of_staircase_examples():
    assert alexander_of_staircase(TREFOIL) == LaurentPoly({-1: 1, 0: -1, 1: 1})
    assert alexander_of_staircase(T34) == alexander_torus(3, 4)
    assert alexander_of_staircase(UNKNOT) == LaurentPoly({0: 1})


@given(palindromes)
def test_round_trip(stair):
    assert staircase_from_alexander(alexander_of_staircase(stair)) == stair


@given(palindromes)
def test_vertex_set_symmetric_under_swap(stair):
    coords = {(v.i, v.j) for v in vertices(stair)}
    assert coords == {(j, i) for i, j in coords}


@given(palindromes)
def test_delta_whitehead_nonpositive_multiple_of_four(stair):
    delta = delta_whitehead(stair)
    assert delta <= 0
    assert delta % 4 == 0


@given(palindromes)
def test_d1_closed_form_even_nonpositive(stair):
    value = d1_closed_form(stair)
    assert value <= 0
    assert value % 2 == 0


@given(palindromes)
def test_d1_minimum_attained_at_corner(stair):
    vs = vertices(stair)
    best = min(max(v.i, v.j) for v in vs)
    assert any(max(v.i, v.j) == best and v.gr == 0 for v in vs)


def test_two_strand_family_delta_is_minus_four_tau():
    for m in range(1, 11):
        stair = Staircase((1,) * (2 * m))
        assert delta_whitehead(stair) == -4 * tau(stair) == -4 * m


@given(palindromes)
def test_d1_zero_only_for_unknot(stair):
    assert d1_closed_form(stair) <= -2


def test_d1_zero_at_unknot():
    assert d1_closed_form(UNKNOT) == 0
    assert (0, 0) in {(v.i, v.j) for v in vertices(UNKNOT)}
