"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks the criterion failed.
"""

import itertools
import json
import math
import random

from cfktools import (
    BasisChange,
    Staircase,
    alexander_of_staircase,
    alexander_torus,
    basis_change,
    build_double_complex,
    classify_iterates,
    complex_from_json_dict,
    d1_closed_form,
    d1_general,
    delta_double_double,
    delta_whitehead,
    from_staircase,
    remove_diagonals,
    staircase_from_alexander,
    tau,
    tensor,
    to_json_dict,
    validate,
    verify_splitting,
    vertices,
)
from cfktools.doubles import DISTINGUISHABLE, INCONCLUSIVE, SPECIAL_CASE
from cfktools.errors import IllegalBasisChange
from cfktools.filtered import _shift_of

from .complex_fixtures import (
    BOX_OVER_CORNER_PLAN,
    BOX_PAIR_LEVEL_PLAN,
    BOX_PAIR_STEP_PLAN,
    LEVEL_PAIR_MOVE_TABLE,
    box_over_corner,
    box_over_corner_valid_patterns,
    box_pair_level,
    box_pair_level_valid_patterns,
    box_pair_step,
    box_pair_step_valid_patterns,
)
from .oracles import torus_alexander_by_division


def _pass(number, text):
    print(f"[acceptance] criterion {number:>2}: PASS - {text}")


def test_criterion_01_two_strand_whitehead_delta():
    for m in range(1, 11):
        assert delta_whitehead(Staircase((1,) * (2 * m))) == -4 * m
    _pass(1, "delta(D(T(2,2m+1))) = -4m for m = 1..10")


def test_criterion_02_t34_delta_and_vertices():
    stair = Staircase((1, 2, 2, 1))
    assert delta_whitehead(stair) == -8
    assert [(v.i, v.j) for v in vertices(stair)] == [
        (0, 3),
        (1, 3),
        (1, 1),
        (3, 1),
        (3, 0),
    ]
    _pass(2, "delta(D(T(3,4))) = -8 with the stated vertex set")


def test_criterion_03_tau_of_torus_knots():
    checked = 0
    for q in range(3, 13):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            stair = staircase_from_alexander(alexander_torus(p, q))
            assert tau(stair) == (p - 1) * (q - 1) // 2
            checked += 1
    assert checked == 34
    _pass(3, f"tau(T(p,q)) = (p-1)(q-1)/2 on {checked} knots with p<q<=12")


def test_criterion_04_tensor_square_of_trefoil():
    trefoil = from_staircase(Staircase((1, 1)))
    value = d1_general(tensor(trefoil, trefoil))
    assert value == -2
    assert value == delta_whitehead(Staircase((1, 1))) // 2
    _pass(4, "d1 of the trefoil tensor square is -2, half the double's delta")


def test_criterion_05_surgery_formula_oracle_equivalence():
    checked = 0
    for q in range(3, 11):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            stair = staircase_from_alexander(alexander_torus(p, q))
            assert d1_general(from_staircase(stair)) == d1_closed_form(stair)
            checked += 1
    _pass(5, f"search route equals closed form on {checked} torus staircases, p<q<=10")


def test_criterion_06_alexander_against_division_oracle():
    checked = 0
    for q in range(3, 13):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            pairs = [tuple(x) for x in alexander_torus(p, q).to_pairs()]
            assert pairs == torus_alexander_by_division(p, q)
            checked += 1
    _pass(6, f"semigroup construction equals polynomial division on {checked} knots")


def test_criterion_07_double_complex_splitting():
    for m in range(1, 5):
        complex = build_double_complex(m)
        assert validate(complex) is None
        report = verify_splitting(complex)
        assert report.trefoil_summand and report.acyclic_rest
        assert sorted(report.component_sizes) == [3] + [4] * (4 * m - 1)
    _pass(7, "doubles split as one 3-generator staircase plus 4m-1 acyclic boxes, m = 1..4")


def test_criterion_08_second_iterate_delta():
    for m in range(1, 4):
        assert delta_double_double(m, via="both") == -4
        double = build_double_complex(m)
        assert delta_double_double(m, via="splitting") == 2 * d1_general(tensor(double, double))
    _pass(8, "delta(D^2) = -4 for m = 1..3, both routes agreeing")


def test_criterion_09_cross_arrow_elimination_suite():
    # published 4-coefficient patterns on the same-level pair, via the
    # published moves and via the solver
    patterns = box_pair_level_valid_patterns()
    assert len(patterns) == 8  # zero pattern plus the seven nonzero ones
    position = {n: k for k, sub in enumerate(BOX_PAIR_LEVEL_PLAN) for n in sub}
    for pattern in patterns:
        cleaned = remove_diagonals(box_pair_level(*pattern), BOX_PAIR_LEVEL_PLAN)
        assert validate(cleaned) is None
        assert all(position[a.source] == position[a.target] for a in cleaned.arrows)
    for pattern, moves in LEVEL_PAIR_MOVE_TABLE.items():
        c = box_pair_level(*pattern)
        for x, y in moves:
            c = basis_change(c, BasisChange(x=x, y=y))
        assert all(position[a.source] == position[a.target] for a in c.arrows)
    # derived analogues
    for pattern in box_pair_step_valid_patterns():
        cleaned = remove_diagonals(box_pair_step(*pattern), BOX_PAIR_STEP_PLAN)
        assert validate(cleaned) is None
    for pattern in box_over_corner_valid_patterns():
        cleaned = remove_diagonals(box_over_corner(*pattern), BOX_OVER_CORNER_PLAN)
        assert validate(cleaned) is None
    # parity-violating patterns fail validation
    for pattern in itertools.product((0, 1), repeat=4):
        if pattern not in patterns:
            report = validate(box_pair_level(*pattern))
            assert report is not None and report.startswith("d-squared")
    # d1 is blind to every legal basis change
    complex = build_double_complex(1)
    base = d1_general(complex)
    moves_checked = 0
    for x in complex.names():
        for y in complex.names():
            if x == y:
                continue
            try:
                _shift_of(complex, BasisChange(x=x, y=y))
            except IllegalBasisChange:
                continue
            assert d1_general(basis_change(complex, BasisChange(x=x, y=y))) == base
            moves_checked += 1
    assert moves_checked > 0
    _pass(9, f"elimination suite: 8+4+8 patterns cleared, d1 stable under {moves_checked} moves")


def test_criterion_10_property_suite():
    rng = random.Random(20260811)
    for _ in range(200):
        half = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
        stair = Staircase(tuple(half + half[::-1]))
        delta = delta_whitehead(stair)
        assert delta <= 0 and delta % 4 == 0
        coords = {(v.i, v.j) for v in vertices(stair)}
        assert coords == {(j, i) for i, j in coords}
        assert staircase_from_alexander(alexander_of_staircase(stair)) == stair
        complex = from_staircase(stair)
        blob = json.dumps(to_json_dict(complex), sort_keys=True)
        back = complex_from_json_dict(json.loads(blob))
        assert back == complex
        assert json.dumps(to_json_dict(back), sort_keys=True) == blob
    _pass(10, "200 random palindromic staircases: sign, symmetry, round trips")


def test_criterion_11_classification_verdicts():
    assert classify_iterates(Staircase((1,) * 6)).verdict == DISTINGUISHABLE
    assert classify_iterates(Staircase((1,) * 8)).verdict == DISTINGUISHABLE
    assert classify_iterates(Staircase((1, 1, 1, 1))).verdict == SPECIAL_CASE
    assert classify_iterates(Staircase((1, 1))).verdict == INCONCLUSIVE
    assert classify_iterates(Staircase((1, 2, 2, 1))).verdict == INCONCLUSIVE
    report = classify_iterates(Staircase((1, 1, 1, 1)))
    assert report.psi == ((1, -2), (1, -1)) and report.summand_certificate is True
    _pass(11, "verdicts match for T(2,7)+, T(2,5), T(2,3), T(3,4)")
