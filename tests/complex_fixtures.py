"""Hand-built box and corner complexes with optional cross arrows.

A box is the four-generator square (source; left and down targets; sink).
The three fixture layouts cover the geometries in which cross arrows occur
between two such summands: side by side at the same grading, a box one
grading step above another, and a box one step above a three-generator
corner.  Cross-arrow coefficients are toggled individually; the squared
differential vanishes only on the patterns returned by *_valid_patterns.
"""

from __future__ import annotations

import random
from itertools import product

from cfktools import (
    Arrow,
    BasisChange,
    FilteredComplex,
    Generator,
    IllegalBasisChange,
    Staircase,
    basis_change,
    build_double_complex,
    from_staircase,
    splitting_plan,
)
from cfktools.filtered import _shift_of


def _box(i0, j0, gtop, names):
    source, left, down, sink = names
    gens = [
        Generator(source, j0 - i0, gtop - 2 * i0),
        Generator(left, j0 - i0 + 1, gtop + 1 - 2 * i0),
        Generator(down, j0 - i0 - 1, gtop - 1 - 2 * i0),
        Generator(sink, j0 - i0, gtop - 2 * i0),
    ]
    arrows = [
        Arrow(source, left, 1),
        Arrow(source, down, 0),
        Arrow(left, sink, 0),
        Arrow(down, sink, 1),
    ]
    return gens, arrows


def _corner(i0, j0, gtop, names):
    source, left, down = names
    gens = [
        Generator(source, j0 - i0, gtop - 2 * i0),
        Generator(left, j0 - i0 + 1, gtop + 1 - 2 * i0),
        Generator(down, j0 - i0 - 1, gtop - 1 - 2 * i0),
    ]
    arrows = [Arrow(source, left, 1), Arrow(source, down, 0)]
    return gens, arrows


def _forced_arrow(gens, source, target):
    by_name = {g.name: g for g in gens}
    upower = (by_name[target].maslov - by_name[source].maslov + 1) // 2
    return Arrow(source, target, upower)


BOX_PAIR_LEVEL_PLAN = [["w", "x", "y", "z"], ["a", "b", "c", "d"]]
BOX_PAIR_STEP_PLAN = [["y2", "x", "z", "y1"], ["v12", "u1", "w1", "v11"]]
BOX_OVER_CORNER_PLAN = [["y", "x", "z"], ["a", "b", "c", "d"]]


def box_pair_level(A, B, C, D):
    """Two boxes at the same gradings, the second shifted up-right by one.

    Cross slots: a->x (A), a->y (B), b->z (C), c->z (D).
    """
    g1, a1 = _box(0, 0, 1, ("w", "x", "y", "z"))
    g2, a2 = _box(1, 1, 1, ("a", "b", "c", "d"))
    gens = g1 + g2
    arrows = a1 + a2
    for flag, pair in ((A, ("a", "x")), (B, ("a", "y")), (C, ("b", "z")), (D, ("c", "z"))):
        if flag:
            arrows.append(_forced_arrow(gens, *pair))
    return FilteredComplex(gens, arrows)


def box_pair_level_valid_patterns():
    return [p for p in product((0, 1), repeat=4) if sum(p) % 2 == 0]


def box_pair_step(E, F, G, H, I):
    """A box one grading step above another, shifted up-right by two.

    Cross slots: v12->y2 (E), u1->x (F), u1->z (G), w1->x (H), w1->z (I).
    """
    g1, a1 = _box(0, 0, 1, ("y2", "x", "z", "y1"))
    g2, a2 = _box(2, 2, 2, ("v12", "u1", "w1", "v11"))
    gens = g1 + g2
    arrows = a1 + a2
    for flag, pair in (
        (E, ("v12", "y2")),
        (F, ("u1", "x")),
        (G, ("u1", "z")),
        (H, ("w1", "x")),
        (I, ("w1", "z")),
    ):
        if flag:
            arrows.append(_forced_arrow(gens, *pair))
    return FilteredComplex(gens, arrows)


def box_pair_step_valid_patterns():
    return [
        (E, F, G, H, I)
        for E, F, G, H, I in product((0, 1), repeat=5)
        if F == G and H == I and E == (F + H) % 2
    ]


def box_over_corner(E, F, G, H, I):
    """A box one grading step above a three-generator corner.

    Cross slots: a->y (E), b->x (F), b->z (G), c->x (H), c->z (I).
    """
    g1, a1 = _corner(0, 0, 1, ("y", "x", "z"))
    g2, a2 = _box(2, 2, 2, ("a", "b", "c", "d"))
    gens = g1 + g2
    arrows = a1 + a2
    for flag, pair in (
        (E, ("a", "y")),
        (F, ("b", "x")),
        (G, ("b", "z")),
        (H, ("c", "x")),
        (I, ("c", "z")),
    ):
        if flag:
            arrows.append(_forced_arrow(gens, *pair))
    return FilteredComplex(gens, arrows)


def box_over_corner_valid_patterns():
    return [
        (E, F, G, H, I)
        for E, F, G, H, I in product((0, 1), repeat=5)
        if E == (F + H) % 2 and E == (G + I) % 2
    ]


def trefoil_with_mixed_box():
    """Trefoil plus a box whose sink shares s0's bigrading, then sink += s0.

    The grading-0 class has two one-term representatives, s0 and the sink
    "b3", so the canonical cycle depends on the slice's bit order.
    """
    gens, arrows = _box(0, 1, 0, ("b0", "b1", "b2", "b3"))
    trefoil = from_staircase(Staircase((1, 1)))
    complex = FilteredComplex(list(trefoil.generators) + gens, list(trefoil.arrows) + arrows)
    return basis_change(complex, BasisChange(x="s0", y="b3"))


def single_box():
    gens, arrows = _box(0, 0, 0, ("s", "l", "d", "k"))
    return FilteredComplex(gens, arrows)


# The published removal recipe for the same-level pair: which moves
# (written x-into-y) clear each nonzero coefficient pattern.
LEVEL_PAIR_MOVE_TABLE = {
    (1, 1, 0, 0): [("x", "b"), ("y", "c"), ("z", "d")],
    (1, 0, 1, 0): [("x", "b")],
    (1, 0, 0, 1): [("x", "b"), ("z", "d")],
    (0, 1, 1, 0): [("y", "c"), ("z", "d")],
    (0, 1, 0, 1): [("y", "c")],
    (0, 0, 1, 1): [("z", "d")],
    (1, 1, 1, 1): [("x", "b"), ("y", "c")],
}


def legal_moves(complex):
    """Every legal basis change x-into-y, y then x in generator order."""
    moves = []
    for y in complex.names():
        for x in complex.names():
            try:
                _shift_of(complex, BasisChange(x=x, y=y))
            except IllegalBasisChange:
                continue
            moves.append(BasisChange(x=x, y=y))
    return moves


def plan_respecting_moves(complex, plan):
    """Every legal basis change x-into-y with x in an earlier plan subset than y.

    Such moves add only cross arrows that ``remove_diagonals`` may clear.
    """
    position = {name: k for k, sub in enumerate(plan) for name in sub}
    return [move for move in legal_moves(complex) if position[move.x] < position[move.y]]


def scrambled_double(m, seed, count=10):
    """D(m) after count seeded plan-respecting basis changes."""
    clean = build_double_complex(m)
    complex = clean
    for move in random.Random(seed).sample(plan_respecting_moves(clean, splitting_plan(m)), count):
        complex = basis_change(complex, move)
    return complex
