"""Staircase models of knot complexes and their closed-form invariants.

A staircase is an even, palindromic tuple of positive step lengths.  Its
vertices are walked from the top-left corner on the vertical axis,
alternating rightward and downward steps, ending on the horizontal axis.
Corner vertices (even walk positions) carry grading 0, the in-between
generators grading +1.  The closed forms implemented here:

    tau        = height of the i = 0 vertex
    d1         = -2 * min over vertices of max(i, j)
    delta(D(K)) = -4 * min over ordered vertex pairs of max(i+k, j+l)

The delta minimum takes O(V) for V vertices, not O(V^2).  For any pair,
max(a.i+b.i, a.j+b.j) >= ((a.i+a.j) + (b.i+b.j)) / 2 >= min over vertices
of (i + j).  A palindromic step vector gives a walk that is symmetric under
(i, j) -> (j, i), so every vertex a has a mirror b = (a.j, a.i), and that
pair attains a.i + a.j.  Hence delta(D(K)) = -4 * min over vertices of
(i + j).  (Bisecting on i - j, which strictly increases along the walk,
finds the same partner: the bisection lands exactly on the mirror.)

Each Staircase keeps one list, its walk's i coordinates: the running sums
of the step vector with its downward steps set to 0.  Since the vector is
palindromic, the j coordinates are the same list read backwards.  tau, d1
and delta(D(K)) read these two lists in place, and vertices() builds a
fresh list of Vertex from them on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from operator import add, neg, sub
from typing import NamedTuple

from .errors import NotLSpaceForm
from .laurent import LaurentPoly


class Vertex(NamedTuple):
    i: int
    j: int
    gr: int


# builds a Vertex from an (i, j, gr) tuple in C, without the namedtuple's __new__
_vertex = partial(tuple.__new__, Vertex)


@dataclass(frozen=True)
class Staircase:
    steps: tuple[int, ...] = ()

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not {int}.issuperset(map(type, steps)):
            raise ValueError(f"staircase step lengths must be int, got {steps!r}")
        if len(steps) % 2:
            raise ValueError("staircase step vector must have even length")
        if steps and min(steps) <= 0:
            raise ValueError("staircase step lengths must be positive")
        if steps != steps[::-1]:
            raise ValueError("staircase step vector must be palindromic")

    def __str__(self) -> str:
        return "St(" + ",".join(str(v) for v in self.steps) + ")"

    # the cached values live in the instance __dict__, outside the fields
    # that eq and hash read

    @cached_property
    def _across(self) -> list[int]:
        """The i coordinate of each vertex, in walk order."""
        rightward = list(self.steps)
        rightward[1::2] = [0] * (len(rightward) // 2)
        return list(accumulate(rightward, initial=0))


def vertices(stair: Staircase) -> list[Vertex]:
    """Walk coordinates with gradings, from (0, tau) down to (tau, 0).

    Returns a new list on every call, built from the cached i coordinates.
    """
    across = stair._across
    grades = [0, 1] * (len(stair.steps) // 2) + [0]
    return list(map(_vertex, zip(across, reversed(across), grades)))


def tau(stair: Staircase) -> int:
    """Height of the i = 0 vertex: the walk starts there, and its j is the last i."""
    return stair._across[-1]


def d1_closed_form(stair: Staircase) -> int:
    across = stair._across
    return -2 * min(map(max, across, reversed(across)))


def delta_whitehead(stair: Staircase) -> int:
    """-4 * min over ordered vertex pairs of max(i+k, j+l), as -4 * min(i + j)."""
    across = stair._across
    return -4 * min(map(add, across, reversed(across)))


def alexander_of_staircase(stair: Staircase) -> LaurentPoly:
    """Alternating-sign polynomial read off the vertex bidegrees.

    j - i falls strictly along the walk, so no two vertices share an exponent.
    """
    across = stair._across
    exponents = map(sub, reversed(across), across)
    signs = [1, -1] * (len(stair.steps) // 2) + [1]
    return LaurentPoly._trusted(dict(zip(exponents, signs)))


def _first_difference(a: list[int], b: list[int]) -> int:
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), len(a))


def staircase_from_alexander(poly: LaurentPoly) -> Staircase:
    """Steps between consecutive exponents of an alternating +-1 polynomial."""
    exponents, coefficients = poly.sorted_terms()
    if len(exponents) % 2 == 0:
        raise NotLSpaceForm(f"expected an odd number of terms, got {poly}")
    signs = [1, -1] * (len(exponents) // 2) + [1]
    mirror = list(map(neg, reversed(exponents)))
    if coefficients != signs or exponents != mirror:
        # the first term that breaks a rule names it, the sign rule first
        if _first_difference(coefficients, signs) <= _first_difference(exponents, mirror):
            raise NotLSpaceForm(
                f"coefficients must alternate +-1 from +1 upward, got {poly}"
            )
        raise NotLSpaceForm(f"exponents must be symmetric about 0, got {poly}")
    return Staircase(tuple(map(sub, exponents[1:], exponents)))
