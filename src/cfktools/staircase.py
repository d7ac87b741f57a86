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

Each Staircase walks its vertices once and keeps them as a tuple;
vertices() hands out a fresh list copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import NotLSpaceForm
from .laurent import LaurentPoly


class Vertex(NamedTuple):
    i: int
    j: int
    gr: int


@dataclass(frozen=True)
class Staircase:
    steps: tuple[int, ...] = ()

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if any(type(v) is not int for v in steps):
            raise ValueError(f"staircase step lengths must be int, got {steps!r}")
        if len(steps) % 2:
            raise ValueError("staircase step vector must have even length")
        if any(v <= 0 for v in steps):
            raise ValueError("staircase step lengths must be positive")
        if steps != steps[::-1]:
            raise ValueError("staircase step vector must be palindromic")

    def __str__(self) -> str:
        return "St(" + ",".join(str(v) for v in self.steps) + ")"

    @cached_property
    def _walk(self) -> tuple[Vertex, ...]:
        # kept in the instance __dict__, outside the fields that eq and hash read
        i, j = 0, sum(self.steps[1::2])
        out = [Vertex(i, j, 0)]
        for pos, step in enumerate(self.steps):
            if pos % 2 == 0:
                i += step
            else:
                j -= step
            out.append(Vertex(i, j, (pos + 1) % 2))
        assert j == 0 and i == sum(self.steps[0::2])
        return tuple(out)


def vertices(stair: Staircase) -> list[Vertex]:
    """Walk coordinates with gradings, from (0, tau) down to (tau, 0).

    Returns a new list on every call; the walk itself is computed once per
    staircase.
    """
    return list(stair._walk)


def tau(stair: Staircase) -> int:
    (height,) = [v.j for v in vertices(stair) if v.i == 0]
    return height


def d1_closed_form(stair: Staircase) -> int:
    return -2 * min(max(v.i, v.j) for v in vertices(stair))


def delta_whitehead(stair: Staircase) -> int:
    """-4 * min over ordered vertex pairs of max(i+k, j+l), as -4 * min(i + j)."""
    return -4 * min(v.i + v.j for v in vertices(stair))


def tensor_vertex_multiset(s1: Staircase, s2: Staircase) -> list[Vertex]:
    """Pairwise coordinate sums with summed gradings."""
    second = vertices(s2)
    return [Vertex(a.i + b.i, a.j + b.j, a.gr + b.gr) for a in vertices(s1) for b in second]


def alexander_of_staircase(stair: Staircase) -> LaurentPoly:
    """Alternating-sign polynomial read off the vertex bidegrees."""
    coeffs: dict[int, int] = {}
    for v in vertices(stair):
        coeffs[v.j - v.i] = 1 if v.gr % 2 == 0 else -1
    return LaurentPoly(coeffs)


def staircase_from_alexander(poly: LaurentPoly) -> Staircase:
    """Steps between consecutive exponents of an alternating +-1 polynomial."""
    exponents = poly.support()
    if not exponents or len(exponents) % 2 == 0:
        raise NotLSpaceForm(f"expected an odd number of terms, got {poly}")
    for k, e in enumerate(exponents):
        expected = 1 if k % 2 == 0 else -1
        if poly[e] != expected:
            raise NotLSpaceForm(
                f"coefficients must alternate +-1 from +1 upward, got {poly}"
            )
        if e + exponents[len(exponents) - 1 - k] != 0:
            raise NotLSpaceForm(f"exponents must be symmetric about 0, got {poly}")
    steps = tuple(b - a for a, b in zip(exponents, exponents[1:]))
    return Staircase(steps)
