"""Exact Laurent-polynomial arithmetic and numerical semigroups.

Polynomials are single-variable with arbitrary-precision integer
coefficients, stored sparsely as {exponent: coefficient}.  The module also
enumerates the numerical semigroup generated by two coprime integers, which
is how symmetrized Alexander-Conway polynomials of torus knots are built:

    unsymmetrized(t) = (1 - t) * sum_{s in S, s < c} t^s + t^c,

with S the semigroup of (p, q) and c = (p-1)(q-1) its conductor, then
recentered by t^(-c/2).  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import InvalidTorusParameters


def _check_ints(exponent, coefficient) -> None:
    """Both must be exactly int: no bool, float or string is truncated."""
    if type(exponent) is not int or type(coefficient) is not int:
        raise ValueError(
            f"Laurent polynomial terms must be int, got {exponent!r}: {coefficient!r}"
        )


class LaurentPoly:
    """Immutable integer Laurent polynomial in one variable t."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                _check_ints(e, c)
                if c:
                    data[e] = c
        self._coeffs = data

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "LaurentPoly":
        out: dict[int, int] = {}
        for e, c in pairs:
            _check_ints(e, c)
            out[e] = out.get(e, 0) + c
        return cls(out)

    def to_pairs(self) -> list[list[int]]:
        """JSON form: sorted [exponent, coefficient] pairs."""
        return [[e, self._coeffs[e]] for e in sorted(self._coeffs)]

    def __getitem__(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def mirrored(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def at_one(self) -> int:
        return sum(self._coeffs.values())

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            if e == 0:
                mon = ""
            elif e == 1:
                mon = "t"
            else:
                mon = f"t^{e}"
            if mon:
                body = mon if abs(c) == 1 else f"{abs(c)}{mon}"
            else:
                body = str(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__


ONE = LaurentPoly({0: 1})


def _check_torus_parameters(p: int, q: int) -> None:
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise InvalidTorusParameters(
            f"p,q must be coprime integers >= 2 (got p={p}, q={q})"
        )


def semigroup_elements(p: int, q: int, bound: int) -> list[int]:
    """Members of {a*p + b*q : a, b >= 0} up to and including bound."""
    _check_torus_parameters(p, q)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    member = [False] * (bound + 1)
    member[0] = True
    for n in range(bound + 1):
        if member[n]:
            if n + p <= bound:
                member[n + p] = True
            if n + q <= bound:
                member[n + q] = True
    return [n for n, ok in enumerate(member) if ok]


def alexander_torus(p: int, q: int) -> LaurentPoly:
    """Symmetrized Alexander-Conway polynomial of the (p, q) torus knot."""
    _check_torus_parameters(p, q)
    conductor = (p - 1) * (q - 1)
    coeffs: dict[int, int] = {conductor: 1}
    for s in semigroup_elements(p, q, conductor - 1):
        coeffs[s] = coeffs.get(s, 0) + 1
        coeffs[s + 1] = coeffs.get(s + 1, 0) - 1
    return LaurentPoly(coeffs).shifted(-(conductor // 2))


def symmetry_check(poly: LaurentPoly) -> bool:
    """Sanity gate for Alexander inputs: P(t) = P(1/t) and P(1) = +-1."""
    return poly.mirrored() == poly and poly.at_one() in (1, -1)
