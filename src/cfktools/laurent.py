"""Exact Laurent-polynomial arithmetic and numerical semigroups.

Polynomials are single-variable with arbitrary-precision integer
coefficients, stored sparsely as {exponent: coefficient}.  The module also
enumerates the numerical semigroup generated by two coprime integers, which
is how symmetrized Alexander-Conway polynomials of torus knots are built:

    unsymmetrized(t) = (1 - t) * sum_{s in S, s < c} t^s + t^c,

with S the semigroup of (p, q) and c = (p-1)(q-1) its conductor, then
recentered by t^(-c/2).  No floating point is used anywhere.

Membership in S up to a bound is one bytearray of flags.  With a < b the
generators, the least member in each residue class mod a is a multiple
m*b with m < a, and every later number of that class is a member too; so a
strided slice assignment from each m*b fills the flags, at most a of them
however large b is.  Expanding the product above, the coefficient of t^n
is flag(n) - flag(n - 1): +1 where a run of members starts, -1 where a run
of gaps starts, and one XOR of the flags with themselves shifted by one
byte finds every such n at once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import compress, cycle

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
    def _trusted(cls, data: dict[int, int]) -> "LaurentPoly":
        """Wrap data unchecked: its terms are ints and none is zero."""
        poly = object.__new__(cls)
        poly._coeffs = data
        return poly

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "LaurentPoly":
        out: dict[int, int] = {}
        for e, c in pairs:
            _check_ints(e, c)
            out[e] = out.get(e, 0) + c
        return cls._trusted({e: c for e, c in out.items() if c})

    def to_pairs(self) -> list[list[int]]:
        """JSON form: sorted [exponent, coefficient] pairs."""
        return [[e, self._coeffs[e]] for e in sorted(self._coeffs)]

    def sorted_terms(self) -> tuple[list[int], list[int]]:
        """The exponents in ascending order, and their coefficients."""
        exponents = sorted(self._coeffs)
        return exponents, list(map(self._coeffs.__getitem__, exponents))

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
        return LaurentPoly._trusted({e: c for e, c in out.items() if c})

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = int(other)  # a bool or other int subclass scales as a plain int
            if not other:
                return LaurentPoly._trusted({})
            return LaurentPoly._trusted({e: c * other for e, c in self._coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._trusted({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        moved = {e + k: c for e, c in self._coeffs.items()}
        # any k but an int takes the checked path, which refuses a non-int exponent
        return LaurentPoly._trusted(moved) if type(k) is int else LaurentPoly(moved)

    def mirrored(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly._trusted({-e: c for e, c in self._coeffs.items()})

    def at_one(self) -> int:
        return sum(self._coeffs.values())

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        # every term as "+ body" or "- body", a unit coefficient and the
        # exponents 0 and 1 left unwritten; the first term then drops its "+ "
        text = " ".join([
            (f"+ t^{e}" if c == 1 else f"- t^{e}" if c == -1
             else f"+ {c}t^{e}" if c > 0 else f"- {-c}t^{e}")
            if e not in (0, 1) else (f"+ {c}" if c > 0 else f"- {-c}") if e == 0
            else ("+ t" if c == 1 else "- t" if c == -1 else f"+ {c}t" if c > 0 else f"- {-c}t")
            for e, c in sorted(self._coeffs.items())
        ])
        return text[2:] if text[0] == "+" else "-" + text[2:]

    __repr__ = __str__


def _check_torus_parameters(p: int, q: int) -> None:
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise InvalidTorusParameters(
            f"p,q must be coprime integers >= 2 (got p={p}, q={q})"
        )


def _semigroup_flags(p: int, q: int, bound: int) -> bytearray:
    """flags[n] is 1 exactly when n <= bound is in the semigroup of (p, q)."""
    small, large = sorted((p, q))
    flags = bytearray(bound + 1)
    ones = memoryview(b"\x01" * (bound // small + 1))
    for start in range(0, min(small * large, bound + 1), large):
        flags[start::small] = ones[: (bound - start) // small + 1]
    return flags


def semigroup_elements(p: int, q: int, bound: int) -> list[int]:
    """Members of {a*p + b*q : a, b >= 0} up to and including bound."""
    _check_torus_parameters(p, q)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return list(compress(range(bound + 1), _semigroup_flags(p, q, bound)))


def alexander_torus(p: int, q: int) -> LaurentPoly:
    """Symmetrized Alexander-Conway polynomial of the (p, q) torus knot."""
    _check_torus_parameters(p, q)
    conductor = (p - 1) * (q - 1)
    flags = int.from_bytes(_semigroup_flags(p, q, conductor), "little")
    # byte n of edges is nonzero where flag(n) != flag(n - 1), where a run of
    # members or of gaps starts; byte c + 1 ends the last run and lies past the range
    edges = (flags ^ (flags << 8)).to_bytes(conductor + 2, "little")
    half = conductor // 2
    exponents = compress(range(-half, conductor + 1 - half), edges)
    return LaurentPoly._trusted(dict(zip(exponents, cycle((1, -1)))))


def symmetry_check(poly: LaurentPoly) -> bool:
    """Sanity gate for Alexander inputs: P(t) = P(1/t) and P(1) = +-1."""
    return poly.mirrored() == poly and poly.at_one() in (1, -1)
