"""Doubles of the two-strand torus knots T(2, 2m+1).

Builds the full complex of the positively-clasped untwisted double in its
diagonal-free normal form, checks that it splits as one three-generator
staircase summand plus acyclic boxes, computes the second-iterate invariant
through the tensor square, and runs the distinguishability test for iterated
doubles.

Generator families and their (alexander, maslov) gradings, for p = 1..m:

    x_k      (1, 0)        k = 1..2m        u_{p,i}  (1, 1-2p)   i = 1, 2
    y_k      (0, -1)       k = 1..4m-1      v_{p,i}  (0, -2p)    i = 1..4
    z_k      (-1, -2)      k = 1..2m        w_{p,i}  (-1, -1-2p) i = 1, 2

16m - 1 generators in total.  The differential pairs z_l with U x_l and
w_{p,i} with U u_{p,i}, which is exactly how the squared differential
cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CFKError, InvalidParameter
from .filtered import (
    Arrow,
    FilteredComplex,
    Generator,
    from_staircase,
    isomorphic_up_to_shift,
    split_summands,
    tensor,
)
from .homology import d1_general, is_acyclic
from .staircase import Staircase, delta_whitehead, tau


def _check_m(m: int) -> None:
    if m < 1:
        raise InvalidParameter(f"family parameter must be >= 1, got {m}")


MAX_DOUBLE = 200  # largest m whose double is built: 3,199 generators


def build_double_complex(m: int) -> FilteredComplex:
    """The double's complex in diagonal-free normal form; takes m <= MAX_DOUBLE."""
    _check_m(m)
    if m > MAX_DOUBLE:
        raise InvalidParameter(f"the double needs m <= {MAX_DOUBLE}, got {m}")
    gens = (
        [Generator(f"x{k}", 1, 0) for k in range(1, 2 * m + 1)]
        + [
            Generator(f"u{p}_{i}", 1, 1 - 2 * p)
            for p in range(1, m + 1)
            for i in (1, 2)
        ]
        + [Generator(f"y{k}", 0, -1) for k in range(1, 4 * m)]
        + [
            Generator(f"v{p}_{i}", 0, -2 * p)
            for p in range(1, m + 1)
            for i in (1, 2, 3, 4)
        ]
        + [Generator(f"z{k}", -1, -2) for k in range(1, 2 * m + 1)]
        + [
            Generator(f"w{p}_{i}", -1, -1 - 2 * p)
            for p in range(1, m + 1)
            for i in (1, 2)
        ]
    )
    arrows = []
    for k in range(2, 2 * m + 1):
        arrows.append(Arrow(f"x{k}", f"y{k - 1}", 0))
        arrows.append(Arrow(f"z{k}", f"y{k - 1}", 1))
    for l in range(1, 2 * m + 1):
        arrows.append(Arrow(f"y{2 * m + l - 1}", f"z{l}", 0))
        arrows.append(Arrow(f"y{2 * m + l - 1}", f"x{l}", 1))
    for p in range(1, m + 1):
        for i in (1, 2):
            arrows.append(Arrow(f"u{p}_{i}", f"v{p}_{i}", 0))
            arrows.append(Arrow(f"v{p}_{i + 2}", f"w{p}_{i}", 0))
            arrows.append(Arrow(f"v{p}_{i + 2}", f"u{p}_{i}", 1))
            arrows.append(Arrow(f"w{p}_{i}", f"v{p}_{i}", 1))
    return FilteredComplex(gens, arrows)


def splitting_plan(m: int) -> list[list[str]]:
    """Partition into the staircase triple and the boxes, in dependency order.

    Cross arrows (none in the clean build, any number after admissible basis
    changes) may only run from later subsets toward earlier ones, so the list
    is ordered: staircase triple, box chains, then the box towers with the
    deepest tower last.
    """
    _check_m(m)
    plan = [[f"y{2 * m}", "x1", "z1"]]
    for q in range(1, 2 * m):
        plan.append([f"y{2 * m + q}", f"x{q + 1}", f"z{q + 1}", f"y{q}"])
    for p in range(1, m + 1):
        for i in (1, 2):
            plan.append([f"v{p}_{i + 2}", f"u{p}_{i}", f"w{p}_{i}", f"v{p}_{i}"])
    return plan


@dataclass(frozen=True)
class SplittingReport:
    trefoil_summand: bool
    acyclic_rest: bool
    component_sizes: tuple[int, ...]
    trefoil_index: int | None
    rest_verdict: str
    trefoil: FilteredComplex | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "trefoil_summand": self.trefoil_summand,
            "acyclic_rest": self.acyclic_rest,
            "components": list(self.component_sizes),
            "trefoil_index": self.trefoil_index,
            "rest_verdict": self.rest_verdict,
        }


_TREFOIL_MODEL = from_staircase(Staircase((1, 1)))

MAX_SQUARED_DOUBLE = 10  # largest m whose double is squared in full: 25,281 generators


def verify_splitting(complex: FilteredComplex) -> SplittingReport:
    """Split into components; find a trefoil summand, certify the rest acyclic.

    Identification is by isomorphism search over grading and U-power shifts,
    never by generator names.
    """
    components = split_summands(complex)
    trefoil_index, trefoil, rest = None, None, complex
    for idx, comp in enumerate(components):
        if len(comp.generators) == 3 and isomorphic_up_to_shift(comp, _TREFOIL_MODEL):
            trefoil_index, trefoil = idx, comp
            drop = set(comp.names())
            rest = FilteredComplex(
                [g for g in complex.generators if g.name not in drop],
                [a for a in complex.arrows if a.source not in drop],
            )
            break
    rest_verdict = is_acyclic(rest).verdict
    return SplittingReport(
        trefoil_summand=trefoil is not None,
        acyclic_rest=rest_verdict == "certified-acyclic",
        component_sizes=tuple(len(c.generators) for c in components),
        trefoil_index=trefoil_index,
        rest_verdict=rest_verdict,
        trefoil=trefoil,
    )


def _summand_delta2(report: SplittingReport) -> int:
    if report.trefoil is None:
        raise CFKError("double complex lost its trefoil summand")
    return 2 * d1_general(tensor(report.trefoil, report.trefoil))


def delta_double_double(m: int, via: str = "both") -> int:
    """delta of the second iterated double, as twice the tensor-square d1.

    via="splitting" squares the double's trefoil summand; via="both" (the
    default) also squares the whole double, which takes m <= MAX_SQUARED_DOUBLE,
    and insists the two routes agree.
    """
    _check_m(m)
    if via not in ("both", "splitting"):
        raise ValueError(f"unknown route {via!r}")
    if via == "both" and m > MAX_SQUARED_DOUBLE:
        raise InvalidParameter(f"the full square needs m <= {MAX_SQUARED_DOUBLE}, got {m}")
    double = build_double_complex(m)
    fast = _summand_delta2(verify_splitting(double))
    if via == "splitting":
        return fast
    full = 2 * d1_general(tensor(double, double))
    if fast != full:
        raise CFKError(
            f"route disagreement: splitting gives {fast}, full tensor gives {full}"
        )
    return full


@dataclass(frozen=True)
class ClassificationReport:
    steps: tuple[int, ...]
    tau: int
    delta_whitehead: int
    verdict: str
    note: str
    psi: tuple[tuple[int, int], ...] | None
    summand_certificate: bool | None
    delta_double_double: int | None
    splitting: SplittingReport | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "steps": list(self.steps),
            "tau": self.tau,
            "delta_whitehead": self.delta_whitehead,
            "verdict": self.verdict,
            "note": self.note,
            "psi": [list(row) for row in self.psi] if self.psi else None,
            "summand_certificate": self.summand_certificate,
            "delta_double_double": self.delta_double_double,
            "splitting": self.splitting.to_dict() if self.splitting else None,
        }


DISTINGUISHABLE = "DISTINGUISHABLE"
SPECIAL_CASE = "SPECIAL-CASE-DISTINGUISHABLE"
INCONCLUSIVE = "INCONCLUSIVE"


def classify_iterates(stair: Staircase) -> ClassificationReport:
    """Can the double and its iterates be told apart in smooth concordance?

    DISTINGUISHABLE when |delta(D(K))| exceeds 8, the slice-genus ceiling for
    every later iterate.  Below it, a two-strand knot's double is squared:
    SPECIAL-CASE-DISTINGUISHABLE when the computed second-iterate delta
    differs from the first, INCONCLUSIVE when they coincide.  Everything
    else is INCONCLUSIVE.
    """
    two_strand = bool(stair.steps) and all(v == 1 for v in stair.steps)

    delta2 = None
    splitting = None
    if two_strand:
        splitting = verify_splitting(build_double_complex(len(stair.steps) // 2))
        delta2 = _summand_delta2(splitting)
    t = tau(stair)
    delta = delta_whitehead(stair)

    if abs(delta) > 8:
        verdict = DISTINGUISHABLE
        note = (
            f"|delta(D(K))| = {abs(delta)} exceeds the slice-genus ceiling 8 "
            f"carried by every higher iterate"
        )
    elif delta2 is None:
        verdict = INCONCLUSIVE
        note = (
            f"threshold test needs |delta| > 8, got {abs(delta)}; the double's "
            f"full complex is only built for the two-strand family"
        )
    elif delta2 != delta:
        verdict = SPECIAL_CASE
        note = (
            f"threshold test fails at |delta| = {abs(delta)}, but the computed "
            f"delta(D^2) = {delta2} differs from delta(D) = {delta}"
        )
    else:
        verdict = INCONCLUSIVE
        note = (
            f"delta(D) = {delta} and delta(D^2) = {delta2} coincide; "
            f"no invariant here separates the iterates"
        )

    psi = None
    certificate = None
    if t > 0:
        rows = [(1, delta // 4)]
        if two_strand:
            rows.append((1, delta2 // 4))
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            certificate = abs(det) == 1
        psi = tuple(rows)

    return ClassificationReport(
        steps=stair.steps,
        tau=t,
        delta_whitehead=delta,
        verdict=verdict,
        note=note,
        psi=psi,
        summand_certificate=certificate,
        delta_double_double=delta2,
        splitting=splitting,
    )
