"""Doubles of the two-strand torus knots T(2, 2m+1).

Builds the full complex of the positively-clasped untwisted double in its
diagonal-free normal form, checks that it splits as one three-generator
summand, read back as the trefoil's staircase, plus acyclic boxes, and runs
the distinguishability test for iterated doubles.  The second-iterate
invariant delta(D^2) is the staircase closed form delta(D(T(2,3))) of that
summand; the full route takes it as twice d1 of the whole double's tensor
square, read from the square's two factors so that the square is never
built.

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
from .filtered import FilteredComplex, _components, _staircase_of
from .homology import d1_tensor, is_acyclic
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
    # first positions of the six families, in the order listed above
    x, u, y, v, z, w = 0, 2 * m, 4 * m, 8 * m - 1, 12 * m - 1, 14 * m - 1
    boxes = [(p, i) for p in range(1, m + 1) for i in (1, 2)]
    names = tuple(
        [f"x{k}" for k in range(1, 2 * m + 1)]
        + [f"u{p}_{i}" for p, i in boxes]
        + [f"y{k}" for k in range(1, 4 * m)]
        + [f"v{p}_{i}" for p in range(1, m + 1) for i in (1, 2, 3, 4)]
        + [f"z{k}" for k in range(1, 2 * m + 1)]
        + [f"w{p}_{i}" for p, i in boxes]
    )
    alexander = (1,) * (4 * m) + (0,) * (8 * m - 1) + (-1,) * (4 * m)
    maslov = (
        (0,) * (2 * m)
        + tuple([1 - 2 * p for p, _ in boxes])
        + (-1,) * (4 * m - 1)
        + tuple([-2 * p for p in range(1, m + 1) for _ in range(4)])
        + (-2,) * (2 * m)
        + tuple([-1 - 2 * p for p, _ in boxes])
    )
    # x_k, y_k and z_k sit at x + k - 1, y + k - 1 and z + k - 1; with
    # q = 2(p - 1) + i - 1, u_{p,i} and w_{p,i} sit at u + q and w + q, and
    # v_{p,i} at v + q + 2(p - 1), two places before v_{p,i+2}
    arrows = []
    for k in range(2, 2 * m + 1):
        arrows += [(x + k - 1, y + k - 2, 0), (z + k - 1, y + k - 2, 1)]
    for l in range(1, 2 * m + 1):
        arrows += [(y + 2 * m + l - 2, z + l - 1, 0), (y + 2 * m + l - 2, x + l - 1, 1)]
    for q in range(2 * m):
        low = v + q + q // 2 * 2
        arrows += [(u + q, low, 0), (low + 2, w + q, 0), (low + 2, u + q, 1), (w + q, low, 1)]
    return FilteredComplex._build(names, alexander, maslov, frozenset(arrows))


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

    def to_dict(self) -> dict:
        return {
            "trefoil_summand": self.trefoil_summand,
            "acyclic_rest": self.acyclic_rest,
            "components": list(self.component_sizes),
            "trefoil_index": self.trefoil_index,
            "rest_verdict": self.rest_verdict,
        }


_TREFOIL = Staircase((1, 1))


def verify_splitting(complex: FilteredComplex) -> SplittingReport:
    """Split into components; find a trefoil summand, certify the rest acyclic.

    A three-generator component is the trefoil summand when it reads back as
    the staircase St(1,1) up to a constant shift of each grading, never by
    generator names: its walk runs in falling Alexander order and its arrows
    match the staircase's.  Only those components are built as complexes.
    """
    parts = _components(complex)
    trefoil_index, rest = None, complex
    for idx, part in enumerate(parts):
        if len(part) == 3 and _staircase_of(complex._subcomplex(part)) == _TREFOIL:
            trefoil_index = idx
            drop = set(part)
            keep = [p for p in range(len(complex)) if p not in drop]
            rest = complex._subcomplex(keep)
            break
    rest_verdict = is_acyclic(rest).verdict
    return SplittingReport(
        trefoil_summand=trefoil_index is not None,
        acyclic_rest=rest_verdict == "certified-acyclic",
        component_sizes=tuple(map(len, parts)),
        trefoil_index=trefoil_index,
        rest_verdict=rest_verdict,
    )


def _summand_delta2(report: SplittingReport) -> int:
    """delta(D^2) = 2 d1 of the trefoil summand's square, which the closed
    form delta(D(T(2,3))) gives; the acyclic rest adds nothing."""
    if not report.trefoil_summand:
        raise CFKError("double complex lost its trefoil summand")
    return delta_whitehead(_TREFOIL)


def _routes_agree(double: FilteredComplex, report: SplittingReport) -> int:
    """delta(D^2) by the splitting and by the full square, which must agree."""
    fast = _summand_delta2(report)
    full = 2 * d1_tensor(double, double)
    if fast != full:
        raise CFKError(
            f"route disagreement: splitting gives {fast}, full tensor gives {full}"
        )
    return full


def delta_double_double(m: int, via: str = "both") -> int:
    """delta of the second iterated double, as twice the tensor-square d1.

    via="splitting" applies the staircase closed form to the double's trefoil
    summand; via="both" (the default) also squares the whole double and
    insists the two routes agree.  Both take every m that build_double_complex
    does.  The full route reads d1 from the square's factors by d1_tensor; no
    square is built.
    """
    _check_m(m)
    if via not in ("both", "splitting"):
        raise ValueError(f"unknown route {via!r}")
    double = build_double_complex(m)
    report = verify_splitting(double)
    if via == "splitting":
        return _summand_delta2(report)
    return _routes_agree(double, report)


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
    every later iterate.  Below it, a two-strand knot's double is split and
    its second-iterate delta read from the trefoil summand:
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
