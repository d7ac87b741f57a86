"""Bifiltered chain complexes over GF(2) with a U-action.

A complex is stored through one representative per U-orbit.  Each generator
records the Alexander grading (the j-coordinate of its i = 0 translate) and
its Maslov grading; an arrow (source, target, upower) means the differential
sends source to U^upower * target, whose translate sits at filtration
(-upower, alexander - upower).  Since U drops the Maslov grading by two and
the differential by one, every arrow must satisfy

    target.maslov - 2 * upower == source.maslov - 1,

so the upower between any two generators is pinned by their gradings.
Arrow sets are GF(2): an arrow either exists or it does not, and all
operations toggle by symmetric difference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

from . import gf2
from .errors import IllegalBasisChange, InadmissiblePlan
from .staircase import Staircase, vertices


class Generator(NamedTuple):
    name: str
    alexander: int
    maslov: int


class Arrow(NamedTuple):
    source: str
    target: str
    upower: int


@dataclass(frozen=True)
class BasisChange:
    """Replace y by y' = y + U^c x, with c forced by the Maslov gradings."""

    x: str
    y: str


class FilteredComplex:
    """Immutable complex; operations return new values."""

    __slots__ = ("generators", "arrows", "_by_name", "_out", "_in")

    def __init__(self, generators, arrows):
        gens = tuple(generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "arrows", frozenset(arrows))
        object.__setattr__(self, "_by_name", {g.name: g for g in gens})
        out: dict[str, list[Arrow]] = {g.name: [] for g in gens}
        inc: dict[str, list[Arrow]] = {g.name: [] for g in gens}
        for a in self.arrows:
            if a.source in out:
                out[a.source].append(a)
            if a.target in inc:
                inc[a.target].append(a)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inc)

    def __setattr__(self, *_):
        raise AttributeError("FilteredComplex is immutable")

    def __len__(self) -> int:
        return len(self.generators)

    def generator(self, name: str) -> Generator:
        return self._by_name[name]

    def names(self) -> list[str]:
        return [g.name for g in self.generators]

    def with_arrows(self, arrows) -> "FilteredComplex":
        return FilteredComplex(self.generators, arrows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return self.generators == other.generators and self.arrows == other.arrows

    def __hash__(self) -> int:
        return hash((self.generators, self.arrows))

    def __repr__(self) -> str:
        return f"<FilteredComplex {len(self.generators)} generators, {len(self.arrows)} arrows>"


def validate(complex: FilteredComplex) -> str | None:
    """None when every invariant holds, else a report naming the first failure."""
    names = [g.name for g in complex.generators]
    dupes = [n for n, k in Counter(names).items() if k > 1]
    if dupes:
        return f"duplicate-name: generator names {sorted(dupes)} repeat"
    by_name = complex._by_name
    ordered = sorted(complex.arrows)
    for a in ordered:
        if a.source not in by_name or a.target not in by_name:
            return f"unknown-generator: arrow {a.source}->{a.target} has a loose end"
    for a in ordered:
        src = by_name[a.source]
        tgt = by_name[a.target]
        if tgt.maslov - 2 * a.upower != src.maslov - 1:
            return (
                f"maslov: arrow {a.source}->{a.target} (upower {a.upower}) "
                f"does not drop the grading by one"
            )
        if a.upower < 0 or tgt.alexander - a.upower > src.alexander:
            return (
                f"filtration: arrow {a.source}->{a.target} (upower {a.upower}) "
                f"raises a filtration level"
            )
    out = complex._out
    for g in complex.generators:
        # (end, upower) of the two-step paths out of g that occur an odd number
        # of times; one middle's arrows all differ, so each toggles as a set
        odd: set[tuple[str, int]] = set()
        for _, middle, up in out[g.name]:
            odd ^= {(end, up + down) for _, end, down in out[middle]}
        if odd:
            return f"d-squared: d²({g.name}) contains {sorted(odd)}"
    return None


def from_staircase(stair: Staircase) -> FilteredComplex:
    """One generator per vertex; grading-1 generators map to both neighbours.

    Horizontal arrows absorb their i-drop into the U-power, so a leftward
    step of length L becomes an arrow with upower L between representatives.
    """
    vs = vertices(stair)
    gens = [
        Generator(f"s{k}", v.j - v.i, v.gr - 2 * v.i) for k, v in enumerate(vs)
    ]
    arrows = []
    for k in range(1, len(vs), 2):
        arrows.append(Arrow(f"s{k}", f"s{k - 1}", stair.steps[k - 1]))
        arrows.append(Arrow(f"s{k}", f"s{k + 1}", 0))
    return FilteredComplex(gens, arrows)


def tensor(c1: FilteredComplex, c2: FilteredComplex) -> FilteredComplex:
    """Tensor product over GF(2)[U, U^-1], Leibniz differential."""
    gens = [
        Generator(f"{g.name}*{h.name}", g.alexander + h.alexander, g.maslov + h.maslov)
        for g in c1.generators
        for h in c2.generators
    ]
    arrows = []
    for a in c1.arrows:
        for h in c2.generators:
            arrows.append(Arrow(f"{a.source}*{h.name}", f"{a.target}*{h.name}", a.upower))
    for g in c1.generators:
        for a in c2.arrows:
            arrows.append(Arrow(f"{g.name}*{a.source}", f"{g.name}*{a.target}", a.upower))
    return FilteredComplex(gens, arrows)


def _shift_of(complex: FilteredComplex, move: BasisChange) -> int:
    """U-power that makes x's translate share y's grading; raises if illegal."""
    if move.x == move.y or move.x not in complex._by_name or move.y not in complex._by_name:
        raise IllegalBasisChange(f"bad basis change {move.x} into {move.y}")
    gx = complex.generator(move.x)
    gy = complex.generator(move.y)
    if (gx.maslov - gy.maslov) % 2:
        raise IllegalBasisChange(
            f"{move.x} and {move.y} have different grading parity"
        )
    shift = (gx.maslov - gy.maslov) // 2
    if shift < 0 or gx.alexander - shift > gy.alexander:
        raise IllegalBasisChange(
            f"U^{shift} {move.x} does not sit below {move.y} in the filtration"
        )
    return shift


def _toggles(complex: FilteredComplex, move: BasisChange) -> set[Arrow]:
    """Arrows that y' = y + U^shift x adds or cancels; raises if illegal.

    Arrows into y gain a copy landing on x; arrows out of x gain a copy
    leaving y.
    """
    shift = _shift_of(complex, move)
    toggles = {Arrow(a.source, move.x, a.upower + shift) for a in complex._in[move.y]}
    toggles ^= {Arrow(move.y, a.target, a.upower + shift) for a in complex._out[move.x]}
    return toggles


def basis_change(complex: FilteredComplex, move: BasisChange) -> FilteredComplex:
    """Apply y' = y + U^shift x; coinciding arrows cancel mod 2."""
    return complex.with_arrows(complex.arrows ^ _toggles(complex, move))


def remove_diagonals(complex: FilteredComplex, plan: list[list[str]]) -> FilteredComplex:
    """Strip every arrow between distinct plan subsets by basis changes.

    The plan must partition the generators, and cross-subset arrows may only
    run from later subsets toward earlier ones.  Subsets hi run back to front,
    each against the earlier subsets lo nearest first; a GF(2) solve picks the
    moves y' = y + U^c x (y in hi, x in lo) whose toggles clear the pair.
    Every pair reads the input complex, because a move:

    * reads arrows into y, which come only from hi once later subsets are
      cleared, and arrows out of x, untouched until x's subset is hi;
    * toggles only arrows from hi toward earlier subsets, so only hi's cross
      arrows change, and they are kept in one residual set;
    * never toggles an arrow within a subset, so the result is exactly the
      input's within-subset arrows.
    """
    position: dict[str, int] = {}
    for idx, subset in enumerate(plan):
        for name in subset:
            if name in position:
                raise InadmissiblePlan(f"generator {name} appears twice in the plan")
            position[name] = idx
    if set(position) != {g.name for g in complex.generators}:
        raise InadmissiblePlan("plan does not partition the generators")
    for a in sorted(complex.arrows):
        if position[a.source] < position[a.target]:
            raise InadmissiblePlan(
                f"arrow {a.source}->{a.target} runs from subset "
                f"{position[a.source]} to later subset {position[a.target]}"
            )

    for hi in range(len(plan) - 1, 0, -1):
        residual = {a for g in plan[hi] for a in complex._out[g] if position[a.target] != hi}
        for lo in range(hi - 1, -1, -1):
            residual ^= _clear_pair(complex, residual, plan, hi, lo)
        if residual:
            raise InadmissiblePlan(f"cross arrows survived elimination: {sorted(residual)}")
    kept = [a for a in complex.arrows if position[a.source] == position[a.target]]
    return complex.with_arrows(kept)


def _clear_pair(
    complex: FilteredComplex, residual: set[Arrow], plan: list[list[str]], hi: int, lo: int
) -> set[Arrow]:
    """Toggles, all out of subset hi, of moves that clear residual's arrows into lo."""
    hi_set, lo_set = set(plan[hi]), set(plan[lo])
    # cross arrow (hi to lo) -> its GF(2) coordinate; the solve picks the same
    # moves however the coordinates are numbered
    bit: dict[Arrow, int] = {}
    target = 0
    for a in residual:
        if a.target in lo_set:
            target |= 1 << bit.setdefault(a, len(bit))
    if target == 0:
        return set()

    toggle_sets: list[set[Arrow]] = []
    columns: list[int] = []
    for y in sorted(hi_set):
        for x in sorted(lo_set):
            try:
                toggles = _toggles(complex, BasisChange(x=x, y=y))
            except IllegalBasisChange:
                continue
            # the input's arrows into y from later subsets are cleared by now
            toggles = {a for a in toggles if a.source in hi_set}
            column = 0
            for a in toggles:
                if a.target in lo_set:
                    column ^= 1 << bit.setdefault(a, len(bit))
            if column:
                toggle_sets.append(toggles)
                columns.append(column)

    chosen = gf2.solve_masks(columns, target)
    if chosen is None:
        raise InadmissiblePlan(
            f"no basis-change sequence clears arrows from subset {hi} to subset {lo}"
        )
    # a pair's moves commute: none toggles an arrow that another one reads
    cleared: set[Arrow] = set()
    for k, toggles in enumerate(toggle_sets):
        if (chosen >> k) & 1:
            cleared ^= toggles
    return cleared


def split_summands(complex: FilteredComplex) -> list[FilteredComplex]:
    """Connected components of the arrow graph, in first-generator order.

    Each component keeps its generators in the complex's order.
    """
    label: dict[str, int] = {}
    parts: list[tuple[list[Generator], list[Arrow]]] = []
    for g in complex.generators:
        if g.name not in label:
            label[g.name] = len(parts)
            parts.append(([], []))
            stack = [g.name]
            while stack:
                name = stack.pop()
                for a in complex._out[name] + complex._in[name]:
                    for end in (a.source, a.target):
                        if end not in label:
                            label[end] = label[g.name]
                            stack.append(end)
        parts[label[g.name]][0].append(g)
    for a in complex.arrows:
        parts[label[a.source]][1].append(a)
    return [FilteredComplex(gens, arrows) for gens, arrows in parts]


def isomorphic_up_to_shift(c1: FilteredComplex, c2: FilteredComplex) -> bool:
    """Bijection matching arrows exactly and gradings up to constant offsets."""
    if len(c1.generators) != len(c2.generators) or len(c1.arrows) != len(c2.arrows):
        return False
    if len(c1.generators) > 8:
        raise ValueError("isomorphism search is limited to 8 generators")
    if not c1.generators:
        return True
    base = c1.generators
    for image in permutations(c2.generators):
        da = image[0].alexander - base[0].alexander
        dm = image[0].maslov - base[0].maslov
        if any(
            h.alexander - g.alexander != da or h.maslov - g.maslov != dm
            for g, h in zip(base, image)
        ):
            continue
        rename = {g.name: h.name for g, h in zip(base, image)}
        mapped = {Arrow(rename[a.source], rename[a.target], a.upower) for a in c1.arrows}
        if mapped == c2.arrows:
            return True
    return False


def to_json_dict(complex: FilteredComplex) -> dict:
    return {
        "generators": [
            {"name": g.name, "alexander": g.alexander, "maslov": g.maslov}
            for g in complex.generators
        ],
        "arrows": [
            {"from": a.source, "to": a.target, "upower": a.upower}
            for a in sorted(complex.arrows)
        ],
    }


def _field(record: dict, key: str, kind: type):
    """record[key], which must be exactly of type kind (so no bool for int)."""
    value = record[key]
    if type(value) is not kind:
        raise ValueError(
            f"malformed complex document: {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def complex_from_json_dict(data: dict) -> FilteredComplex:
    """Inverse of to_json_dict; names must be strings and gradings integers."""
    try:
        gens = [
            Generator(
                _field(g, "name", str), _field(g, "alexander", int), _field(g, "maslov", int)
            )
            for g in data["generators"]
        ]
        arrows = [
            Arrow(_field(a, "from", str), _field(a, "to", str), _field(a, "upower", int))
            for a in data["arrows"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex document: {exc}") from exc
    if len(arrows) != len(set(arrows)):
        raise ValueError("malformed complex document: duplicate arrows")
    return FilteredComplex(gens, arrows)
