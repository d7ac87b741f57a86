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

A complex is stored by position.  Its generators are numbered 0..V-1 in the
order the caller gives them, their names and gradings kept in flat tuples,
and an arrow is an integer triple (source, target, upower) of positions.
Every computation here and in homology.py runs on positions; names are read
only where they decide what is printed or chosen:

* the order of to_json_dict's arrows;
* in diagrams.py, the order of the SVG's arrows and dots, and the dots'
  titles;
* the defect validate reports first, the least faulty arrow by name;
* the candidate moves of remove_diagonals, tried in name order;
* in homology.py, level 0 of the column, whose bit order the canonical
  cycle's coset minimum reads, and the acyclicity walk, which runs in name
  order.

A complex is a frozen dataclass whose fields are the four positional ones
(the names, the two gradings and the arrow triples), so its equality and
hash read those alone.  The named views (generators, arrows,
generator(name)), the name index and the adjacency lists are cached
properties, made from positions when first read.  Names come in only where a
complex is built by name (the constructor, with_arrows, tensor of factors
whose names hold a '*', and complex_from_json_dict), and each refuses a
repeated name or an arrow whose end names no generator with a CFKError in
validate's words, so every complex's names differ and its arrows join
generators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, sub
from typing import NamedTuple

from . import gf2
from .errors import CFKError, IllegalBasisChange, InadmissiblePlan
from .staircase import Staircase


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


@dataclass(frozen=True, init=False, repr=False)
class FilteredComplex:
    """Immutable complex; operations return new values.

    Generator k has name _names[k] and gradings _alexander[k] and
    _maslov[k]; _arrows holds the arrow triples.
    """

    _names: tuple[str, ...]
    _alexander: tuple[int, ...]
    _maslov: tuple[int, ...]
    _arrows: frozenset[tuple[int, int, int]]

    def __init__(self, generators, arrows):
        gens = tuple(generators)
        names, alexander, maslov = zip(*gens) if gens else ((), (), ())
        # _positions reads the arrows twice when one has a loose end
        arrows = frozenset(arrows)
        index = _index_of(names)
        _fill(self, names, alexander, maslov, _positions(names, index, arrows), index)

    @classmethod
    def _build(cls, names, alexander, maslov, arrows, index=None):
        """A complex from its positional fields; arrows is a frozenset of triples."""
        complex = object.__new__(cls)
        _fill(complex, names, alexander, maslov, arrows, index)
        return complex

    def _with(self, arrows) -> "FilteredComplex":
        """These generators with the arrow triples arrows."""
        return FilteredComplex._build(
            self._names, self._alexander, self._maslov, arrows, self._lookup
        )

    # the cached views live in the instance __dict__, outside the fields
    # that eq and hash read

    @cached_property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(map(Generator, self._names, self._alexander, self._maslov))

    @cached_property
    def arrows(self) -> frozenset[Arrow]:
        names = self._names
        return frozenset([Arrow(names[s], names[t], u) for s, t, u in self._arrows])

    @cached_property
    def _lookup(self) -> dict[str, int]:
        """Each name's position."""
        return _index_of(self._names)

    @cached_property
    def _neighbours(self) -> tuple[list[list[tuple[int, int]]], ...]:
        """(out, into): for each position, the (target, upower) of the arrows
        out of it and the (source, upower) of the arrows into it."""
        out = [[] for _ in self._names]
        into = [[] for _ in self._names]
        for s, t, u in self._arrows:
            out[s].append((t, u))
            into[t].append((s, u))
        return out, into

    def _least(self, triples) -> tuple[int, int, int]:
        """The least of the arrow triples in the order of their named Arrows."""
        names = self._names
        return min(triples, key=lambda a: (names[a[0]], names[a[1]], a[2]))

    def _subcomplex(self, keep: list[int]) -> "FilteredComplex":
        """The generators at positions keep, in that order, with their arrows.
        No arrow may join keep to the rest."""
        new = dict(zip(keep, range(len(keep))))
        out = self._neighbours[0]
        names, alexander, maslov = self._names, self._alexander, self._maslov
        return FilteredComplex._build(
            tuple([names[p] for p in keep]),
            tuple([alexander[p] for p in keep]),
            tuple([maslov[p] for p in keep]),
            frozenset([(new[s], new[t], u) for s in keep for t, u in out[s]]),
        )

    def __len__(self) -> int:
        return len(self._names)

    def generator(self, name: str) -> Generator:
        return self.generators[self._lookup[name]]

    def names(self) -> list[str]:
        return list(self._names)

    def with_arrows(self, arrows) -> "FilteredComplex":
        return self._with(_positions(self._names, self._lookup, frozenset(arrows)))

    def __repr__(self) -> str:
        return f"<FilteredComplex {len(self._names)} generators, {len(self._arrows)} arrows>"


def _fill(complex, names, alexander, maslov, arrows, index) -> None:
    """Write the four fields, and the name index when the caller has it,
    past the frozen __setattr__."""
    fields = vars(complex)
    fields.update(_names=names, _alexander=alexander, _maslov=maslov, _arrows=arrows)
    if index is not None:
        fields["_lookup"] = index


def _index_of(names) -> dict[str, int]:
    return dict(zip(names, range(len(names))))


def _refuse_repeats(names, index: dict[str, int]) -> None:
    """Raise CFKError in validate's words if names repeat; index maps them
    to positions."""
    if len(index) != len(names):
        dupes = [n for n, k in Counter(names).items() if k > 1]
        raise CFKError(f"duplicate-name: generator names {sorted(dupes)} repeat")


def _positions(names, index: dict[str, int], arrows) -> frozenset[tuple[int, int, int]]:
    """The named arrows as position triples, where index maps names to positions.

    A repeated name, or else an arrow end that names no generator, raises
    CFKError in validate's words, naming the least such arrow.
    """
    _refuse_repeats(names, index)
    try:
        return frozenset([(index[s], index[t], u) for s, t, u in arrows])
    except KeyError:
        pass
    s, t, _ = min(a for a in arrows if a[0] not in index or a[1] not in index)
    raise CFKError(f"unknown-generator: arrow {s}->{t} has a loose end")


def validate(complex: FilteredComplex) -> str | None:
    """None when every invariant holds, else a report naming the first failure.

    The complex's names differ and its arrows join generators, as every
    complex is built so.  The checks run by position; a report names the
    least faulty arrow in name order, or the first generator in the
    complex's order whose d² is not zero.
    """
    names, alexander, maslov = complex._names, complex._alexander, complex._maslov
    faulty = [
        (s, t, u) for s, t, u in complex._arrows
        if maslov[t] - 2 * u != maslov[s] - 1 or u < 0 or alexander[t] - u > alexander[s]
    ]
    if faulty:
        s, t, u = complex._least(faulty)
        if maslov[t] - 2 * u != maslov[s] - 1:
            return (
                f"maslov: arrow {names[s]}->{names[t]} (upower {u}) "
                f"does not drop the grading by one"
            )
        return (
            f"filtration: arrow {names[s]}->{names[t]} (upower {u}) "
            f"raises a filtration level"
        )
    # every arrow keeps the Maslov rule, so a two-step path's upower is
    # (maslov[end] - maslov[g] + 2) / 2 and d²(g) is read from its ends alone
    ends: list[set[int]] = [set() for _ in names]
    for s, t, _ in complex._arrows:
        ends[s].add(t)
    for g, middles in enumerate(ends):
        # the ends reached an odd number of times
        odd: set[int] = set()
        for middle in middles:
            odd ^= ends[middle]
        if odd:
            named = sorted((names[end], (maslov[end] - maslov[g] + 2) // 2) for end in odd)
            return f"d-squared: d²({names[g]}) contains {named}"
    return None


def from_staircase(stair: Staircase) -> FilteredComplex:
    """One generator per vertex; grading-1 generators map to both neighbours.

    Horizontal arrows absorb their i-drop into the U-power, so a leftward
    step of length L becomes an arrow with upower L between representatives.
    Generator k is named sk; at vertex (i, j) it has Alexander grading j - i
    and Maslov grading (k & 1) - 2 i.
    """
    across = stair._across
    walk = range(len(across))
    return FilteredComplex._build(
        tuple([f"s{k}" for k in walk]),
        tuple(map(sub, reversed(across), across)),
        tuple([(k & 1) - 2 * i for k, i in enumerate(across)]),
        _staircase_arrows(walk, stair.steps),
    )


def _staircase_arrows(walk, steps) -> frozenset[tuple[int, int, int]]:
    """from_staircase's arrows between the positions walk[k] of its
    generators k: each odd one maps to the one before it with the step
    between them as upower, and to the one after it with upower 0."""
    odd = range(1, len(walk), 2)
    return frozenset([(walk[k], walk[k - 1], steps[k - 1]) for k in odd]
                     + [(walk[k], walk[k + 1], 0) for k in odd])


def _staircase_of(complex: FilteredComplex) -> Staircase | None:
    """The staircase whose complex this is, up to renaming and a constant
    shift of each grading; None when there is none.

    j - i falls strictly along a staircase's walk, so the walk runs in
    falling Alexander order and each step is the drop between neighbours
    (a tie is a zero step, which Staircase refuses).  So the Alexander
    gradings match from_staircase of those steps up to one shift, and only
    its Maslov gradings, up to one shift, and its arrows, in walk order, are
    left to compare.
    """
    alexander, maslov = complex._alexander, complex._maslov
    walk = sorted(range(len(complex)), key=alexander.__getitem__, reverse=True)
    try:
        stair = Staircase(tuple([alexander[a] - alexander[b] for a, b in zip(walk, walk[1:])]))
    except ValueError:
        return None
    # from_staircase gives generator k the Maslov grading (k & 1) - 2 i
    shifts = {maslov[p] - (k & 1) + 2 * i for k, (p, i) in enumerate(zip(walk, stair._across))}
    arrows = _staircase_arrows(walk, stair.steps)
    return stair if len(shifts) == 1 and arrows == complex._arrows else None


def tensor(c1: FilteredComplex, c2: FilteredComplex) -> FilteredComplex:
    """Tensor product over GF(2)[U, U^-1], Leibniz differential.

    The pair (g, h) of positions sits at position g * len(c2) + h, named
    "g*h" from the factors' names, so the generators run in pair order.
    Product names can repeat only when a factor's name holds a '*' (x and
    x*x both give x*x*x); such a product is refused with a CFKError in
    validate's words.
    """
    n2 = len(c2)
    names = tuple([f"{a}*{b}" for a in c1._names for b in c2._names])
    alexander = tuple([a + b for a in c1._alexander for b in c2._alexander])
    maslov = tuple([a + b for a in c1._maslov for b in c2._maslov])
    if any("*" in name for name in c1._names + c2._names):
        _refuse_repeats(names, _index_of(names))
    arrows = [(s * n2 + h, t * n2 + h, u) for s, t, u in c1._arrows for h in range(n2)]
    arrows += [(g + s, g + t, u) for g in range(0, len(names), n2 or 1) for s, t, u in c2._arrows]
    return FilteredComplex._build(names, alexander, maslov, frozenset(arrows))


def _shift_of(complex: FilteredComplex, move: BasisChange) -> int:
    """U-power of the move y' = y + U^shift x; raises if it is illegal."""
    index = complex._lookup
    if move.x == move.y or move.x not in index or move.y not in index:
        raise IllegalBasisChange(f"bad basis change {move.x} into {move.y}")
    x, y = index[move.x], index[move.y]
    alexander, maslov = complex._alexander, complex._maslov
    if (maslov[x] - maslov[y]) % 2:
        raise IllegalBasisChange(f"{move.x} and {move.y} have different grading parity")
    shift = (maslov[x] - maslov[y]) // 2
    if shift < 0 or alexander[x] - shift > alexander[y]:
        raise IllegalBasisChange(
            f"U^{shift} {move.x} does not sit below {move.y} in the filtration"
        )
    return shift


def _toggles(x: int, y: int, shift: int, into_y, out_x) -> set[tuple[int, int, int]]:
    """Arrow triples that y' = y + U^shift x adds or cancels.

    Arrows into y, given as into_y's (source, upower), gain a copy landing on
    x; arrows out of x, given as out_x's (target, upower), gain a copy
    leaving y.
    """
    toggles = {(s, x, u + shift) for s, u in into_y}
    toggles ^= {(y, t, u + shift) for t, u in out_x}
    return toggles


def basis_change(complex: FilteredComplex, move: BasisChange) -> FilteredComplex:
    """Apply y' = y + U^shift x; coinciding arrows cancel mod 2."""
    shift = _shift_of(complex, move)
    index = complex._lookup
    x, y = index[move.x], index[move.y]
    into_y, out_x = [], []
    for s, t, u in complex._arrows:
        if t == y:
            into_y.append((s, u))
        if s == x:
            out_x.append((t, u))
    return complex._with(complex._arrows ^ _toggles(x, y, shift, into_y, out_x))


def remove_diagonals(complex: FilteredComplex, plan: list[list[str]]) -> FilteredComplex:
    """Strip every arrow between distinct plan subsets by basis changes.

    The plan must partition the generators, and cross-subset arrows may only
    run from later subsets toward earlier ones.  Subsets hi run back to front,
    each against the earlier subsets lo its cross arrows reach, nearest first;
    a pair (hi, lo) without cross arrows is skipped.  A GF(2) solve picks the
    moves y' = y + U^c x (y in hi, x in lo, each in name order) whose toggles
    clear the pair.  Every pair reads the input complex, because a move:

    * reads arrows into y, which come only from hi once later subsets are
      cleared, and arrows out of x, untouched until x's subset is hi;
    * toggles only arrows from hi toward earlier subsets, so only hi's cross
      arrows change, and they are kept in one residual set;
    * never toggles an arrow within a subset, so the result is exactly the
      input's within-subset arrows.

    The arrows a pair's moves add run from hi to subsets below lo, so the
    next pair is the highest subset the residual still reaches.
    """
    position: dict[str, int] = {}
    for idx, subset in enumerate(plan):
        for name in subset:
            if name in position:
                raise InadmissiblePlan(f"generator {name} appears twice in the plan")
            position[name] = idx
    names = complex._names
    if set(position) != set(names):
        raise InadmissiblePlan("plan does not partition the generators")
    subset = [position[name] for name in names]
    forward = [a for a in complex._arrows if subset[a[0]] < subset[a[1]]]
    if forward:
        s, t, _ = complex._least(forward)
        raise InadmissiblePlan(
            f"arrow {names[s]}->{names[t]} runs from subset "
            f"{subset[s]} to later subset {subset[t]}"
        )

    index = complex._lookup
    members = [[index[name] for name in sorted(part)] for part in plan]
    # each subset's cross arrows, all toward earlier subsets
    cross: list[set[tuple[int, int, int]]] = [set() for _ in plan]
    for a in complex._arrows:
        if subset[a[0]] != subset[a[1]]:
            cross[subset[a[0]]].add(a)
    for hi in range(len(plan) - 1, 0, -1):
        residual = cross[hi]
        below = hi
        while residual:
            lo = max([subset[t] for _, t, _ in residual])
            if lo >= below:
                survivors = sorted(Arrow(names[s], names[t], u) for s, t, u in residual)
                raise InadmissiblePlan(f"cross arrows survived elimination: {survivors}")
            residual ^= _clear_pair(complex, residual, members, subset, hi, lo)
            below = lo
    return complex._with(frozenset([a for a in complex._arrows if subset[a[0]] == subset[a[1]]]))


def _clear_pair(
    complex: FilteredComplex,
    residual: set[tuple[int, int, int]],
    members: list[list[int]],
    subset: list[int],
    hi: int,
    lo: int,
) -> set[tuple[int, int, int]]:
    """Toggles, all out of subset hi, of moves that clear residual's arrows into lo.

    members lists each subset's positions in name order and subset gives
    each position's subset.
    """
    # cross arrow (hi to lo) -> its GF(2) coordinate; the solve picks the same
    # moves however the coordinates are numbered
    bit: dict[tuple[int, int, int], int] = {}
    target = 0
    for a in residual:
        if subset[a[1]] == lo:
            target |= 1 << bit.setdefault(a, len(bit))

    alexander, maslov = complex._alexander, complex._maslov
    out, into = complex._neighbours
    toggle_sets: list[set[tuple[int, int, int]]] = []
    columns: list[int] = []
    for y in members[hi]:
        for x in members[lo]:
            # the move is legal when U^shift x shares y's Maslov grading and
            # sits no higher in the filtration
            gap = maslov[x] - maslov[y]
            if gap < 0 or gap & 1 or alexander[x] - (gap >> 1) > alexander[y]:
                continue
            toggles = _toggles(x, y, gap >> 1, into[y], out[x])
            # the input's arrows into y from later subsets are cleared by now
            toggles = {a for a in toggles if subset[a[0]] == hi}
            column = 0
            for a in toggles:
                if subset[a[1]] == lo:
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
    cleared: set[tuple[int, int, int]] = set()
    for k, toggles in enumerate(toggle_sets):
        if (chosen >> k) & 1:
            cleared ^= toggles
    return cleared


def split_summands(complex: FilteredComplex) -> list[FilteredComplex]:
    """Connected components of the arrow graph, in first-generator order.

    Each component keeps its generators in the complex's order.
    """
    return [complex._subcomplex(part) for part in _components(complex)]


def _components(complex: FilteredComplex) -> list[list[int]]:
    """Each component's positions, in increasing order, in first-generator order."""
    out, into = complex._neighbours
    label = [-1] * len(out)
    parts: list[list[int]] = []
    for p in range(len(out)):
        if label[p] < 0:
            label[p] = len(parts)
            parts.append([])
            stack = [p]
            while stack:
                node = stack.pop()
                for ends in (out[node], into[node]):
                    for q, _ in ends:
                        if label[q] < 0:
                            label[q] = label[p]
                            stack.append(q)
        parts[label[p]].append(p)
    return parts


def to_json_dict(complex: FilteredComplex) -> dict:
    return {
        "generators": [
            {"name": n, "alexander": a, "maslov": m}
            for n, a, m in zip(complex._names, complex._alexander, complex._maslov)
        ],
        "arrows": [
            {"from": a.source, "to": a.target, "upower": a.upower}
            for a in sorted(complex.arrows)
        ],
    }


# each field of a complex document's records: its record list, key and type
_FIELDS = (
    ("generators", "name", str),
    ("generators", "alexander", int),
    ("generators", "maslov", int),
    ("arrows", "from", str),
    ("arrows", "to", str),
    ("arrows", "upower", int),
)


def complex_from_json_dict(data: dict) -> FilteredComplex:
    """Inverse of to_json_dict; names must be strings and gradings integers.

    A malformed field, then duplicate arrows, raise ValueError; then a
    repeated name, then an arrow end that names no generator, raise
    CFKError in validate's words.
    """
    try:
        complex = _from_columns(data)
    except (KeyError, TypeError):  # a missing key, a record that is no dict, a loose end
        complex = None
    return _from_records(data) if complex is None else complex


def _from_columns(data: dict) -> FilteredComplex | None:
    """The complex data describes, each field read as one column of its
    record list; None when a record list is no list, a value's type is not
    exactly its field's, or a name or an arrow repeats.  A missing key, a
    record that is no dict and an arrow end that names no generator raise
    KeyError or TypeError."""
    columns = []
    for part, key, kind in _FIELDS:
        records = data[part]
        if type(records) is not list:
            return None
        column = tuple(map(itemgetter(key), records))
        if not set(map(type, column)) <= {kind}:
            return None
        columns.append(column)
    names, alexander, maslov, sources, targets, upowers = columns
    index = _index_of(names)
    at = index.__getitem__
    arrows = frozenset(zip(map(at, sources), map(at, targets), upowers))
    if len(index) != len(names) or len(arrows) != len(upowers):
        return None
    return FilteredComplex._build(names, alexander, maslov, arrows, index)


def _field(record: dict, key: str, kind: type):
    """record[key], which must be exactly of type kind (so no bool for int)."""
    value = record[key]
    if type(value) is not kind:
        raise ValueError(
            f"malformed complex document: {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _from_records(data: dict) -> FilteredComplex:
    """complex_from_json_dict read record by record and field by field, so
    that the first defect in the document's order is the one reported."""
    try:
        gens = [
            (_field(g, "name", str), _field(g, "alexander", int), _field(g, "maslov", int))
            for g in data["generators"]
        ]
        arrows = [
            (_field(a, "from", str), _field(a, "to", str), _field(a, "upower", int))
            for a in data["arrows"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex document: {exc}") from exc
    names, alexander, maslov = zip(*gens) if gens else ((), (), ())
    index = _index_of(names)
    try:
        triples = _positions(names, index, arrows)
    except CFKError:
        if len(set(arrows)) == len(arrows):
            raise
        triples = ()  # duplicate arrows are reported first
    if len(triples) != len(arrows):
        raise ValueError("malformed complex document: duplicate arrows")
    return FilteredComplex._build(names, alexander, maslov, triples, index)
