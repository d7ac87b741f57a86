"""Homology of bifiltered complexes over GF(2).

Four computations live here: the homology of the i = 0 column (whose
generator seeds everything else), the ranks of HFK-hat, the +1-surgery
correction term by the U-power search

    d1 = -2 * min{ n >= 0 : U^(n+1) * xi dies in the quotient by the
                   all-negative subcomplex },

and an acyclicity certificate for Maslov-graded complexes, cancelling unit
arrows in name order.  The column homology and the d1 search solve over slices
built by one rule: at Maslov level m each U-orbit contributes exactly one
translate, U^k g with k = (g.maslov - m) / 2 when that is an integer, and the
slice keeps those its rule admits.  The i = 0 column admits k = 0, the
quotient by the all-negative subcomplex k <= max(0, alexander).  So every
slice is finite and no truncation is ever needed.  Since an orbit gives at
most one translate per level, a slice numbers its translates by generator
position: each level's bits come from one walk of the generators, and all
its boundary masks from one pass over the arrow triples, an arrow (s, t, u)
sending U^k s to U^(k+u) t.  Names are read for level 0 of the column, kept
in name order, for the acyclicity walk and for what is reported.

The d1 search is one GF(2) reduction, by three facts about probe n ("is
U^(n+1) xi a boundary in the quotient at level -2(n+1)?").  The probes share
one matrix: name each translate by its generator; U commutes with d, so every
probe has the same rows (even Maslov), columns (odd Maslov) and boundary
masks.  Only the quotient shrinks as n grows: U^k t at level L stays in it iff
L >= t.maslov - 2 * max(0, t.alexander).  Columns out of the quotient add
nothing, as the filtration sends their boundary into the subcomplex, so the
n = 0 probe's columns serve every n.  Number the rows that leave first lowest:
then probe n dies iff the minimum of U xi modulo the column span lies in the
rows gone by then.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf2
from .errors import CFKError, NotAKnotComplex
from .filtered import FilteredComplex


@dataclass(frozen=True)
class Cycle:
    """GF(2) sum of U-translates sharing one Maslov grading."""

    terms: tuple[tuple[str, int], ...]  # (generator, upower)
    maslov: int


@dataclass(frozen=True)
class AcyclicityReport:
    verdict: str  # "certified-acyclic" | "certified-nonacyclic" | "indeterminate"
    cancelled_pairs: int
    survivors: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.verdict == "certified-acyclic"


def _column(complex: FilteredComplex) -> dict[int, tuple[list[int], list[int]]]:
    """The i = 0 column: each Maslov level's generator positions in bit order,
    and each one's differential as a mask over the level below.

    Level 0 is in name order, since hat_generator's coset minimum depends on
    its bit order; the other levels keep the complex's order.  Only arrows
    with upower 0 between adjacent levels stay in the column.
    """
    maslov = complex._maslov
    levels: dict[int, list[int]] = {}
    for p, m in enumerate(maslov):
        levels.setdefault(m, []).append(p)
    if 0 in levels:
        levels[0].sort(key=complex._names.__getitem__)
    bit = [0] * len(maslov)
    for members in levels.values():
        for b, p in enumerate(members):
            bit[p] = b
    column = {m: (members, [0] * len(members)) for m, members in levels.items()}
    for source, target, upower in complex._arrows:
        if upower == 0 and maslov[target] == maslov[source] - 1:
            column[maslov[source]][1][bit[source]] ^= 1 << bit[target]
    return column


def _ranks(column: dict[int, tuple[list[int], list[int]]]) -> dict[int, int]:
    """Each level's size less the ranks of the boundary out of it and into it."""
    boundary_rank = {m: gf2.rank_masks(masks) for m, (_, masks) in column.items()}
    ranks = {}
    for m, (members, _) in column.items():
        h = len(members) - boundary_rank[m] - boundary_rank.get(m + 1, 0)
        if h:
            ranks[m] = h
    return ranks


def hat_homology_ranks(complex: FilteredComplex) -> dict[int, int]:
    """Homology ranks of the i = 0 column, keyed by Maslov grading."""
    return _ranks(_column(complex))


def hfk_hat_ranks(complex: FilteredComplex) -> dict[tuple[int, int], int]:
    """Ranks of HFK-hat, keyed by (alexander, maslov), of a reduced complex.

    Reduced: no arrow keeps both filtrations (upower 0 between equal
    Alexander gradings), so the associated graded differential is zero and
    each bigrading's rank is its generator count.  Any other complex raises
    CFKError naming its least such arrow.
    """
    alexander = complex._alexander
    kept = [a for a in complex._arrows if a[2] == 0 and alexander[a[0]] == alexander[a[1]]]
    if kept:
        names = complex._names
        s, t, _ = complex._least(kept)
        raise CFKError(
            f"complex is not reduced: arrow {names[s]}->{names[t]} keeps both filtrations"
        )
    return dict(Counter(zip(alexander, complex._maslov)))


def _hat_cycle(complex: FilteredComplex) -> list[int]:
    """Positions of the canonical grading-zero cycle's terms, in name order."""
    column = _column(complex)
    ranks = _ranks(column)
    if ranks != {0: 1}:
        raise NotAKnotComplex(f"column homology ranks are {ranks}, expected one class at grading 0")
    members, masks = column[0]
    kernel = gf2.kernel_masks(masks)
    boundaries = column[1][1] if 1 in column else []
    for rep in gf2.coset_minima(kernel, boundaries):
        if rep:
            return [p for bit, p in enumerate(members) if (rep >> bit) & 1]
    raise NotAKnotComplex("no surviving cycle at grading 0")


def hat_generator(complex: FilteredComplex) -> Cycle:
    """Canonical cycle generating the column homology at grading zero."""
    names = complex._names
    return Cycle(terms=tuple((names[p], 0) for p in _hat_cycle(complex)), maslov=0)


def d1_general(complex: FilteredComplex) -> int:
    """Correction term of +1 surgery, by the U-power death search.

    Reduces the n = 0 probe (levels -2 and -1) once, each row's bit ranked by
    how many more U-powers it stays in the quotient.  A zero coset minimum
    means n = 0; otherwise n is the first probe its leading row has left.
    """
    xi = _hat_cycle(complex)  # each term is U^0 g
    maslov = complex._maslov
    # U^k g with k = (maslov + 2) // 2 sits at level -2 (a row) or -1 (a
    # column), and stays in the quotient for max(0, alexander) - k more powers
    power = [(m + 2) >> 1 for m in maslov]
    stays = [(a if a > 0 else 0) - k for a, k in zip(complex._alexander, power)]
    kept = [p for p, left in enumerate(stays) if left >= 0]
    columns = [p for p in kept if maslov[p] & 1]
    rows = sorted([p for p in kept if not maslov[p] & 1], key=stays.__getitem__)
    column_bit = [-1] * len(maslov)
    for bit, p in enumerate(columns):
        column_bit[p] = bit
    row_bit = [-1] * len(maslov)
    for bit, p in enumerate(rows):
        row_bit[p] = bit
    target = 0
    for p in xi:
        if row_bit[p] >= 0 and power[p] == 1:
            target |= 1 << row_bit[p]
    masks = [0] * len(columns)
    for source, head, upower in complex._arrows:
        column = column_bit[source]
        if column >= 0:
            row = row_bit[head]
            if row >= 0 and power[head] == power[source] + upower:
                masks[column] ^= 1 << row
    (r,) = gf2.coset_minima([target], masks)
    return -2 * (1 + stays[rows[r.bit_length() - 1]]) if r else 0


def is_acyclic(complex: FilteredComplex) -> AcyclicityReport:
    """Cancel arrows over GF(2)[U, U^-1] until none remain.

    Defined on Maslov-graded complexes, where the gradings pin each entry of
    the differential to one monomial, a unit: an entry is just a target in a
    set.  A complex with an arrow off the Maslov rule is indeterminate, every
    generator a survivor.  One walk in
    name order cancels each generator g that still has arrows against its
    least target h, and every z -> h gains g's targets (the zig-zag rule).
    That rewrites only generators with an arrow into h, all after g, so one
    passed over without arrows gains none.  Fully cancelled: acyclic.
    Otherwise nonacyclic, survivors are the witness classes.

    The walk numbers the generators by rank in name order, so that the
    least target is the least number.
    """
    maslov = complex._maslov
    index = complex._lookup()
    order = sorted(index)
    if any(maslov[t] - 2 * u != maslov[s] - 1 for s, t, u in complex._arrows):
        return AcyclicityReport("indeterminate", 0, tuple(order))
    rank = [0] * len(maslov)
    for r, name in enumerate(order):
        rank[index[name]] = r
    out: list[set[int]] = [set() for _ in order]
    into: list[set[int]] = [set() for _ in order]
    for source, target, _ in complex._arrows:
        out[rank[source]].add(rank[target])
        into[rank[target]].add(rank[source])

    cancelled = bytearray(len(order))
    for g, targets in enumerate(out):
        if not targets:
            continue
        h = min(targets)
        for z in into[h] - {g}:
            out[z] ^= targets
            for w in targets:
                if w in out[z]:
                    into[w].add(z)
                else:
                    into[w].discard(z)
        for dead in (g, h):
            for w in out[dead]:
                into[w].discard(dead)
            for z in into[dead]:
                out[z].discard(dead)
            out[dead].clear()
        cancelled[g] = cancelled[h] = 1

    pairs = sum(cancelled) // 2
    survivors = tuple(name for name, dead in zip(order, cancelled) if not dead)
    if survivors:
        return AcyclicityReport("certified-nonacyclic", pairs, survivors)
    return AcyclicityReport("certified-acyclic", pairs, ())
