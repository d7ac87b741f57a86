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
position, an arrow (s, t, u) sending U^k s to U^(k+u) t.  The column's
levels come from one walk of the generators and its masks from one pass over
the arrow triples; the d1 search walks the arrows out from xi's terms.
Names are read for level 0 of the column, kept in name order, for the
acyclicity walk and for what is reported.

d1 of a tensor product is read from its two factors by the Kunneth rule: the
product's column is the tensor product of the factors' columns, so its
homology is {0: 1} exactly when theirs are {a: 1} and {-a: 1}, and then the
product of their classes is the hat class.  The d1 search reads the product's
gradings and arrows from the factors' at the positions it reaches, so the
product is never built.

The d1 search is one GF(2) reduction, by three facts about probe n ("is
U^(n+1) xi a boundary in the quotient at level -2(n+1)?").  The probes share
one matrix: name each translate by its generator; U commutes with d, so every
probe has the same rows (even Maslov), columns (odd Maslov) and boundary
masks.  Only the quotient shrinks as n grows: U^k t at level L stays in it iff
L >= t.maslov - 2 * max(0, t.alexander).  Columns out of the quotient add
nothing, as the filtration sends their boundary into the subcomplex, so the
n = 0 probe's columns serve every n.  Number the rows that leave first lowest:
then probe n dies iff the minimum of U xi modulo the column span lies in the
rows gone by then.  The span is the sum of the spans of the connected parts
of the row-column graph, and a part that U xi misses adds nothing to the
minimum, so the search reads only the part that U xi's rows reach.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf2
from .errors import CFKError, NotAKnotComplex
from .filtered import FilteredComplex, tensor


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


def _class_cycle(column: dict[int, tuple[list[int], list[int]]], level: int) -> list[int]:
    """Positions of a cycle at level that is no boundary, in the level's bit
    order.

    One pivot table holds the boundaries into the level, then each member's
    differential shifted past the level's bits, with the member's own bit
    below.  A residue with no high bit left is a cycle reduced to the
    minimum of its class, and the first such residue that is not zero is
    the cycle.
    """
    members, masks = column[level]
    n = len(members)
    table = gf2.PivotTable(column[level + 1][1] if level + 1 in column else ())
    for j, mask in enumerate(masks):
        rep = table.insert(mask << n | 1 << j, n)
        if rep and not rep >> n:
            return [p for bit, p in enumerate(members) if (rep >> bit) & 1]
    raise NotAKnotComplex(f"no surviving cycle at grading {level}")


def _hat_cycle(complex: FilteredComplex) -> list[int]:
    """Positions of the canonical grading-zero cycle's terms, in name order."""
    column = _column(complex)
    ranks = _ranks(column)
    if ranks != {0: 1}:
        raise NotAKnotComplex(f"column homology ranks are {ranks}, expected one class at grading 0")
    return _class_cycle(column, 0)


def hat_generator(complex: FilteredComplex) -> Cycle:
    """Canonical cycle generating the column homology at grading zero."""
    names = complex._names
    return Cycle(terms=tuple((names[p], 0) for p in _hat_cycle(complex)), maslov=0)


def d1_general(complex: FilteredComplex) -> int:
    """Correction term of +1 surgery, by the U-power death search."""
    out, into = complex._neighbours
    return _d1(
        complex._alexander.__getitem__, complex._maslov.__getitem__,
        out.__getitem__, into.__getitem__, _hat_cycle(complex),
    )


def d1_tensor(c1: FilteredComplex, c2: FilteredComplex) -> int:
    """d1_general(tensor(c1, c2)), read from the two factors.

    The product's names, arrows and column are never built.  Its position
    g * len(c2) + h is the pair (g, h), with summed gradings and the arrows
    (s, h) -> (t, h) of c1's s -> t and (g, s) -> (g, t) of c2's.  Its
    column is col(c1) (x) col(c2), so by Kunneth its ranks are {0: 1}
    exactly when the factors' are {a: 1} and {-a: 1}, and the product of
    grading-a and grading -a cycles that are no boundaries then carries the
    hat class; d1 reads the class, not the cycle.  Kunneth holds for
    complexes, whose d² is zero, as validate checks.  Any other pair of
    ranks is refused in the product's own words.
    """
    col1, col2 = _column(c1), _column(c2)
    ranks1, ranks2 = _ranks(col1), _ranks(col2)
    level = next(iter(ranks1), 0)
    if ranks1 != {level: 1} or ranks2 != {-level: 1}:
        return d1_general(tensor(c1, c2))  # raises NotAKnotComplex in the product's words
    n2 = len(c2)
    alexander1, alexander2 = c1._alexander, c2._alexander
    maslov1, maslov2 = c1._maslov, c2._maslov
    out1, into1 = c1._neighbours
    out2, into2 = c2._neighbours

    def alexander(p: int) -> int:
        g, h = divmod(p, n2)
        return alexander1[g] + alexander2[h]

    def maslov(p: int) -> int:
        g, h = divmod(p, n2)
        return maslov1[g] + maslov2[h]

    def out(p: int) -> list[tuple[int, int]]:
        g, h = divmod(p, n2)
        return [(t * n2 + h, u) for t, u in out1[g]] + [(p - h + t, u) for t, u in out2[h]]

    def into(p: int) -> list[tuple[int, int]]:
        g, h = divmod(p, n2)
        return [(s * n2 + h, u) for s, u in into1[g]] + [(p - h + s, u) for s, u in into2[h]]

    xi = [g * n2 + h for g in _class_cycle(col1, level) for h in _class_cycle(col2, -level)]
    return _d1(alexander, maslov, out, into, xi)


def _d1(alexander, maslov, out, into, xi: list[int]) -> int:
    """d1 of the complex whose position p has gradings alexander(p) and
    maslov(p), arrows out(p) and into(p) as (other end, upower) lists, and
    whose hat class is the sum of the U^0 g, g at grading 0, for g in xi.

    Reduces the part of the n = 0 probe (levels -2 and -1) that U xi's rows
    reach, once, each row's bit ranked by how many more U-powers it stays in
    the quotient.  A zero coset minimum means n = 0; otherwise n is the
    first probe its leading row has left.
    """
    # U^k g with k = (maslov + 2) // 2 sits at level -2 (a row) or -1 (a
    # column), and stays in the quotient for max(0, alexander) - k more powers
    power: dict[int, int] = {}
    stays: dict[int, int] = {}

    def kept(p: int) -> bool:
        if p not in stays:
            a, k = alexander(p), (maslov(p) + 2) >> 1
            power[p] = k
            stays[p] = (a if a > 0 else 0) - k
        return stays[p] >= 0

    terms = [p for p in xi if kept(p)]
    rows = list(terms)
    seen = set(rows)
    reach: list[list[int]] = []  # each column's rows
    for r in rows:  # rows grows as the walk reaches more of them
        for s, u in into(r):
            if s in seen or not maslov(s) & 1 or not kept(s) or power[r] != power[s] + u:
                continue
            seen.add(s)
            hits = [
                t for t, v in out(s)
                if not maslov(t) & 1 and kept(t) and power[t] == power[s] + v
            ]
            reach.append(hits)
            for t in hits:
                if t not in seen:
                    seen.add(t)
                    rows.append(t)
    rows.sort(key=lambda p: (stays[p], p))
    bit = {p: b for b, p in enumerate(rows)}
    target = 0
    for p in terms:
        target |= 1 << bit[p]
    masks = []
    for hits in reach:
        mask = 0
        for t in hits:
            mask ^= 1 << bit[t]
        masks.append(mask)
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
    index = complex._lookup
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
