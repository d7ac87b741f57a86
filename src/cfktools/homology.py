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
name: each level's bits come from one walk of the generators, and all its
boundary masks from one pass over the arrows, an arrow (s, t, u) sending
U^k s to U^(k+u) t.

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
from operator import itemgetter

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


def _column(complex: FilteredComplex) -> dict[int, tuple[list[str], list[int]]]:
    """The i = 0 column: each Maslov level's generator names in bit order, and
    each one's differential as a mask over the level below.

    Level 0 is in name order, since hat_generator's coset minimum depends on
    its bit order; the other levels keep the complex's order.  Only arrows
    with upower 0 between adjacent levels stay in the column.
    """
    levels: dict[int, list[str]] = {}
    for g in complex.generators:
        levels.setdefault(g.maslov, []).append(g.name)
    if 0 in levels:
        levels[0].sort()
    place = {name: (m, bit) for m, names in levels.items() for bit, name in enumerate(names)}
    column = {m: (names, [0] * len(names)) for m, names in levels.items()}
    for source, target, upower in complex.arrows:
        if upower == 0 and source in place and target in place:
            m, bit = place[source]
            level, target_bit = place[target]
            if level == m - 1:
                column[m][1][bit] ^= 1 << target_bit
    return column


def _ranks(column: dict[int, tuple[list[str], list[int]]]) -> dict[int, int]:
    """Each level's size less the ranks of the boundary out of it and into it."""
    boundary_rank = {m: gf2.rank_masks(masks) for m, (_, masks) in column.items()}
    ranks = {}
    for m, (names, _) in column.items():
        h = len(names) - boundary_rank[m] - boundary_rank.get(m + 1, 0)
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
    alexander = {g.name: g.alexander for g in complex.generators}
    kept = [
        a for a in complex.arrows if a.upower == 0 and alexander[a.source] == alexander[a.target]
    ]
    if kept:
        a = min(kept)
        raise CFKError(
            f"complex is not reduced: arrow {a.source}->{a.target} keeps both filtrations"
        )
    return dict(Counter((g.alexander, g.maslov) for g in complex.generators))


def hat_generator(complex: FilteredComplex) -> Cycle:
    """Canonical cycle generating the column homology at grading zero."""
    column = _column(complex)
    ranks = _ranks(column)
    if ranks != {0: 1}:
        raise NotAKnotComplex(f"column homology ranks are {ranks}, expected one class at grading 0")
    names, masks = column[0]
    kernel = gf2.kernel_masks(masks)
    boundaries = column[1][1] if 1 in column else []
    for rep in gf2.coset_minima(kernel, boundaries):
        if rep:
            terms = tuple((name, 0) for bit, name in enumerate(names) if (rep >> bit) & 1)
            return Cycle(terms=terms, maslov=0)
    raise NotAKnotComplex("no surviving cycle at grading 0")


def d1_general(complex: FilteredComplex) -> int:
    """Correction term of +1 surgery, by the U-power death search.

    Reduces the n = 0 probe (levels -2 and -1) once, each row's bit ranked by
    how many more U-powers it stays in the quotient.  A zero coset minimum
    means n = 0; otherwise n is the first probe its leading row has left.
    """
    xi = hat_generator(complex)
    # U^k g with k = (maslov + 2) // 2 sits at level -2 (a row) or -1 (a column)
    ranked: list[tuple[int, str, int]] = []  # (stays, name, k) of each row
    columns: dict[str, tuple[int, int]] = {}  # name -> (k, bit)
    for g in complex.generators:
        k, odd = divmod(g.maslov + 2, 2)
        reach = max(0, g.alexander)
        if k <= reach:
            if odd:
                columns[g.name] = (k, len(columns))
            else:
                ranked.append((reach - k, g.name, k))
    ranked.sort(key=itemgetter(0))
    rows = {name: (k, bit) for bit, (_, name, k) in enumerate(ranked)}
    target = 0
    for name, k in xi.terms:
        row = rows.get(name)
        if row is not None and row[0] == k + 1:
            target |= 1 << row[1]
    masks = [0] * len(columns)
    for source, head, upower in complex.arrows:
        if source in columns and head in rows:
            k, bit = columns[source]
            row_k, row_bit = rows[head]
            if row_k == k + upower:
                masks[bit] ^= 1 << row_bit
    (r,) = gf2.coset_minima([target], masks)
    return -2 * (1 + ranked[r.bit_length() - 1][0]) if r else 0


def is_acyclic(complex: FilteredComplex) -> AcyclicityReport:
    """Cancel arrows over GF(2)[U, U^-1] until none remain.

    Defined on Maslov-graded complexes, where the gradings pin each entry of
    the differential to one monomial, a unit: an entry is just a target in a
    set.  A complex with an arrow off the Maslov rule is indeterminate, every
    generator a survivor.  One walk in name order cancels each generator g
    that still has arrows against its least target h, and every z -> h gains
    g's targets (the zig-zag rule).  That rewrites only generators with an
    arrow into h, all after g, so one passed over without arrows gains none.
    Fully cancelled: acyclic.  Otherwise nonacyclic, survivors are the
    witness classes.
    """
    maslov = {g.name: g.maslov for g in complex.generators}
    if any(maslov[t] - 2 * u != maslov[s] - 1 for s, t, u in complex.arrows):
        return AcyclicityReport("indeterminate", 0, tuple(sorted(maslov)))
    out: dict[str, set[str]] = {name: set() for name in sorted(maslov)}
    into: dict[str, set[str]] = {name: set() for name in maslov}
    for source, target, _ in complex.arrows:
        out[source].add(target)
        into[target].add(source)

    cancelled: set[str] = set()
    for g, targets in out.items():
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
        cancelled.update((g, h))

    pairs = len(cancelled) // 2
    survivors = tuple(name for name in out if name not in cancelled)
    if survivors:
        return AcyclicityReport("certified-nonacyclic", pairs, survivors)
    return AcyclicityReport("certified-acyclic", pairs, ())
