"""Homology of bifiltered complexes over GF(2).

Three computations live here: the homology of the i = 0 column (whose
generator seeds everything else), the +1-surgery correction term by the
U-power search

    d1 = -2 * min{ n >= 0 : U^(n+1) * xi dies in the quotient by the
                   all-negative subcomplex },

and an acyclicity certificate by unit-pivot cancellation over the Laurent
coefficient ring.  The column homology and the d1 search solve over slices
built by one rule: at Maslov level m each U-orbit contributes exactly one
translate, U^k g with k = (g.maslov - m) / 2 when that is an integer, and the
slice keeps those its rule admits.  The i = 0 column admits k = 0, the
quotient by the all-negative subcomplex k <= max(0, alexander).  So every
slice is finite and no truncation is ever needed.

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

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

from . import gf2
from .errors import NotAKnotComplex
from .filtered import FilteredComplex, Generator


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


def solve_gf2(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int] | None:
    """Some x with M x = rhs over GF(2), or None if the system is inconsistent."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    if len(rhs) != len(rows):
        raise ValueError(f"dimension mismatch: {len(rows)} rows, {len(rhs)} entries")
    ncols = len(rows[0]) if rows else 0
    columns = [
        sum((rows[i][j] & 1) << i for i in range(len(rows))) for j in range(ncols)
    ]
    target = sum((rhs[i] & 1) << i for i in range(len(rhs)))
    combo = gf2.solve_masks(columns, target)
    if combo is None:
        return None
    return [(combo >> j) & 1 for j in range(ncols)]


def _slice(generators: Iterable[Generator], level: int,
           keep: Callable[[Generator, int], bool]) -> dict[tuple[str, int], int]:
    """Bit index of each translate U^k g at the Maslov level that keep(g, k) admits."""
    index: dict[tuple[str, int], int] = {}
    for g in generators:
        drop = g.maslov - level
        if drop % 2 == 0 and keep(g, drop // 2):
            index[(g.name, drop // 2)] = len(index)
    return index


def _in_column(g: Generator, k: int) -> bool:
    return k == 0


def _in_quotient(g: Generator, k: int) -> bool:
    """U^k g sits at (-k, alexander - k), outside the i<0, j<0 subcomplex."""
    return k <= max(0, g.alexander)


def _boundary_masks(complex: FilteredComplex, sources: dict[tuple[str, int], int],
                    targets: dict[tuple[str, int], int]) -> list[int]:
    """Differential of each source translate, as a mask over the target bits."""
    masks = []
    for name, k in sources:
        mask = 0
        for a in complex.arrows_from(name):
            bit = targets.get((a.target, k + a.upower))
            if bit is not None:
                mask ^= 1 << bit
        masks.append(mask)
    return masks


def hat_homology_ranks(complex: FilteredComplex) -> dict[int, int]:
    """Homology ranks of the i = 0 column, keyed by Maslov grading."""
    levels: dict[int, list[Generator]] = {}
    for g in complex.generators:
        levels.setdefault(g.maslov, []).append(g)
    columns = {m: _slice(gens, m, _in_column) for m, gens in levels.items()}
    boundary_rank = {
        m: gf2.rank_masks(_boundary_masks(complex, column, columns.get(m - 1, {})))
        for m, column in columns.items()
    }
    ranks = {}
    for m, column in columns.items():
        h = len(column) - boundary_rank[m] - boundary_rank.get(m + 1, 0)
        if h:
            ranks[m] = h
    return ranks


def hat_generator(complex: FilteredComplex) -> Cycle:
    """Canonical cycle generating the column homology at grading zero."""
    ranks = hat_homology_ranks(complex)
    if ranks != {0: 1}:
        raise NotAKnotComplex(f"column homology ranks are {ranks}, expected one class at grading 0")
    gens = complex.generators
    # the coset minimum depends on this slice's bit order: name order
    level0 = {key: bit for bit, key in enumerate(sorted(_slice(gens, 0, _in_column)))}
    below, above = _slice(gens, -1, _in_column), _slice(gens, 1, _in_column)
    kernel = gf2.kernel_masks(_boundary_masks(complex, level0, below))
    boundaries = _boundary_masks(complex, above, level0)
    for rep in gf2.coset_minima(kernel, boundaries):
        if rep:
            terms = tuple(key for key, bit in level0.items() if (rep >> bit) & 1)
            return Cycle(terms=terms, maslov=0)
    raise NotAKnotComplex("no surviving cycle at grading 0")


def d1_general(complex: FilteredComplex) -> int:
    """Correction term of +1 surgery, by the U-power death search.

    Reduces the n = 0 probe (levels -2 and -1) once, each row's bit ranked by
    how many more U-powers it stays in the quotient.  A zero coset minimum
    means n = 0; otherwise n is the first probe its leading row has left.
    """
    xi = hat_generator(complex)
    alexander = {g.name: g.alexander for g in complex.generators}
    stays = {key: max(0, alexander[key[0]]) - key[1]
             for key in _slice(complex.generators, -2, _in_quotient)}
    order = sorted(stays, key=stays.__getitem__)
    rows = {key: bit for bit, key in enumerate(order)}
    target = sum(1 << rows[(name, k + 1)] for name, k in xi.terms if (name, k + 1) in rows)
    columns = _slice(complex.generators, -1, _in_quotient)
    (r,) = gf2.coset_minima([target], _boundary_masks(complex, columns, rows))
    return -2 * (1 + stays[order[r.bit_length() - 1]]) if r else 0


def is_acyclic(complex: FilteredComplex) -> AcyclicityReport:
    """Cancel unit (monomial) pivots over GF(2)[U, U^-1] until none remain.

    Entries are sets of U-exponents; a pivot cancels a source/target pair and
    reroutes through the zig-zag rule.  Fully cancelled: acyclic.  Survivors
    with zero differential: nonacyclic, survivors are the witness classes.
    Nonzero non-monomial leftovers: indeterminate.  Only a complex that
    validate rejects gets there, since in a graded complex the gradings pin
    each entry's exponent and the zig-zag rule keeps entries monomial.
    """
    out: dict[str, dict[str, set[int]]] = {g.name: {} for g in complex.generators}
    into: dict[str, set[str]] = {g.name: set() for g in complex.generators}
    for a in complex.arrows:
        out[a.source].setdefault(a.target, set()).add(a.upower)
        into[a.target].add(a.source)

    alive = set(out)
    pairs = 0
    while True:
        pivot = None
        for g in sorted(alive):
            for h in sorted(out[g]):
                if len(out[g][h]) == 1:
                    pivot = (g, h)
                    break
            if pivot:
                break
        if pivot is None:
            break
        g, h = pivot
        (a,) = out[g][h]
        incoming = [(z, set(out[z][h])) for z in sorted(into[h]) if z != g]
        outgoing = [(w, set(exps)) for w, exps in sorted(out[g].items()) if w != h]
        for z, bexps in incoming:
            for w, eexps in outgoing:
                entry = out[z].setdefault(w, set())
                for b in bexps:
                    for e in eexps:
                        entry ^= {b - a + e}
                if entry:
                    out[z][w] = entry
                    into[w].add(z)
                else:
                    del out[z][w]
                    into[w].discard(z)
        for dead in (g, h):
            for w in out[dead]:
                into[w].discard(dead)
            out[dead] = {}
            for z in into[dead]:
                out[z].pop(dead, None)
            into[dead] = set()
            alive.discard(dead)
        pairs += 1

    leftovers = any(out[g].get(h) for g in alive for h in out[g])
    if leftovers:
        return AcyclicityReport("indeterminate", pairs, tuple(sorted(alive)))
    if alive:
        return AcyclicityReport("certified-nonacyclic", pairs, tuple(sorted(alive)))
    return AcyclicityReport("certified-acyclic", pairs, ())
