"""Homology of bifiltered complexes over GF(2).

Three computations live here: the homology of the i = 0 column (whose
generator seeds everything else), the +1-surgery correction term by the
U-power search

    d1 = -2 * min{ n >= 0 : U^(n+1) * xi dies in the quotient by the
                   all-negative subcomplex },

and an acyclicity certificate by unit-pivot cancellation over the Laurent
coefficient ring.  Per Maslov level each U-orbit contributes exactly one
translate, so every slice that appears is finite and no truncation is ever
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from . import gf2
from .errors import NoTermination, NotAKnotComplex
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


def _column_levels(complex: FilteredComplex) -> dict[int, list[str]]:
    levels: dict[int, list[str]] = {}
    for g in complex.generators:
        levels.setdefault(g.maslov, []).append(g.name)
    return levels


def _column_boundary_masks(complex: FilteredComplex, sources: list[str],
                           target_index: dict[str, int]) -> list[int]:
    """Masks of the upower-0 differential of each source, over target bits."""
    masks = []
    for name in sources:
        mask = 0
        for a in complex.arrows_from(name):
            if a.upower == 0:
                mask ^= 1 << target_index[a.target]
        masks.append(mask)
    return masks


def hat_homology_ranks(complex: FilteredComplex) -> dict[int, int]:
    """Homology ranks of the i = 0 column, keyed by Maslov grading."""
    levels = _column_levels(complex)
    boundary_rank: dict[int, int] = {}
    for m, sources in levels.items():
        below = levels.get(m - 1, [])
        index = {name: k for k, name in enumerate(below)}
        boundary_rank[m] = gf2.rank_masks(
            _column_boundary_masks(complex, sources, index)
        )
    ranks = {}
    for m, names in levels.items():
        h = len(names) - boundary_rank.get(m, 0) - boundary_rank.get(m + 1, 0)
        if h:
            ranks[m] = h
    return ranks


def hat_generator(complex: FilteredComplex) -> Cycle:
    """Canonical cycle generating the column homology at grading zero."""
    ranks = hat_homology_ranks(complex)
    if ranks != {0: 1}:
        raise NotAKnotComplex(f"column homology ranks are {ranks}, expected one class at grading 0")
    level0 = sorted(_column_levels(complex).get(0, []))
    index0 = {name: k for k, name in enumerate(level0)}
    below = sorted(_column_levels(complex).get(-1, []))
    index_below = {name: k for k, name in enumerate(below)}
    above = sorted(_column_levels(complex).get(1, []))

    kernel = gf2.kernel_masks(
        _column_boundary_masks(complex, level0, index_below)
    )
    boundaries = _column_boundary_masks(complex, above, index0)
    for rep in gf2.coset_minima(kernel, boundaries):
        if rep:
            terms = tuple(
                (name, 0) for name in level0 if (rep >> index0[name]) & 1
            )
            return Cycle(terms=terms, maslov=0)
    raise NotAKnotComplex("no surviving cycle at grading 0")


def _quotient_basis(complex: FilteredComplex, level: int) -> dict[tuple[str, int], int]:
    """Translates at the Maslov level that avoid the i<0, j<0 subcomplex.

    U^k g sits at (-k, alexander - k); it stays in the quotient exactly when
    k <= max(0, alexander).
    """
    basis: dict[tuple[str, int], int] = {}
    for g in complex.generators:
        if (g.maslov - level) % 2:
            continue
        k = (g.maslov - level) // 2
        if k <= max(0, g.alexander):
            basis[(g.name, k)] = len(basis)
    return basis


def _dies_in_quotient(complex: FilteredComplex, terms: list[tuple[str, int]],
                      level: int) -> bool:
    """Is the class of the given chain zero in the i>=0-or-j>=0 quotient?

    The chain is a boundary there iff it equals d(y) plus a subcomplex
    element, which is a finite GF(2) solve over the two relevant slices.
    """
    rows = _quotient_basis(complex, level)
    cols = _quotient_basis(complex, level + 1)
    target = 0
    for name, k in terms:
        if (name, k) in rows:
            target ^= 1 << rows[(name, k)]
    if target == 0:
        return True
    columns = []
    for (name, k), _ in sorted(cols.items(), key=lambda kv: kv[1]):
        mask = 0
        for a in complex.arrows_from(name):
            key = (a.target, k + a.upower)
            if key in rows:
                mask ^= 1 << rows[key]
        columns.append(mask)
    return gf2.solve_masks(columns, target) is not None


def d1_general(complex: FilteredComplex) -> int:
    """Correction term of +1 surgery, by the U-power death search."""
    xi = hat_generator(complex)
    # U^(n+1) xi lands entirely in the subcomplex once n passes every term's
    # alexander grading, so the spread across the origin bounds the search
    alexanders = [g.alexander for g in complex.generators] or [0]
    cap = max(0, max(alexanders)) - min(0, min(alexanders)) + 4
    for n in range(cap + 1):
        shifted = [(name, k + n + 1) for name, k in xi.terms]
        if _dies_in_quotient(complex, shifted, xi.maslov - 2 * (n + 1)):
            return -2 * n
    raise NoTermination(f"no U-power of the generator died within {cap} steps")


def is_acyclic(complex: FilteredComplex) -> AcyclicityReport:
    """Cancel unit (monomial) pivots over GF(2)[U, U^-1] until none remain.

    Entries are sets of U-exponents; a pivot cancels a source/target pair and
    reroutes through the zig-zag rule.  Fully cancelled: acyclic.  Survivors
    with zero differential: nonacyclic, survivors are the witness classes.
    Nonzero non-monomial leftovers (impossible for graded complexes, where
    exponents are pinned): indeterminate.
    """
    out: dict[str, dict[str, set[int]]] = {g.name: {} for g in complex.generators}
    into: dict[str, set[str]] = {g.name: set() for g in complex.generators}
    for a in sorted(complex.arrows):
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
