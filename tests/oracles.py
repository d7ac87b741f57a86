"""Independent oracles, kept free of the library's own code paths.

Plain coefficient-list polynomial division and brute-force enumeration,
used to cross-check the semigroup construction and the GF(2) routines, a
set-based component search that builds only the library's data type, the
O(V^2) pair loop for delta(D(K)) and the tensor product's vertices over a
walk of the step vector, the double's HFK-hat ranks by generator family, a
move-by-move diagonal elimination over plain arrow tuples, the column
homology over slices keyed by (generator, upower), the d1 search as one
span test per U-power, and the acyclicity certificate by repeated unit-pivot
search over sets of Laurent exponents.
"""

from __future__ import annotations

from collections.abc import Iterator

from cfktools import AcyclicityReport, FilteredComplex, Staircase, Vertex, hat_generator


def brute_semigroup(p: int, q: int, bound: int) -> list[int]:
    """{a*p + b*q} by a double loop."""
    members = set()
    a = 0
    while a * p <= bound:
        b = 0
        while a * p + b * q <= bound:
            members.add(a * p + b * q)
            b += 1
        a += 1
    return sorted(members)


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Long division, ascending coefficient lists; remainder must vanish."""
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        coeff, rem = divmod(num[k + len(den) - 1], den[-1])
        assert rem == 0, "division is not exact"
        quotient[k] = coeff
        for i, d in enumerate(den):
            num[k + i] -= coeff * d
    assert all(c == 0 for c in num), "nonzero remainder"
    return quotient


def torus_alexander_by_division(p: int, q: int) -> list[tuple[int, int]]:
    """Symmetrized coefficients of (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)).

    Returns sorted (exponent, coefficient) pairs centered by t^(-(p-1)(q-1)/2).
    """
    num = poly_mul([-1] + [0] * (p * q - 1) + [1], [-1, 1])
    den = poly_mul([-1] + [0] * (p - 1) + [1], [-1] + [0] * (q - 1) + [1])
    quotient = poly_divide_exact(num, den)
    shift = (p - 1) * (q - 1) // 2
    return [(e - shift, c) for e, c in enumerate(quotient) if c]


def brute_solve_gf2(rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """Try all 2^n candidate vectors."""
    ncols = len(rows[0]) if rows else 0
    for bits in range(1 << ncols):
        x = [(bits >> j) & 1 for j in range(ncols)]
        if all(
            sum(rows[i][j] * x[j] for j in range(ncols)) % 2 == rhs[i] % 2
            for i in range(len(rows))
        ):
            return x
    return None


def brute_span(columns: list[int]) -> dict[int, int]:
    """Every XOR of a subset of columns, mapped to the smallest subset mask giving it."""
    span: dict[int, int] = {}
    for subset in range(1 << len(columns)):
        total = 0
        for j, col in enumerate(columns):
            if (subset >> j) & 1:
                total ^= col
        span.setdefault(total, subset)
    return span


def brute_rank(columns: list[int]) -> int:
    """log2 of the span's size."""
    return len(brute_span(columns)).bit_length() - 1


def reference_split_summands(complex: FilteredComplex) -> list[FilteredComplex]:
    """Connected components by a neighbour-set search, in first-generator order."""
    neighbours: dict[str, set[str]] = {g.name: set() for g in complex.generators}
    for a in complex.arrows:
        neighbours[a.source].add(a.target)
        neighbours[a.target].add(a.source)
    seen: set[str] = set()
    components: list[FilteredComplex] = []
    for g in complex.generators:
        if g.name in seen:
            continue
        stack, block = [g.name], set()
        while stack:
            name = stack.pop()
            if name in block:
                continue
            block.add(name)
            stack.extend(sorted(neighbours[name] - block))
        seen |= block
        gens = [x for x in complex.generators if x.name in block]
        arrows = [a for a in sorted(complex.arrows) if a.source in block]
        components.append(FilteredComplex(gens, arrows))
    return components


def _walk(stair: Staircase) -> list[Vertex]:
    """The vertices, walked from the step vector: corners grading 0, the rest 1."""
    i, j = 0, sum(stair.steps[1::2])
    points = [Vertex(i, j, 0)]
    for pos, step in enumerate(stair.steps):
        if pos % 2 == 0:
            i += step
        else:
            j -= step
        points.append(Vertex(i, j, (pos + 1) % 2))
    return points


def reference_delta_whitehead(stair: Staircase) -> int:
    """-4 * min over ordered vertex pairs of max(i+k, j+l), every pair tried."""
    points = _walk(stair)
    return -4 * min(max(a.i + b.i, a.j + b.j) for a in points for b in points)


def tensor_vertex_multiset(s1: Staircase, s2: Staircase) -> list[Vertex]:
    """Pairwise coordinate sums with summed gradings, the vertices of the tensor product."""
    second = _walk(s2)
    return [Vertex(a.i + b.i, a.j + b.j, a.gr + b.gr) for a in _walk(s1) for b in second]


def hfk_hat_double(m: int) -> dict[tuple[int, int], int]:
    """HFK-hat ranks of D(T(2, 2m+1)), keyed by (alexander, maslov), by family."""
    table: dict[tuple[int, int], int] = {
        (1, 0): 2 * m,
        (0, -1): 4 * m - 1,
        (-1, -2): 2 * m,
    }
    for p in range(1, m + 1):
        table[(1, 1 - 2 * p)] = table.get((1, 1 - 2 * p), 0) + 2
        table[(0, -2 * p)] = table.get((0, -2 * p), 0) + 4
        table[(-1, -1 - 2 * p)] = table.get((-1, -1 - 2 * p), 0) + 2
    return table


def _legal_shift(gens: dict, x: str, y: str) -> int | None:
    """U-power of the basis change y' = y + U^shift x, or None if it is illegal."""
    gx, gy = gens[x], gens[y]
    if x == y or (gx.maslov - gy.maslov) % 2:
        return None
    shift = (gx.maslov - gy.maslov) // 2
    if shift < 0 or gx.alexander - shift > gy.alexander:
        return None
    return shift


def _apply_move(arrows: set, x: str, y: str, shift: int) -> set:
    """Arrows after y' = y + U^shift x: copies onto x of the arrows into y, and
    copies leaving y of the arrows out of x, each toggled in on its own."""
    out = set(arrows)
    for source, target, upower in arrows:
        if target == y:
            out ^= {(source, x, upower + shift)}
    for source, target, upower in arrows:
        if source == x:
            out ^= {(y, target, upower + shift)}
    return out


def reference_remove_diagonals(
    complex: FilteredComplex, plan: list[list[str]]
) -> list[set[tuple[str, str, int]]]:
    """Arrows (source, target, upower) after clearing each plan pair in turn.

    Pairs run back to front.  A pair's candidate moves are the legal moves x
    into y, x in the earlier subset and y in the later one, y then x in name
    order; a move's column is the set of cross slots (source, target) it
    flips.  The moves applied are the unique expression of the pair's cross
    slots over the columns independent of the columns before them, read off
    an enumeration of their span, and they are applied one at a time.  Which
    columns those are decides the arrows a pair leaves toward earlier
    subsets, so the result after each pair pins the choice.
    """
    gens = {g.name: g for g in complex.generators}
    arrows = {(a.source, a.target, a.upower) for a in complex.arrows}
    after_each_pair = []
    for hi in range(len(plan) - 1, 0, -1):
        for lo in range(hi - 1, -1, -1):
            his, los = set(plan[hi]), set(plan[lo])

            def cross(arrow_set):
                return frozenset((s, t) for s, t, _ in arrow_set if s in his and t in los)

            target = cross(arrows)
            span: dict[frozenset, list] = {frozenset(): []}
            for y in sorted(his) if target else []:
                for x in sorted(los):
                    shift = _legal_shift(gens, x, y)
                    if shift is None:
                        continue
                    column = cross(_apply_move(arrows, x, y, shift)) ^ target
                    if column not in span:
                        span.update({v ^ column: [*m, (x, y, shift)] for v, m in span.items()})
            assert target in span, f"no moves clear subset {hi} from subset {lo}"
            for x, y, shift in span[target]:
                arrows = _apply_move(arrows, x, y, shift)
            after_each_pair.append(arrows)
    return after_each_pair


def _in_span(columns: list[int], target: int) -> bool:
    """Is target an XOR of some of the columns?  An XOR basis kept in
    descending order, so each vector has a distinct leading bit."""
    basis: list[int] = []
    for col in columns:
        for b in basis:
            col = min(col, col ^ b)
        if col:
            basis = sorted(basis + [col], reverse=True)
    for b in basis:
        target = min(target, target ^ b)
    return target == 0


def _xor_basis(columns: list[int]) -> list[tuple[int, int]]:
    """(vector, combination) rows spanning the columns, in descending order so
    each has a distinct leading bit; a combination is a mask over the columns
    that XOR to its vector.  Columns that reduce to zero are kernel elements,
    returned as rows with vector 0 after the basis rows."""
    basis: list[tuple[int, int]] = []
    kernel: list[tuple[int, int]] = []
    for j, col in enumerate(columns):
        combo = 1 << j
        for vec, vcombo in basis:
            if col ^ vec < col:
                col, combo = col ^ vec, combo ^ vcombo
        if col:
            basis = sorted(basis + [(col, combo)], reverse=True)
        else:
            kernel.append((0, combo))
    return basis + kernel


def _column_slice(complex: FilteredComplex, level: int) -> dict[tuple[str, int], int]:
    """Bit index of each translate U^0 g with g at the Maslov level."""
    index: dict[tuple[str, int], int] = {}
    for g in complex.generators:
        drop = g.maslov - level
        if drop % 2 == 0 and drop // 2 == 0:
            index[(g.name, 0)] = len(index)
    return index


def _column_boundaries(complex: FilteredComplex, sources: dict[tuple[str, int], int],
                       targets: dict[tuple[str, int], int]) -> list[int]:
    """Differential of each source translate, as a mask over the target bits."""
    masks = []
    for name, k in sources:
        mask = 0
        for a in complex.arrows:
            if a.source == name:
                bit = targets.get((a.target, k + a.upower))
                if bit is not None:
                    mask ^= 1 << bit
        masks.append(mask)
    return masks


def reference_hat_ranks(complex: FilteredComplex) -> dict[int, int]:
    """Column homology ranks: each level's size less the ranks of the boundary
    out of it and into it."""
    def boundary_rank(m: int) -> int:
        masks = _column_boundaries(complex, _column_slice(complex, m), _column_slice(complex, m - 1))
        return sum(1 for vec, _ in _xor_basis(masks) if vec)

    ranks = {}
    for m in sorted({g.maslov for g in complex.generators}):
        h = len(_column_slice(complex, m)) - boundary_rank(m) - boundary_rank(m + 1)
        if h:
            ranks[m] = h
    return ranks


def reference_hat_generator(complex: FilteredComplex) -> tuple[tuple[str, int], ...]:
    """Terms of the least grading-0 cycle that is no boundary, its bits in
    name order: a kernel vector outside the boundary span, reduced to the
    minimum of its coset."""
    assert reference_hat_ranks(complex) == {0: 1}
    level0 = {key: bit for bit, key in enumerate(sorted(_column_slice(complex, 0)))}
    below, above = _column_slice(complex, -1), _column_slice(complex, 1)
    cycles = [combo for vec, combo in _xor_basis(_column_boundaries(complex, level0, below))
              if not vec]
    boundaries = [vec for vec, _ in _xor_basis(_column_boundaries(complex, above, level0)) if vec]
    for cycle in cycles:
        for vec in boundaries:
            cycle = min(cycle, cycle ^ vec)
        if cycle:
            return tuple(key for key, bit in level0.items() if (cycle >> bit) & 1)
    raise AssertionError("every grading-0 cycle is a boundary")


def d1_search_cap(complex: FilteredComplex) -> int:
    """Last U-power the probe loop tries: the Alexander spread plus 4."""
    alexanders = [g.alexander for g in complex.generators] or [0]
    return max(0, max(alexanders)) - min(0, min(alexanders)) + 4


def reference_probes(complex: FilteredComplex) -> Iterator[bool]:
    """For n = 0, 1, ... up to the cap: is U^(n+1) * xi a boundary modulo
    the i<0, j<0 subcomplex?

    Each probe rebuilds the slices at its own levels: at Maslov level m the
    translate U^k g with k = (maslov - m) / 2 is kept while k <= max(0, A).
    """
    xi = hat_generator(complex).terms
    out: dict[str, list[tuple[str, int]]] = {g.name: [] for g in complex.generators}
    for a in complex.arrows:
        out[a.source].append((a.target, a.upower))

    def translates(m: int) -> list[tuple[str, int]]:
        kept = []
        for g in complex.generators:
            k, odd = divmod(g.maslov - m, 2)
            if not odd and k <= max(0, g.alexander):
                kept.append((g.name, k))
        return kept

    for n in range(d1_search_cap(complex) + 1):
        level = -2 * (n + 1)
        rows = {key: bit for bit, key in enumerate(translates(level))}
        target = 0
        for name, k in xi:
            if (name, k + n + 1) in rows:
                target ^= 1 << rows[(name, k + n + 1)]
        columns = []
        for name, k in translates(level + 1):
            col = 0
            for head, upower in out[name]:
                if (head, k + upower) in rows:
                    col ^= 1 << rows[(head, k + upower)]
            columns.append(col)
        yield _in_span(columns, target)


def reference_d1(complex: FilteredComplex) -> int:
    """-2 * the first n whose probe dies."""
    for n, dies in enumerate(reference_probes(complex)):
        if dies:
            return -2 * n
    raise AssertionError("no probe died within the cap")


def reference_is_acyclic(complex: FilteredComplex) -> AcyclicityReport:
    """Cancel unit (monomial) pivots over GF(2)[U, U^-1] until none remain.

    Entries are sets of U-exponents; each pivot is the first single-exponent
    entry in name order, found by a fresh scan, and cancels a source/target
    pair through the zig-zag rule.  Fully cancelled: acyclic.  Survivors with
    zero differential: nonacyclic.  Nonzero non-monomial leftovers:
    indeterminate.
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
