"""Independent oracles, kept free of the library's own code paths.

Plain coefficient-list polynomial division and brute-force enumeration,
used to cross-check the semigroup construction and the GF(2) routines, the
GF(2) solve, kernel and class-cycle search over a pivot table that keeps
each row's combination in a side table, a
Laurent polynomial's text written term by term, a
set-based component search that builds only the library's data type, the
isomorphism up to grading shifts by a search over permutations, the
tensor product over generator names, the O(V^2) pair loop for delta(D(K)) and the tensor product's vertices over a
walk of the step vector, the double's HFK-hat ranks by generator family and
its report as plain dicts, a
move-by-move diagonal elimination over plain arrow tuples, the column
homology over slices keyed by (generator, upower), the d1 search as one
span test per U-power, the acyclicity certificate by repeated unit-pivot
search over sets of Laurent exponents, the double's complex from named
generators and arrows, the SVG diagram laid out by generator name, the
naming defect validate reports of named lists, the complex document read
record by record and field by field, and validate's checks over named
arrows with d² counted path by path.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import permutations
from xml.sax.saxutils import escape

from cfktools import (
    AcyclicityReport,
    Arrow,
    CFKError,
    FilteredComplex,
    Generator,
    NotAKnotComplex,
    Staircase,
    Vertex,
    hat_generator,
)
from cfktools.diagrams import CELL, DOT_RADIUS, PAD_CELLS


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


def poly_string(coeffs: dict[int, int]) -> str:
    """The text of the Laurent polynomial with these nonzero terms, one term at a time."""
    if not coeffs:
        return "0"
    parts: list[str] = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if e == 0:
            mon = ""
        elif e == 1:
            mon = "t"
        else:
            mon = f"t^{e}"
        if mon:
            body = mon if abs(c) == 1 else f"{abs(c)}{mon}"
        else:
            body = str(abs(c))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


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


class CombinationTable:
    """The pivot table as it was before gf2 shifted its rows: a row inserted
    with a combination, a mask over the input columns that XOR to it, keeps
    that combination in a side table."""

    __slots__ = ("rows", "combos", "bits")

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}  # leading bit -> vector
        self.combos: dict[int, int] = {}  # leading bit -> combination, if inserted with one
        self.bits = 0  # mask of the leading bits in rows

    def reduce(self, vector: int) -> int:
        """Clear every pivot bit of vector; returns the residue."""
        rows, bits = self.rows, self.bits
        hits = vector & bits
        while hits:
            vector ^= rows[hits.bit_length() - 1]
            hits = vector & bits
        return vector

    def reduce_combo(self, vector: int, combo: int) -> tuple[int, int]:
        """reduce, adding to combo the combination of each row it adds to vector."""
        rows, combos, bits = self.rows, self.combos, self.bits
        hits = vector & bits
        while hits:
            lead = hits.bit_length() - 1
            vector ^= rows[lead]
            combo ^= combos[lead]
            hits = vector & bits
        return vector, combo

    def insert(self, vector: int, combo: int | None = None) -> tuple[int, int | None]:
        """Reduce vector, with its combination if given, and store the residue
        when it is nonzero; returns (residue, combination)."""
        if combo is None:
            vector = self.reduce(vector)
        else:
            vector, combo = self.reduce_combo(vector, combo)
        if vector:
            lead = vector.bit_length() - 1
            self.rows[lead] = vector
            if combo is not None:
                self.combos[lead] = combo
            self.bits |= 1 << lead
        return vector, combo


def _table(columns: Iterable[int], combos: bool = False) -> CombinationTable:
    table = CombinationTable()
    for j, col in enumerate(columns):
        table.insert(col, 1 << j if combos else None)
    return table


def reference_solve_masks(columns: Sequence[int], target: int) -> int | None:
    """Find a subset of columns XOR-ing to target.

    Returns the subset as a bitmask over column indices, or None when the
    target lies outside the span.
    """
    residue, combo = _table(columns, combos=True).reduce_combo(target, 0)
    return combo if residue == 0 else None


def reference_kernel_masks(columns: Sequence[int]) -> list[int]:
    """Basis of {x : sum of selected columns = 0}, as masks over column indices.

    One vector per column that reduces to zero: the column plus the earlier
    independent columns that cancel it.
    """
    table = CombinationTable()
    inserted = (table.insert(col, 1 << j) for j, col in enumerate(columns))
    return [combo for residue, combo in inserted if not residue]


def reference_class_cycle(column: dict[int, tuple[list[int], list[int]]],
                          level: int) -> list[int]:
    """homology._class_cycle by two tables: the first kernel vector of the
    level's differential whose minimum modulo the boundaries into the level
    is not zero, as the positions of that minimum."""
    members, masks = column[level]
    kernel = reference_kernel_masks(masks)
    boundaries = _table(column[level + 1][1] if level + 1 in column else [])
    for rep in (boundaries.reduce(v) for v in kernel):
        if rep:
            return [p for bit, p in enumerate(members) if (rep >> bit) & 1]
    raise NotAKnotComplex(f"no surviving cycle at grading {level}")


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


def reference_naming_defect(generators: list, arrows: list) -> str | None:
    """validate's report of a repeated name, or else of the least arrow with
    an end that names no generator, or None; over plain named lists."""
    names = [g[0] for g in generators]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        return f"duplicate-name: generator names {repeated} repeat"
    loose = sorted(tuple(a) for a in arrows if a[0] not in names or a[1] not in names)
    if loose:
        return f"unknown-generator: arrow {loose[0][0]}->{loose[0][1]} has a loose end"
    return None


def reference_unwritable_char(name: str) -> str | None:
    """The first character of name outside XML 1.0's Char production, or
    tab, LF or CR, which names may not hold either; else None."""
    for char in name:
        code = ord(char)
        if not (0x20 <= code <= 0xD7FF or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF):
            return char
    return None


def _typed(record: dict, key: str, kind: type):
    value = record[key]
    if type(value) is not kind:
        raise ValueError(
            f"malformed complex document: {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def reference_complex_from_json_dict(data: dict) -> FilteredComplex:
    """The complex a document describes, read record by record and field by
    field: the first malformed field in document order, then duplicate
    arrows, raise ValueError; then the first name, generators' then arrow
    ends', that reference_unwritable_char finds a character in, then the
    naming defect, raise CFKError."""
    try:
        gens = [
            Generator(_typed(g, "name", str), _typed(g, "alexander", int), _typed(g, "maslov", int))
            for g in data["generators"]
        ]
        arrows = [
            Arrow(_typed(a, "from", str), _typed(a, "to", str), _typed(a, "upower", int))
            for a in data["arrows"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex document: {exc}") from exc
    if len(set(arrows)) != len(arrows):
        raise ValueError("malformed complex document: duplicate arrows")
    for name in [g.name for g in gens] + [end for a in arrows for end in (a.source, a.target)]:
        char = reference_unwritable_char(name)
        if char is not None:
            raise CFKError(f"unwritable-name: name {name!r} holds {char!r}; names hold "
                           f"no C0 control character, lone surrogate, U+FFFE or U+FFFF")
    defect = reference_naming_defect(gens, arrows)
    if defect:
        raise CFKError(defect)
    return FilteredComplex(gens, arrows)


def reference_validate(complex: FilteredComplex) -> str | None:
    """validate's report over named arrows: the least arrow that breaks the
    Maslov rule or a filtration, else the first generator, in the complex's
    order, some (end, upower) of whose two-step paths occur an odd number of
    times, each path counted."""
    gens = {g.name: g for g in complex.generators}
    for a in sorted(complex.arrows):
        s, t = gens[a.source], gens[a.target]
        if t.maslov - 2 * a.upower != s.maslov - 1:
            return (
                f"maslov: arrow {a.source}->{a.target} (upower {a.upower}) "
                f"does not drop the grading by one"
            )
        if a.upower < 0 or t.alexander - a.upower > s.alexander:
            return (
                f"filtration: arrow {a.source}->{a.target} (upower {a.upower}) "
                f"raises a filtration level"
            )
    out: dict[str, list[Arrow]] = {name: [] for name in gens}
    for a in complex.arrows:
        out[a.source].append(a)
    for g in complex.generators:
        paths = Counter(
            (second.target, first.upower + second.upower)
            for first in out[g.name]
            for second in out[first.target]
        )
        odd = sorted(path for path, count in paths.items() if count % 2)
        if odd:
            return f"d-squared: d²({g.name}) contains {odd}"
    return None


def reference_tensor(c1: FilteredComplex, c2: FilteredComplex) -> FilteredComplex:
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


def reference_knot_report(knot: str, stair: Staircase) -> dict:
    """The torus or staircase report, one dict per vertex and one
    [exponent, coefficient] list per Alexander term, read off the walk."""
    points = _walk(stair)
    # a vertex of grading gr is the term (-1)^gr t^(j - i)
    terms = sorted((v.j - v.i, 1 - 2 * v.gr) for v in points)
    return {
        "knot": knot,
        "steps": list(stair.steps),
        "alexander": poly_string(dict(terms)),
        "tau": points[0].j,
        "d1": -2 * min(max(v.i, v.j) for v in points),
        # each vertex's best partner is its mirror (j, i), as staircase.py
        # proves and reference_delta_whitehead checks pair by pair
        "delta_whitehead": -4 * min(v.i + v.j for v in points),
        "alexander_pairs": [[e, c] for e, c in terms],
        "vertices": [{"i": v.i, "j": v.j, "gr": v.gr} for v in points],
    }


def reference_report_text(report: dict) -> str:
    """The text report of a reference_knot_report, each value two spaces
    past the longest key."""
    rows = [
        ("knot", report["knot"]),
        ("alexander", report["alexander"]),
        ("staircase", ",".join(str(s) for s in report["steps"]) or "(unknot)"),
        ("vertices", " ".join(f"({v['i']},{v['j']})" for v in report["vertices"])),
        ("tau", report["tau"]),
        ("d1", report["d1"]),
        ("delta_whitehead", report["delta_whitehead"]),
    ]
    return "\n".join(f"{key:<15}  {value}" for key, value in rows)


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


def reference_double_report(m: int, verified: bool) -> dict:
    """The double report of D(T(2, 2m+1)), its hat ranks as one dict per
    (alexander, maslov) family and counts read off the named build; with
    verified, its trefoil summand beside 4m - 1 acyclic boxes, and delta(D^2)
    as the trefoil's delta(D(K))."""
    complex = reference_double_complex(m)
    ranks = sorted(hfk_hat_double(m).items(), reverse=True)
    report = {
        "knot": f"D(T(2,{2 * m + 1}))",
        "generators": len(complex.generators),
        "arrows": len(complex.arrows),
        "valid": True,
        "hfk_ranks": [{"alexander": a, "maslov": mm, "rank": r} for (a, mm), r in ranks],
    }
    if verified:
        report["splitting"] = {
            "trefoil_summand": True,
            "acyclic_rest": True,
            "components": [3] + [4] * (4 * m - 1),
            "trefoil_index": 0,
            "rest_verdict": "certified-acyclic",
        }
        report["delta_double_double"] = reference_delta_whitehead(Staircase((1, 1)))
    return report


def reference_double_text(report: dict) -> str:
    """The text report of a reference_double_report, each value two spaces
    past the longest key."""
    rows = [
        ("knot", report["knot"]),
        ("generators", report["generators"]),
        ("arrows", report["arrows"]),
        ("valid", report["valid"]),
        ("hat ranks", "(alexander, maslov) -> rank"),
    ]
    rows += [("", f"({r['alexander']},{r['maslov']}) -> {r['rank']}") for r in report["hfk_ranks"]]
    if "splitting" in report:
        split = report["splitting"]
        rows.append(("splitting", f"trefoil={split['trefoil_summand']} "
                     f"acyclic_rest={split['acyclic_rest']} components={split['components']}"))
        rows.append(("delta(D^2)", report["delta_double_double"]))
    return "\n".join(f"{key:<10}  {value}" for key, value in rows)


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
) -> list[tuple[int, int, set[tuple[str, str, int]]]]:
    """(hi, lo, arrows (source, target, upower)) after clearing each plan pair
    that holds cross arrows, in turn.

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
            if not target:
                continue
            span: dict[frozenset, list] = {frozenset(): []}
            for y in sorted(his):
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
            after_each_pair.append((hi, lo, arrows))
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


def reference_double_complex(m: int) -> FilteredComplex:
    """D(T(2, 2m+1)) built from named Generators and Arrows, family by family."""
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


def _named_columns(complex: FilteredComplex, arrows: list[Arrow]) -> dict[str, int]:
    """Column of each generator, walking neighbours in the order of arrows."""
    neighbours: dict[str, list[tuple[str, int]]] = {g.name: [] for g in complex.generators}
    for a in arrows:
        neighbours[a.source].append((a.target, -a.upower))
        neighbours[a.target].append((a.source, a.upower))
    cols: dict[str, int] = {}
    for g in complex.generators:
        if g.name in cols:
            continue
        cols[g.name] = 0
        queue = deque([g.name])
        while queue:
            name = queue.popleft()
            for other, offset in neighbours[name]:
                if other not in cols:
                    cols[other] = cols[name] + offset
                    queue.append(other)
    return cols


def reference_svg_for_complex(complex: FilteredComplex) -> str:
    """The diagram with every step keyed by generator name: columns by a
    breadth-first walk over name-keyed neighbours, dots in a dict by name.
    The grid cap is not checked."""
    ordered = sorted(complex.arrows)
    cols = _named_columns(complex, ordered)
    dots = {
        g.name: (cols[g.name], g.alexander + cols[g.name])
        for g in complex.generators
    }
    arrows = []
    for a in ordered:
        x0, y0 = dots[a.source]
        x1, y1 = dots[a.target]
        # the target's translate at column x0 - upower, on its own diagonal
        tip = (x0 - a.upower, y1 - x1 + x0 - a.upower)
        arrows.append(((x0, y0), tip))

    points = list(dots.values()) + [tip for _, tip in arrows]
    if not points:
        points = [(0, 0)]
    imin = min(p[0] for p in points) - PAD_CELLS
    imax = max(p[0] for p in points) + PAD_CELLS
    jmin = min(p[1] for p in points) - PAD_CELLS
    jmax = max(p[1] for p in points) + PAD_CELLS
    columns, rows = imax - imin + 1, jmax - jmin + 1
    width = columns * CELL
    height = rows * CELL

    def cx(i: int) -> float:
        return (i - imin + 0.5) * CELL

    def cy(j: int) -> float:
        return (jmax - j + 0.5) * CELL

    def edge_x(i: int) -> float:
        return (i - imin) * CELL

    def edge_y(j: int) -> float:
        return (jmax - j + 1) * CELL

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        "<defs>"
        '<marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker>'
        "</defs>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(imin, imax + 2):
        lines.append(
            f'<line class="grid" x1="{edge_x(i)}" y1="0" x2="{edge_x(i)}" '
            f'y2="{height}" stroke="#dddddd" stroke-width="1"/>'
        )
    for j in range(jmin - 1, jmax + 1):
        lines.append(
            f'<line class="grid" x1="0" y1="{edge_y(j)}" x2="{width}" '
            f'y2="{edge_y(j)}" stroke="#dddddd" stroke-width="1"/>'
        )
    # both walls of the zero row and zero column, like a marked axis pair
    for i in (0, 1):
        lines.append(
            f'<line class="axis" x1="{edge_x(i)}" y1="0" x2="{edge_x(i)}" '
            f'y2="{height}" stroke="#555555" stroke-width="2"/>'
        )
    for j in (-1, 0):
        lines.append(
            f'<line class="axis" x1="0" y1="{edge_y(j)}" x2="{width}" '
            f'y2="{edge_y(j)}" stroke="#555555" stroke-width="2"/>'
        )
    for (x0, y0), (x1, y1) in arrows:
        sx, sy, tx, ty = cx(x0), cy(y0), cx(x1), cy(y1)
        dx, dy = tx - sx, ty - sy
        norm = (dx * dx + dy * dy) ** 0.5 or 1.0
        trim = DOT_RADIUS + 2
        lines.append(
            f'<line class="arrow" x1="{sx + dx / norm * trim:.1f}" '
            f'y1="{sy + dy / norm * trim:.1f}" '
            f'x2="{tx - dx / norm * trim:.1f}" y2="{ty - dy / norm * trim:.1f}" '
            f'stroke="black" stroke-width="1.5" marker-end="url(#tip)"/>'
        )
    for name in sorted(dots):
        i, j = dots[name]
        lines.append(
            f'<circle class="dot" cx="{cx(i)}" cy="{cy(j)}" r="{DOT_RADIUS}">'
            f"<title>{escape(name)}</title></circle>"
        )
    lines.append("</svg>")
    return "\n".join(lines)
