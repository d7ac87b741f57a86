"""Independent reference answers for the benchmark's checker.

Nothing here imports cfktools.  The torus Alexander polynomial comes from
exact long division of (t^pq - 1)(t - 1) by (t^p - 1)(t^q - 1), the same
method as the test suite's oracle, written sparsely because the divisor has
four terms.  Staircase invariants are recomputed from vertex walks, and
delta of the double uses the O(V^2) vertex-pair form.  The double D(m) of
T(2, 2m+1) is described from its published generator table.
"""

from __future__ import annotations

import math


# -- torus knots and staircases ------------------------------------------------


def torus_alexander_pairs(p: int, q: int) -> list[tuple[int, int]]:
    """Symmetrized (exponent, coefficient) pairs of the T(p, q) Alexander polynomial."""
    num: dict[int, int] = {p * q + 1: 1, p * q: -1, 1: -1, 0: 1}
    den = {p + q: 1, p: -1, q: -1, 0: 1}  # leading coefficient 1
    top = p + q
    degree = p * q + 1 - top
    quotient: dict[int, int] = {}
    for k in range(degree, -1, -1):
        coeff = num.get(k + top, 0)
        if coeff:
            quotient[k] = coeff
            for e, d in den.items():
                num[k + e] = num.get(k + e, 0) - coeff * d
    if any(num.values()):
        raise ArithmeticError(f"division for T({p},{q}) is not exact")
    shift = (p - 1) * (q - 1) // 2
    return [(e - shift, c) for e, c in sorted(quotient.items()) if c]


def coprime_pairs(limit: int) -> list[tuple[int, int]]:
    """All (p, q) with 2 <= p < q <= limit and gcd 1, in table order (q, then p)."""
    return [
        (p, q)
        for q in range(3, limit + 1)
        for p in range(2, q)
        if math.gcd(p, q) == 1
    ]


def steps_from_pairs(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    exps = [e for e, _ in pairs]
    return tuple(b - a for a, b in zip(exps, exps[1:]))


def walk(steps: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Staircase vertices (i, j, grading) from the top-left corner."""
    i, j = 0, sum(steps[1::2])
    out = [(i, j, 0)]
    for pos, step in enumerate(steps):
        if pos % 2 == 0:
            i += step
        else:
            j -= step
        out.append((i, j, (pos + 1) % 2))
    return out


def d1_of(vs) -> int:
    return -2 * min(max(i, j) for i, j, _ in vs)


def delta_of(vs) -> int:
    """delta(D(K)) by the quadratic vertex-pair form."""
    best = None
    for ai, aj, _ in vs:
        for bi, bj, _ in vs:
            value = max(ai + bi, aj + bj)
            if best is None or value < best:
                best = value
    return -4 * best


def torus_steps(p: int, q: int) -> tuple[int, ...]:
    return steps_from_pairs(torus_alexander_pairs(p, q))


def parse_alexander(text: str) -> list[tuple[int, int]]:
    """Read a printed polynomial such as 't^-3 - t^-2 + 1 - t^2 + t^3' back into pairs."""
    pairs = []
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        coeff_text, _, power = token.partition("t")
        if "t" not in token:
            coeff, exp = int(token), 0
        else:
            coeff = int(coeff_text) if coeff_text else 1
            exp = int(power[1:]) if power.startswith("^") else 1
        pairs.append((exp, sign * coeff))
        sign = 1
    return sorted(pairs)


# -- complexes as plain data ---------------------------------------------------


def staircase_complex(steps: tuple[int, ...]) -> tuple[list, list]:
    """Generators (name, alexander, maslov) and arrows (from, to, upower) of a staircase.

    Grading-1 generators map to both neighbours; a horizontal step of
    length L becomes an arrow with U-power L.
    """
    vs = walk(steps)
    gens = [(f"a{k}", j - i, gr - 2 * i) for k, (i, j, gr) in enumerate(vs)]
    arrows = []
    for k in range(1, len(vs), 2):
        arrows.append((f"a{k}", f"a{k - 1}", steps[k - 1]))
        arrows.append((f"a{k}", f"a{k + 1}", 0))
    return gens, arrows


def tensor_square(steps: tuple[int, ...]) -> dict:
    """Complex JSON document of the staircase complex tensored with itself."""
    gens, arrows = staircase_complex(steps)
    doc_gens = [
        {"name": f"{g}.{h}", "alexander": ga + ha, "maslov": gm + hm}
        for g, ga, gm in gens
        for h, ha, hm in gens
    ]
    doc_arrows = []
    for s, t, u in arrows:
        for h, _, _ in gens:
            doc_arrows.append({"from": f"{s}.{h}", "to": f"{t}.{h}", "upower": u})
    for g, _, _ in gens:
        for s, t, u in arrows:
            doc_arrows.append({"from": f"{g}.{s}", "to": f"{g}.{t}", "upower": u})
    return {"generators": doc_gens, "arrows": doc_arrows}


def double_generators(m: int) -> dict[str, tuple[int, int]]:
    """Name -> (alexander, maslov) for the double of T(2, 2m+1), 16m - 1 generators."""
    gens: dict[str, tuple[int, int]] = {}
    for k in range(1, 2 * m + 1):
        gens[f"x{k}"] = (1, 0)
        gens[f"z{k}"] = (-1, -2)
    for k in range(1, 4 * m):
        gens[f"y{k}"] = (0, -1)
    for p in range(1, m + 1):
        for i in (1, 2):
            gens[f"u{p}_{i}"] = (1, 1 - 2 * p)
            gens[f"w{p}_{i}"] = (-1, -1 - 2 * p)
        for i in (1, 2, 3, 4):
            gens[f"v{p}_{i}"] = (0, -2 * p)
    return gens


def double_plan(m: int) -> list[list[str]]:
    """Staircase triple, box chains, then box towers: cross arrows run back only."""
    plan = [[f"y{2 * m}", "x1", "z1"]]
    for q in range(1, 2 * m):
        plan.append([f"y{2 * m + q}", f"x{q + 1}", f"z{q + 1}", f"y{q}"])
    for p in range(1, m + 1):
        for i in (1, 2):
            plan.append([f"v{p}_{i + 2}", f"u{p}_{i}", f"w{p}_{i}", f"v{p}_{i}"])
    return plan


def legal_plan_moves(m: int) -> list[tuple[str, str]]:
    """Basis changes y' = y + U^c x with y in a strictly later plan subset.

    Such a move only adds arrows that run from later subsets to earlier
    ones, so the plan stays admissible for cross-arrow elimination.
    """
    gens = double_generators(m)
    position = {n: k for k, sub in enumerate(double_plan(m)) for n in sub}
    moves = []
    for x in sorted(gens):
        ax, mx = gens[x]
        for y in sorted(gens):
            ay, my = gens[y]
            if position[y] <= position[x] or (mx - my) % 2:
                continue
            shift = (mx - my) // 2
            if shift >= 0 and ax - shift <= ay:
                moves.append((x, y))
    return moves


def complex_violation(gens: dict[str, tuple[int, int]], arrows) -> str | None:
    """First broken rule of a complex given as plain data, or None."""
    seen = set()
    for s, t, u in arrows:
        if (s, t, u) in seen:
            return f"duplicate arrow {s}->{t}"
        seen.add((s, t, u))
        if s not in gens or t not in gens:
            return f"loose arrow {s}->{t}"
        (sa, sm), (ta, tm) = gens[s], gens[t]
        if tm - 2 * u != sm - 1:
            return f"maslov rule broken by {s}->{t}"
        if u < 0 or ta - u > sa:
            return f"filtration rule broken by {s}->{t}"
    out: dict[str, list] = {}
    for s, t, u in arrows:
        out.setdefault(s, []).append((t, u))
    for g in gens:
        parity: dict[tuple[str, int], int] = {}
        for t, u in out.get(g, []):
            for t2, u2 in out.get(t, []):
                key = (t2, u + u2)
                parity[key] = parity.get(key, 0) ^ 1
        if any(parity.values()):
            return f"d squared is nonzero on {g}"
    return None


def component_sizes(names, arrows) -> list[int]:
    parent = {n: n for n in names}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for s, t, _ in arrows:
        parent[find(s)] = find(t)
    sizes: dict[str, int] = {}
    for n in names:
        root = find(n)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values())
