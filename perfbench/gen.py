"""Seeded request pools for the four workloads.

Every pool is stratified: each stratum fixes the shape of its requests (verb,
input size band) and the seed picks the instances inside it.  Keeping the
strata fixed keeps a pass's cost and its latency quantiles nearly the same
from seed to seed, while the instances still change with the seed.

A request is a plain dict: ``kind`` ("cli" or "eliminate"), what the client
needs to issue it (``args``, or ``m`` and ``moves``), the file an SVG verb
writes (``svg``), the parameters the checker needs (``check``) and the input
sizes (``sizes``: generators, arrows, vertices).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from oracles import (
    coprime_pairs,
    delta_of,
    legal_plan_moves,
    tensor_square,
    torus_steps,
    walk,
)

WORKLOADS = ("torus-table", "complexes", "d1-squares", "doubles", "elimination")
# the workloads BENCHMARK.json lists.  complexes mixes smaller strata of the
# last three, which run on their own to trace one mechanism at a time.
BENCHMARKED = ("torus-table", "complexes")


def _sizes(generators=0, arrows=0, vertices=0) -> dict:
    return {"generators": generators, "arrows": arrows, "vertices": vertices}


def _cli(args, check, sizes, svg=None) -> dict:
    return {"kind": "cli", "args": [str(a) for a in args], "svg": svg,
            "check": check, "sizes": sizes}


def _torus_table(rng: random.Random, files: dict) -> list[dict]:
    # every coprime pair with q <= 30, sorted by vertex count and taken in
    # consecutive twos; the seed keeps one pair of each two and picks its verb
    pairs = sorted(coprime_pairs(30), key=lambda pq: (len(torus_steps(*pq)), pq[1], pq[0]))
    pool = []
    for k in range(0, len(pairs), 2):
        p, q = rng.choice(pairs[k:k + 2])
        sizes = _sizes(vertices=len(torus_steps(p, q)) + 1)
        if p >= 3 and rng.random() < 0.5:
            pool.append(_cli(["--json", "classify", "torus", p, q],
                             {"type": "classify", "p": p, "q": q}, sizes))
        else:
            pool.append(_cli(["--json", "torus", p, q],
                             {"type": "torus", "p": p, "q": q}, sizes))
    for n in _TORUS_TABLES:
        rows = coprime_pairs(n)
        pool.append(_cli(
            ["table", "--family", f"torus:{n}", "--format", "csv"],
            {"type": "torus-table", "n": n},
            _sizes(vertices=sum(len(torus_steps(p, q)) + 1 for p, q in rows)),
        ))
    return pool


_TORUS_TABLES = (11, 13, 15, 17)

# (template torus knot, torus squares, staircase squares) per size band.  A
# staircase square squares a palindromic staircase whose half is a seeded
# shuffle of the template's half, drawn until its d1 is the band's fixed
# target, so the seed changes the complexes but not their generator count,
# their arrow count or the number of probes the d1 search makes.  The
# counts put the median inside the 25-generator band and p90 among the
# staircase squares of the 289 band.
_SQUARE_BANDS = (
    ((2, 5), 16, 15), ((3, 4), 16, 15),                   # 25 generators
    ((2, 9), 3, 2), ((3, 7), 3, 2), ((5, 6), 3, 2),      # 81
    ((5, 7), 11, 11),                                     # 289
    ((7, 11), 1, 3),                                      # 961
)


def _half_shuffles(steps: tuple[int, ...], rng: random.Random):
    half = list(steps[: len(steps) // 2])
    while True:
        rng.shuffle(half)
        yield tuple(half + half[::-1])


def _square_d1(steps: tuple[int, ...]) -> int:
    return delta_of(walk(steps)) // 2


def _d1_target(p: int, q: int) -> int:
    """The commonest d1 among 64 fixed shuffles of T(p, q)'s staircase."""
    shuffles = _half_shuffles(torus_steps(p, q), random.Random(f"d1-target:{p},{q}"))
    values = [_square_d1(next(shuffles)) for _ in range(64)]
    return max(sorted(set(values)), key=values.count)


def _d1_squares(rng: random.Random, files: dict, bands=_SQUARE_BANDS) -> list[dict]:
    chosen = []
    for (p, q), tori, stairs in bands:
        steps = torus_steps(p, q)
        chosen += [(f"T({p},{q})", steps)] * tori
        target = _d1_target(p, q)
        shuffles = _half_shuffles(steps, rng)
        for _ in range(stairs):
            stair = next(s for s in shuffles if _square_d1(s) == target)
            chosen.append(("St(" + ",".join(map(str, stair)) + ")", stair))
    pool = []
    for k, (knot, steps) in enumerate(chosen):
        name = f"sq_{k:03d}.json"
        doc = tensor_square(steps)
        files[name] = json.dumps(doc, separators=(",", ":")).encode()
        v = len(steps) + 1
        pool.append(_cli(["--json", "d1", "--complex", name],
                         {"type": "d1", "knot": knot, "steps": list(steps), "file": name},
                         _sizes(len(doc["generators"]), len(doc["arrows"]), v)))
    return pool


def _double_sizes(m: int) -> dict:
    return _sizes(16 * m - 1, 16 * m - 2)


# (m of each double --delta2, M of each t2 table, repeats of each classify,
# double diagram and torus diagram)
_DOUBLES = ((10, 6, 4, 3, 2, 1), (9, 6, 4, 2), 2, 3, 4)


def _doubles(rng: random.Random, files: dict, strata=_DOUBLES) -> list[dict]:
    # the requests are fixed, so every seed times the same mix; the seed
    # sets their order
    deltas, tables, classifies, diagrams, tori = strata
    pool = []
    for m in deltas:
        pool.append(_cli(["--json", "double", m, "--verify", "--delta2"],
                         {"type": "double", "m": m}, _double_sizes(m)))
    for big_m in tables:
        pool.append(_cli(["table", "--family", f"t2:{big_m}"],
                         {"type": "t2-table", "m": big_m},
                         _sizes(sum(16 * m - 1 for m in range(1, big_m + 1)),
                                sum(16 * m - 2 for m in range(1, big_m + 1)),
                                sum(2 * m + 1 for m in range(1, big_m + 1)))))
    for m in list(range(1, 11)) * classifies:
        pool.append(_cli(["--json", "classify", "torus", 2, 2 * m + 1],
                         {"type": "classify-t2", "m": m}, _double_sizes(m)))
    for m in list(range(1, 11)) * diagrams:
        svg = f"svg_{len(pool):03d}.svg"
        pool.append(_cli(["diagram", "double", m, "--svg", svg],
                         {"type": "svg", "circles": 16 * m - 1, "svg": svg},
                         _double_sizes(m), svg))
    # T(3, q) for the ten q that give 5, 7, ..., 23 vertices: a grid's size
    # follows tau, which varies widely among knots with one vertex count
    for q in (4, 5, 7, 8, 10, 11, 13, 14, 16, 17) * tori:
        p, v = 3, len(torus_steps(3, q)) + 1
        svg = f"svg_{len(pool):03d}.svg"
        pool.append(_cli(["diagram", "torus", p, q, "--svg", svg, "--tensor-square"],
                         {"type": "svg", "circles": v * v, "svg": svg},
                         _sizes(v * v, 2 * v * (v - 1), v), svg))
    return pool


# requests per m; the counts put the median near the middle of the m = 4
# block and p90 near the middle of the m = 8 block, away from the
# boundaries between blocks, where a seed's moves would shift them most
_ELIMINATION_COUNTS = {1: 14, 2: 14, 3: 14, 4: 24, 5: 8, 6: 8, 7: 8, 8: 20}


def _elimination(rng: random.Random, files: dict, counts=_ELIMINATION_COUNTS) -> list[dict]:
    pool = []
    for m, count in counts.items():
        for _ in range(count):
            legal = legal_plan_moves(m)
            moves = rng.sample(legal, 2 * m + 4)
            pool.append({"kind": "eliminate", "m": m, "moves": [list(mv) for mv in moves],
                         "svg": None, "check": {"type": "eliminate", "m": m},
                         "sizes": _double_sizes(m)})
    return pool


# complexes: about a third of each of the three pools above, without the
# requests that took a large share of a pass on their own (the double of
# T(2,21) with its 25,281-generator square, the t2:9 table); a pass takes
# about 1.2 s on an unloaded host, so a run times every request many times
_MIX_SQUARE_BANDS = (
    ((2, 5), 5, 5), ((3, 4), 5, 5),
    ((2, 9), 1, 1), ((3, 7), 1, 1), ((5, 6), 1, 1),
    ((5, 7), 5, 5),
    ((7, 11), 1, 1),
)
_MIX_DOUBLES = ((6, 4, 3, 2, 1), (6, 4), 1, 1, 1)
_MIX_ELIMINATION_COUNTS = {1: 4, 2: 4, 3: 4, 4: 6, 5: 3, 6: 3, 7: 3, 8: 5}


def _complexes(rng: random.Random, files: dict) -> list[dict]:
    return (_d1_squares(rng, files, _MIX_SQUARE_BANDS)
            + _doubles(rng, files, _MIX_DOUBLES)
            + _elimination(rng, files, _MIX_ELIMINATION_COUNTS))


_POOLS = {
    "torus-table": _torus_table,
    "complexes": _complexes,
    "d1-squares": _d1_squares,
    "doubles": _doubles,
    "elimination": _elimination,
}


def build(workload: str, seed: int) -> tuple[list[dict], dict[str, bytes]]:
    """The shuffled request pool and the input files it reads, for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, bytes] = {}
    pool = _POOLS[workload](rng, files)
    rng.shuffle(pool)
    for k, request in enumerate(pool):
        request["id"] = k
    files["requests.json"] = json.dumps(pool, sort_keys=True, indent=1).encode()
    return pool, files


def inputs_hash(files: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name] + b"\0")
    return digest.hexdigest()


def write(files: dict[str, bytes], directory: Path) -> None:
    for name, data in files.items():
        (directory / name).write_bytes(data)
