"""Checks each request's output against the independent oracles.

``check(request, text)`` returns None when the output is right and a
one-line reason otherwise.  Every execution of a request must also produce
byte-identical output, which run.py checks by digest.
"""

from __future__ import annotations

import csv
import io
import json

from oracles import (
    complex_violation,
    component_sizes,
    coprime_pairs,
    d1_of,
    delta_of,
    double_generators,
    double_plan,
    parse_alexander,
    torus_alexander_pairs,
    torus_steps,
    walk,
)

DISTINGUISHABLE = "DISTINGUISHABLE"
SPECIAL_CASE = "SPECIAL-CASE-DISTINGUISHABLE"
INCONCLUSIVE = "INCONCLUSIVE"


class Mismatch(Exception):
    pass


def _expect(label, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, expected {want!r}")


def _torus_report(doc, p, q):
    pairs = torus_alexander_pairs(p, q)
    steps = list(torus_steps(p, q))
    reported = [(v["i"], v["j"], v["gr"]) for v in doc["vertices"]]
    _expect("knot", doc["knot"], f"T({p},{q})")
    _expect("alexander_pairs", [tuple(x) for x in doc["alexander_pairs"]], pairs)
    _expect("alexander", parse_alexander(doc["alexander"]), pairs)
    _expect("steps", doc["steps"], steps)
    _expect("vertices", reported, walk(tuple(steps)))
    _expect("tau", doc["tau"], (p - 1) * (q - 1) // 2)
    _expect("d1", doc["d1"], d1_of(reported))
    _expect("delta_whitehead", doc["delta_whitehead"], delta_of(reported))


def _classify_torus(doc, p, q):
    vs = walk(torus_steps(p, q))
    delta = delta_of(vs)
    _expect("knot", doc["knot"], f"T({p},{q})")
    _expect("tau", doc["tau"], (p - 1) * (q - 1) // 2)
    _expect("delta_whitehead", doc["delta_whitehead"], delta)
    _expect("verdict", doc["verdict"], DISTINGUISHABLE if abs(delta) > 8 else INCONCLUSIVE)
    _expect("psi", doc["psi"], [[1, delta // 4]])
    _expect("summand_certificate", doc["summand_certificate"], None)
    _expect("delta_double_double", doc["delta_double_double"], None)
    _expect("splitting", doc["splitting"], None)


def _split_profile(split, m):
    _expect("components", sorted(split["components"]), [3] + [4] * (4 * m - 1))
    _expect("trefoil_summand", split["trefoil_summand"], True)
    _expect("acyclic_rest", split["acyclic_rest"], True)
    _expect("rest_verdict", split["rest_verdict"], "certified-acyclic")


def _double(doc, m):
    _expect("knot", doc["knot"], f"D(T(2,{2 * m + 1}))")
    _expect("generators", doc["generators"], 16 * m - 1)
    _expect("arrows", doc["arrows"], 16 * m - 2)
    _expect("valid", doc["valid"], True)
    _expect("hat rank total", sum(r["rank"] for r in doc["hfk_ranks"]), 16 * m - 1)
    _split_profile(doc["splitting"], m)
    _expect("delta_double_double", doc["delta_double_double"], -4)


def _classify_t2(doc, m):
    _expect("knot", doc["knot"], f"T(2,{2 * m + 1})")
    _expect("tau", doc["tau"], m)
    _expect("delta_whitehead", doc["delta_whitehead"], -4 * m)
    _expect("delta_double_double", doc["delta_double_double"], -4)
    verdict = DISTINGUISHABLE if m >= 3 else SPECIAL_CASE if m == 2 else INCONCLUSIVE
    _expect("verdict", doc["verdict"], verdict)
    _expect("psi", doc["psi"], [[1, -m], [1, -1]])
    _expect("summand_certificate", doc["summand_certificate"], m == 2)
    _split_profile(doc["splitting"], m)


def _csv_rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    _expect("header", rows[0], header)
    return [dict(zip(header, row)) for row in rows[1:]]


def _torus_table(text, n):
    rows = _csv_rows(text, ["knot", "steps", "alexander", "tau", "d1", "delta_whitehead"])
    knots = coprime_pairs(n)
    _expect("rows", [r["knot"] for r in rows], [f"T({p},{q})" for p, q in knots])
    for row, (p, q) in zip(rows, knots):
        pairs = torus_alexander_pairs(p, q)
        steps = torus_steps(p, q)
        vs = walk(steps)
        _expect(f"{row['knot']} steps", row["steps"], ",".join(map(str, steps)))
        _expect(f"{row['knot']} alexander", parse_alexander(row["alexander"]), pairs)
        _expect(f"{row['knot']} tau", int(row["tau"]), (p - 1) * (q - 1) // 2)
        _expect(f"{row['knot']} d1", int(row["d1"]), d1_of(vs))
        _expect(f"{row['knot']} delta_whitehead", int(row["delta_whitehead"]), delta_of(vs))


def _t2_table(text, big_m):
    header = ["knot", "steps", "alexander", "tau", "d1", "delta_whitehead",
              "delta_double_double"]
    rows = _csv_rows(text, header)
    _expect("rows", [r["knot"] for r in rows],
            [f"T(2,{2 * m + 1})" for m in range(1, big_m + 1)])
    for m, row in enumerate(rows, start=1):
        vs = walk((1,) * (2 * m))
        _expect(f"{row['knot']} tau", int(row["tau"]), m)
        _expect(f"{row['knot']} d1", int(row["d1"]), d1_of(vs))
        _expect(f"{row['knot']} delta_whitehead", int(row["delta_whitehead"]), -4 * m)
        _expect(f"{row['knot']} delta(D^2)", int(row["delta_double_double"]), -4)


def _d1_square(doc, spec):
    vs = walk(tuple(spec["steps"]))
    _expect("file", doc["file"], spec["file"])
    _expect("generators", doc["generators"], len(vs) ** 2)
    _expect("hat_ranks", doc["hat_ranks"], {"0": 1})
    # criterion 04: d1 of the tensor square is half of delta(D(K))
    _expect("d1", doc["d1"], delta_of(vs) // 2)


def _svg(text, spec):
    stdout, _, svg = text.partition("\n--svg--\n")
    _expect("stdout", stdout, f"wrote {spec['svg']}\n")
    _expect("svg header", svg.startswith("<?xml"), True)
    _expect("circles", svg.count("<circle"), spec["circles"])


def _eliminate(doc, m):
    gens = double_generators(m)
    _expect("generators", {g[0]: (g[1], g[2]) for g in doc["generators"]}, gens)
    arrows = [tuple(a) for a in doc["arrows"]]
    violation = complex_violation(gens, arrows)
    _expect("cleaned complex violation", violation, None)
    position = {n: k for k, sub in enumerate(double_plan(m)) for n in sub}
    cross = [a for a in arrows if position[a[0]] != position[a[1]]]
    _expect("cross-plan arrows", cross, [])
    _expect("component sizes", component_sizes(list(gens), arrows), [3] + [4] * (4 * m - 1))
    _split_profile(doc["splitting"], m)
    # the double's d1 is the trefoil summand's: -2 * min max(i, j) over St(1,1)
    _expect("d1 of cleaned", doc["d1_cleaned"], d1_of(walk((1, 1))))
    _expect("d1 across the scramble", doc["d1_scrambled"], doc["d1_cleaned"])


_TEXT_CHECKS = {
    "torus-table": lambda text, spec: _torus_table(text, spec["n"]),
    "t2-table": lambda text, spec: _t2_table(text, spec["m"]),
    "svg": _svg,
}
_JSON_CHECKS = {
    "torus": lambda doc, spec: _torus_report(doc, spec["p"], spec["q"]),
    "classify": lambda doc, spec: _classify_torus(doc, spec["p"], spec["q"]),
    "d1": _d1_square,
    "double": lambda doc, spec: _double(doc, spec["m"]),
    "classify-t2": lambda doc, spec: _classify_t2(doc, spec["m"]),
}


def _check(spec, text):
    kind = spec["type"]
    if kind in _TEXT_CHECKS:
        _TEXT_CHECKS[kind](text, spec)
    elif kind == "eliminate":
        _eliminate(json.loads(text), spec["m"])
    else:
        doc = json.loads(text)
        _expect("schema", doc.get("schema"), "cfk-1")
        _JSON_CHECKS[kind](doc, spec)


def check(request: dict, text: str) -> str | None:
    """None when ``text`` is the right output for ``request``, else the reason."""
    try:
        _check(request["check"], text)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
