"""Command-line front end.

Verbs: torus, staircase, double, d1, classify, diagram, table.  The global
--json flag switches every verb to a versioned JSON document (schema key
"cfk-1"); the default is aligned human-readable text.  Usage errors exit
with 2, computation errors with 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from itertools import chain

import click

from . import diagrams, doubles
from .doubles import (
    build_double_complex,
    classify_iterates,
    delta_double_double,
    verify_splitting,
)
from .errors import CFKError, InvalidParameter, InvalidTorusParameters
from .filtered import FilteredComplex, complex_from_json_dict, from_staircase, tensor, validate
from .homology import d1_general, hfk_hat_ranks
from .laurent import LaurentPoly, alexander_torus
from .staircase import (
    Staircase,
    alexander_of_staircase,
    d1_closed_form,
    delta_whitehead,
    staircase_from_alexander,
    tau,
    vertices,
)

SCHEMA = "cfk-1"
MAX_TORUS_TABLE = 30  # largest N for table --family torus:N
MAX_T2_TABLE = 50  # largest M for table --family t2:M
MAX_TORUS_CONDUCTOR = 10**6  # largest (p-1)(q-1): alexander_torus allocates that many flags
MAX_SQUARED_GENERATORS = 200  # largest V for diagram --tensor-square, which draws V^2 generators


_PLAIN_INTEGER = re.compile(r"[ \t\n\r\f\v]*([+-]?[0-9]+)[ \t\n\r\f\v]*")


def _strict_int(text: str) -> int:
    """text as an integer: ASCII digits after an optional sign, optionally
    padded with ASCII whitespace.  Unlike int(), refuses underscores and
    non-ASCII digits and spaces."""
    match = _PLAIN_INTEGER.fullmatch(text)
    if match is None:
        raise ValueError(f"not a plain integer: {text!r}")
    return int(match.group(1))


class _Integer(click.ParamType):
    """click.INT through _strict_int, failing with click.INT's message."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return _strict_int(value)
        except ValueError:
            self.fail(f"{value!r} is not a valid integer.", param, ctx)


_INTEGER = _Integer()


def _parse_staircase(text: str) -> Staircase:
    try:
        steps = tuple(_strict_int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(
            f"malformed staircase vector {text!r}: expected comma-separated integers"
        )
    try:
        return Staircase(steps)
    except ValueError as exc:
        raise click.UsageError(f"malformed staircase vector {text!r}: {exc}")


def _torus_alexander(p: int, q: int) -> LaurentPoly:
    conductor = (p - 1) * (q - 1)
    # parameters below 2 are left to alexander_torus, whose message names them
    if p >= 2 and q >= 2 and conductor > MAX_TORUS_CONDUCTOR:
        raise InvalidParameter(f"T(p,q) needs (p-1)(q-1) <= {MAX_TORUS_CONDUCTOR}, got {conductor}")
    return alexander_torus(p, q)


def _torus_staircase(p: int, q: int) -> Staircase:
    return staircase_from_alexander(_torus_alexander(p, q))


def _torus_report(p: int, q: int) -> dict:
    poly = _torus_alexander(p, q)
    return _knot_report(f"T({p},{q})", staircase_from_alexander(poly), poly)


def _load_complex(path: str) -> FilteredComplex:
    """Read, parse and validate the complex in a JSON file; any defect exits 1."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"unreadable JSON in {path}: {exc}")
    try:
        complex = complex_from_json_dict(data)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    violation = validate(complex)
    if violation:
        raise click.ClickException(f"invalid complex: {violation}")
    return complex


def _knot_report(knot: str, stair: Staircase, poly: LaurentPoly | None = None) -> dict:
    """The invariants of stair; poly is its Alexander polynomial if the caller has it."""
    if poly is None:
        poly = alexander_of_staircase(stair)
    return {
        "knot": knot,
        "alexander": str(poly),
        "alexander_pairs": poly.to_pairs(),
        "steps": list(stair.steps),
        "vertices": [{"i": v.i, "j": v.j, "gr": v.gr} for v in vertices(stair)],
        "tau": tau(stair),
        "d1": d1_closed_form(stair),
        "delta_whitehead": delta_whitehead(stair),
    }


_SCALARS = frozenset({str, int, bool, type(None)})


class _Unsupported(Exception):
    """A value _encode leaves to json.dumps."""


def _dumps(document) -> str:
    """Exactly json.dumps(document, indent=2, sort_keys=True), mostly in C.

    With indent set, json.dumps runs its pure-Python encoder.  Here each leaf
    container (a dict with str keys, or a list, whose values are all exactly
    str, int, bool or None) and each list of non-empty leaf containers of one
    type is one call of the C encoder, whose item separator carries the
    newline and indentation; only the containers above them recurse in
    Python.  Any other value sends the whole document to json.dumps.
    """
    try:
        return _encode(document, "\n")
    # _encode takes more stack per level than json.dumps, which may still manage
    except (_Unsupported, RecursionError):
        return json.dumps(document, indent=2, sort_keys=True)


def _encode(value, newline: str) -> str:
    """value as json.dumps(indent=2, sort_keys=True) prints it on a line that
    starts with newline (a newline and that line's indentation)."""
    kind = type(value)
    if kind in _SCALARS:
        return json.dumps(value)
    if kind is not dict and kind is not list:
        raise _Unsupported
    if not value:
        return json.dumps(value)
    if kind is dict and set(map(type, value)) != {str}:
        raise _Unsupported
    inner = newline + "  "
    values = value.values() if kind is dict else value
    if _SCALARS.issuperset(map(type, values)):
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + newline + text[-1]
    element = _leaf_type(value) if kind is list else None
    if element is not None:
        # An encoded string holds no raw newline, so "," + indent is always an
        # item separator; inside a leaf one sits between a scalar's last
        # character and a key or scalar, never next to a bracket.  So only the
        # boundaries between elements hold "}," or "]," + separator + "{" or "[".
        deeper = inner + "  "
        text = json.dumps(value, sort_keys=True, separators=("," + deeper, ": "))
        close, open_ = ("}", "{") if element is dict else ("]", "[")
        body = text[2:-2].replace(close + "," + deeper + open_,
                                  inner + close + "," + inner + open_ + deeper)
        return "[" + inner + open_ + deeper + body + inner + close + newline + "]"
    if kind is dict:
        items = [json.dumps(key) + ": " + _encode(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [_encode(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _leaf_type(items: list):
    """dict or list if items are non-empty leaf containers of that one type, else None."""
    kinds = set(map(type, items))
    if kinds == {dict}:
        if set(map(type, chain.from_iterable(items))) != {str}:
            return None
        values = chain.from_iterable(map(dict.values, items))
    elif kinds == {list}:
        values = chain.from_iterable(items)
    else:
        return None
    if all(items) and _SCALARS.issuperset(map(type, values)):
        return kinds.pop()
    return None


def _emit(ctx: click.Context, payload: dict, text: str) -> None:
    if ctx.obj.get("json"):
        document = {"schema": SCHEMA, **payload}
        click.echo(_dumps(document))
    else:
        click.echo(text)


def _report_text(report: dict) -> str:
    verts = " ".join(f"({v['i']},{v['j']})" for v in report["vertices"])
    rows = [
        ("knot", report["knot"]),
        ("alexander", report["alexander"]),
        ("staircase", ",".join(str(s) for s in report["steps"]) or "(unknot)"),
        ("vertices", verts),
        ("tau", report["tau"]),
        ("d1", report["d1"]),
        ("delta_whitehead", report["delta_whitehead"]),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


class _Command(click.Command):
    """Maps package errors to exit codes: bad parameters 2, the rest 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (InvalidParameter, InvalidTorusParameters) as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except CFKError as exc:
            raise click.ClickException(str(exc)) from exc


class _Group(click.Group):
    """Every command and subgroup under it is a _Command or a _Group."""

    command_class = _Command
    group_class = type


@click.group(cls=_Group)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON documents.")
@click.pass_context
def main(ctx: click.Context, as_json: bool) -> None:
    """Invariants of staircase knots and their doubles."""
    ctx.obj = {"json": as_json}


@main.command()
@click.argument("p", type=_INTEGER)
@click.argument("q", type=_INTEGER)
@click.pass_context
def torus(ctx: click.Context, p: int, q: int) -> None:
    """Invariant report for the (P, Q) torus knot."""
    report = _torus_report(p, q)
    _emit(ctx, report, _report_text(report))


@main.command()
@click.argument("steps")
@click.pass_context
def staircase(ctx: click.Context, steps: str) -> None:
    """Invariant report for the staircase with STEPS like 1,2,2,1."""
    stair = _parse_staircase(steps)
    report = _knot_report(str(stair), stair)
    _emit(ctx, report, _report_text(report))


@main.command()
@click.argument("m", type=_INTEGER)
@click.option("--verify", is_flag=True, help="Check the trefoil + acyclic splitting.")
@click.option("--delta2", is_flag=True, help="Compute delta of the second double (both routes).")
@click.pass_context
def double(ctx: click.Context, m: int, verify: bool, delta2: bool) -> None:
    """Build the double of T(2, 2M+1) and report on it."""
    if delta2:  # first, so that a size cap rejects M before anything is built
        doubles._check_route(m, "both")
    complex = build_double_complex(m)
    report: dict = {
        "knot": f"D(T(2,{2 * m + 1}))",
        "generators": len(complex),
        "arrows": len(complex.arrows),
        "valid": validate(complex) is None,
        "hfk_ranks": [
            {"alexander": a, "maslov": mm, "rank": r}
            for (a, mm), r in sorted(hfk_hat_ranks(complex).items(), reverse=True)
        ],
    }
    lines = [
        f"knot        {report['knot']}",
        f"generators  {report['generators']}",
        f"arrows      {report['arrows']}",
        f"valid       {report['valid']}",
        "hat ranks   (alexander, maslov) -> rank",
    ]
    for row in report["hfk_ranks"]:
        lines.append(f"            ({row['alexander']},{row['maslov']}) -> {row['rank']}")
    split = verify_splitting(complex) if verify or delta2 else None
    if verify:
        report["splitting"] = split.to_dict()
        lines.append(
            f"splitting   trefoil={split.trefoil_summand} "
            f"acyclic_rest={split.acyclic_rest} components={list(split.component_sizes)}"
        )
    if delta2:
        value = doubles._routes_agree(complex, split)
        report["delta_double_double"] = value
        lines.append(f"delta(D^2)  {value}")
    _emit(ctx, report, "\n".join(lines))


@main.command()
@click.option("--complex", "path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def d1(ctx: click.Context, path: str) -> None:
    """Correction term of +1 surgery for a complex in a JSON file."""
    complex = _load_complex(path)
    value = d1_general(complex)
    report = {
        "file": path,
        "generators": len(complex.generators),
        # d1_general raises NotAKnotComplex unless the ranks are exactly these
        "hat_ranks": {"0": 1},
        "d1": value,
    }
    _emit(ctx, report, f"d1  {value}")


@main.group()
def classify() -> None:
    """Distinguishability of a knot's iterated doubles."""


def _classify(ctx: click.Context, knot: str, stair: Staircase) -> None:
    report = classify_iterates(stair).to_dict()
    report["knot"] = knot
    _emit(ctx, report, _classify_text(report))


def _classify_text(report: dict) -> str:
    lines = [
        f"verdict          {report['verdict']}",
        f"tau              {report['tau']}",
        f"delta_whitehead  {report['delta_whitehead']}",
        f"note             {report['note']}",
    ]
    if report["delta_double_double"] is not None:
        lines.insert(3, f"delta(D^2)       {report['delta_double_double']}")
    if report["psi"]:
        lines.append(f"psi rows         {report['psi']}")
    if report["summand_certificate"] is not None:
        lines.append(f"psi unimodular   {report['summand_certificate']}")
    return "\n".join(lines)


@classify.command("torus")
@click.argument("p", type=_INTEGER)
@click.argument("q", type=_INTEGER)
@click.pass_context
def classify_torus(ctx: click.Context, p: int, q: int) -> None:
    """Classify the double of the (P, Q) torus knot."""
    _classify(ctx, f"T({p},{q})", _torus_staircase(p, q))


@classify.command("staircase")
@click.argument("steps")
@click.pass_context
def classify_staircase(ctx: click.Context, steps: str) -> None:
    """Classify the double of a staircase knot."""
    stair = _parse_staircase(steps)
    _classify(ctx, str(stair), stair)


@main.group()
def diagram() -> None:
    """Render a grid diagram to an SVG file."""


def _check_square(generators: int) -> None:
    if generators > MAX_SQUARED_GENERATORS:
        raise InvalidParameter(
            f"--tensor-square needs <= {MAX_SQUARED_GENERATORS} generators, got {generators}"
        )


def _complex_svg(complex: FilteredComplex, square: bool) -> str:
    """The diagram of the complex, or of its tensor square."""
    if square:
        _check_square(len(complex))
        complex = tensor(complex, complex)
    return diagrams.svg_for_complex(complex)


def _staircase_svg(stair: Staircase, square: bool) -> str:
    """The diagram of the staircase's complex, or of its tensor square."""
    if not square:
        return diagrams.svg_for_staircase(stair)
    _check_square(len(stair.steps) + 1)  # from_staircase's generator count
    return _complex_svg(from_staircase(stair), square)


def _write_svg(document: str, path: str) -> None:
    """Write the SVG document to the file at path."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")
    click.echo(f"wrote {path}")


_svg_option = click.option("--svg", "path", required=True, type=click.Path(dir_okay=False))
_square_option = click.option(
    "--tensor-square", is_flag=True, help="Draw the complex tensored with itself."
)


@diagram.command("torus")
@click.argument("p", type=_INTEGER)
@click.argument("q", type=_INTEGER)
@_svg_option
@_square_option
def diagram_torus(p: int, q: int, path: str, tensor_square: bool) -> None:
    """Diagram of the (P, Q) torus knot complex."""
    _write_svg(_staircase_svg(_torus_staircase(p, q), tensor_square), path)


@diagram.command("staircase")
@click.argument("steps")
@_svg_option
@_square_option
def diagram_staircase(steps: str, path: str, tensor_square: bool) -> None:
    """Diagram of a staircase complex."""
    _write_svg(_staircase_svg(_parse_staircase(steps), tensor_square), path)


@diagram.command("double")
@click.argument("m", type=_INTEGER)
@_svg_option
def diagram_double(m: int, path: str) -> None:
    """Diagram of the double of T(2, 2M+1)."""
    _write_svg(diagrams.svg_for_complex(build_double_complex(m)), path)


@diagram.command("complex")
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@_svg_option
@_square_option
def diagram_complex(source: str, path: str, tensor_square: bool) -> None:
    """Diagram of a complex loaded from a JSON file."""
    _write_svg(_complex_svg(_load_complex(source), tensor_square), path)


def _family_rows(family: str) -> tuple[list[str], list[dict]]:
    kind, _, arg = family.partition(":")
    try:
        limit = _strict_int(arg)
    except ValueError:
        raise click.UsageError(
            f"malformed family {family!r}: expected torus:N or t2:M"
        )
    rows: list[dict] = []
    if kind == "torus":
        if limit > MAX_TORUS_TABLE:
            raise click.UsageError(f"torus:N takes N <= {MAX_TORUS_TABLE}, got {limit}")
        for q in range(3, limit + 1):
            for p in range(2, q):
                if math.gcd(p, q) == 1:
                    rows.append(_torus_report(p, q))
        header = ["knot", "steps", "alexander", "tau", "d1", "delta_whitehead"]
    elif kind == "t2":
        if limit > MAX_T2_TABLE:
            raise click.UsageError(f"t2:M takes M <= {MAX_T2_TABLE}, got {limit}")
        for m in range(1, limit + 1):
            stair = Staircase((1,) * (2 * m))
            report = _knot_report(f"T(2,{2 * m + 1})", stair)
            report["delta_double_double"] = delta_double_double(m, via="splitting")
            rows.append(report)
        header = [
            "knot",
            "steps",
            "alexander",
            "tau",
            "d1",
            "delta_whitehead",
            "delta_double_double",
        ]
    else:
        raise click.UsageError(f"unknown family kind {kind!r}: expected torus or t2")
    if not rows:
        raise click.UsageError(f"family {family!r} is empty")
    return header, rows


@main.command()
@click.option("--family", required=True, help="torus:N (coprime p<q<=N) or t2:M (m=1..M).")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
@click.pass_context
def table(ctx: click.Context, family: str, fmt: str) -> None:
    """Batch invariant table for a knot family."""
    if ctx.obj.get("json"):
        fmt = "json"
    header, rows = _family_rows(family)
    if fmt == "json":
        document = {
            "schema": SCHEMA,
            "family": family,
            "rows": [{k: row[k] for k in header} for row in rows],
        }
        click.echo(_dumps(document))
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [",".join(str(s) for s in row[k]) if k == "steps" else row[k] for k in header]
        )
    sys.stdout.write(buffer.getvalue())


if __name__ == "__main__":
    main()
