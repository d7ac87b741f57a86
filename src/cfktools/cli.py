"""Command-line front end: the ``cfk`` console script.

Verbs: torus, staircase, double, d1, classify {torus,staircase}, diagram
{torus,staircase,double,complex} and table; every verb takes --help.  The
global --json flag, given before the verb, switches every verb to a
versioned JSON document (schema key "cfk-1"); the default is aligned
human-readable text, and each verb builds only the form it prints.

One stdlib argparse parser tree is built at import.  Each verb is a function
from the parsed arguments to the text it writes to stdout.  ``main`` parses,
runs the verb and writes its text.  Usage errors (a malformed command line
or a parameter out of range) exit 2 and computation errors exit 1, each
with one ``Error: ...`` line on stderr, after the usage line when the
command line did not parse; ``main(args, standalone_mode=False)`` raises
them instead, as UsageError and CFKError.

A knot is named by ``torus P Q`` or ``staircase STEPS``, alone or under
classify or diagram.  Either spec sets ``args.knot``, which resolves it to
(name, staircase, Alexander polynomial or None), so one function serves
both specs in each of the report, classify and diagram verbs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import stat
import sys
from itertools import chain

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
# largest (p-1)(q-1): the report of T(2, c+1) lists its c+1 Alexander terms and
# its c+1 vertices, so a report's time and memory grow linearly in c
MAX_TORUS_CONDUCTOR = 10**6
MAX_SQUARED_GENERATORS = 200  # largest V for diagram --tensor-square, which draws V^2 generators


class UsageError(Exception):
    """A malformed command line or an out-of-range parameter: exit 2.

    usage is the usage line of the command that failed to parse, if any.
    """

    def __init__(self, message: str, usage: str = "") -> None:
        super().__init__(message)
        self.usage = usage


_PLAIN_INTEGER = re.compile(r"[ \t\n\r\f\v]*([+-]?[0-9]+)[ \t\n\r\f\v]*")


def _strict_int(text: str) -> int:
    """text as an integer: ASCII digits after an optional sign, optionally
    padded with ASCII whitespace.  Unlike int(), refuses underscores and
    non-ASCII digits and spaces."""
    match = _PLAIN_INTEGER.fullmatch(text)
    if match is None:
        raise ValueError(f"not a plain integer: {text!r}")
    return int(match.group(1))


def _integer(name: str):
    """The argparse type of the integer parameter called name."""

    def convert(text: str) -> int:
        try:
            return _strict_int(text)
        except ValueError:
            raise UsageError(f"Invalid value for '{name}': {text!r} is not a valid integer.") from None

    return convert


def _file(name: str, exists: bool):
    """The argparse type of the file parameter called name: never a
    directory, and an existing file if exists is set."""

    def check(path: str) -> str:
        try:
            mode = os.stat(path).st_mode
        except OSError:
            if exists:
                raise UsageError(f"Invalid value for '{name}': File {path!r} does not exist.") from None
            return path
        if stat.S_ISDIR(mode):
            raise UsageError(f"Invalid value for '{name}': File {path!r} is a directory.")
        return path

    return check


def _parse_staircase(text: str) -> Staircase:
    try:
        steps = tuple(_strict_int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"malformed staircase vector {text!r}: expected comma-separated integers"
        )
    try:
        return Staircase(steps)
    except ValueError as exc:
        raise UsageError(f"malformed staircase vector {text!r}: {exc}")


def _torus_knot(p: int, q: int) -> tuple[str, Staircase, LaurentPoly]:
    """The name, staircase and Alexander polynomial of T(p, q)."""
    conductor = (p - 1) * (q - 1)
    # parameters below 2 are left to alexander_torus, whose message names them
    if p >= 2 and q >= 2 and conductor > MAX_TORUS_CONDUCTOR:
        raise InvalidParameter(f"T(p,q) needs (p-1)(q-1) <= {MAX_TORUS_CONDUCTOR}, got {conductor}")
    poly = alexander_torus(p, q)
    return f"T({p},{q})", staircase_from_alexander(poly), poly


def _staircase_knot(args: argparse.Namespace) -> tuple[str, Staircase, None]:
    """The name and staircase of args.steps, without its polynomial."""
    stair = _parse_staircase(args.steps)
    return str(stair), stair, None


def _load_complex(path: str) -> FilteredComplex:
    """Read, parse and validate the complex in a JSON file; any defect exits 1."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    # json.load recurses once per nesting level
    except (OSError, ValueError, RecursionError) as exc:
        raise CFKError(f"unreadable JSON in {path}: {exc}")
    try:
        complex = complex_from_json_dict(data)
    except ValueError as exc:
        raise CFKError(str(exc))
    except CFKError as exc:  # refused in validate's words
        raise CFKError(f"invalid complex: {exc}")
    violation = validate(complex)
    if violation:
        raise CFKError(f"invalid complex: {violation}")
    return complex


def _knot_row(knot: str, stair: Staircase, poly: LaurentPoly | None = None) -> dict:
    """The invariants of stair that a table row prints, in its column order;
    poly is its Alexander polynomial if the caller has it."""
    if poly is None:
        poly = alexander_of_staircase(stair)
    return {
        "knot": knot,
        "steps": list(stair.steps),
        "alexander": str(poly),
        "tau": tau(stair),
        "d1": d1_closed_form(stair),
        "delta_whitehead": delta_whitehead(stair),
    }


def _knot_report(knot: str, stair: Staircase, poly: LaurentPoly | None = None) -> dict:
    """A table row's invariants of stair, with its Alexander terms and its vertices."""
    if poly is None:
        poly = alexander_of_staircase(stair)
    report = _knot_row(knot, stair, poly)
    report["alexander_pairs"] = poly.to_pairs()
    report["vertices"] = [{"i": v.i, "j": v.j, "gr": v.gr} for v in vertices(stair)]
    return report


_SCALARS = frozenset({str, int, bool, type(None)})


class _Unsupported(Exception):
    """A value _encode leaves to json.dumps."""


def _dumps(document) -> str:
    """Exactly json.dumps(document, indent=2, sort_keys=True), mostly in C.

    With indent set, json.dumps runs its pure-Python encoder.  Here each leaf
    container (a dict with str keys, or a list, whose values are all exactly
    str, int, bool or None) is one call of the C encoder, whose item
    separator carries the newline and indentation.  Each list of int
    records (non-empty dicts with one set of str keys, or non-empty lists of
    one length, whose values are all exactly int) is one % format call: one
    item's template, repeated once per item, applied to every value in
    order.  Only the containers above these recurse in Python.  Any other
    value sends the whole document to json.dumps.
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
    if kind is dict:
        items = [json.dumps(key) + ": " + _encode(value[key], inner) for key in sorted(value)]
        return _lines(items, "{", "}", newline)
    records = _int_records(value, newline)
    if records is not None:
        return records
    return _lines([_encode(item, inner) for item in value], "[", "]", newline)


def _lines(items: list[str], open_: str, close: str, newline: str) -> str:
    """The items of a container, each on its own line one level below
    newline, between its brackets; the first and last items are replaced."""
    inner = newline + "  "
    # the brackets go onto the first and last items, so that the whole
    # container's text is built once, by the join
    items[0] = open_ + inner + items[0]
    items[-1] += newline + close
    return ("," + inner).join(items)


def _int_records(items: list, newline: str) -> str | None:
    """items as _encode prints them, one % format call on one item's
    template repeated once per item, if they are int records; else None."""
    first = items[0]
    kind = type(first)
    if (kind is not dict and kind is not list) or not first:
        return None
    if set(map(type, items)) != {kind} or set(map(len, items)) != {len(first)}:
        return None
    inner = newline + "  "
    if kind is list:
        template = _lines(["%d"] * len(first), "[", "]", inner)
        fields = tuple(chain.from_iterable(items))
    elif set(map(type, first)) == {str}:
        keys = sorted(first)
        try:  # an item of len(keys) keys that has all of keys has no other
            fields = tuple([item[key] for item in items for key in keys])
        except KeyError:
            return None
        # a % in a key is literal text in the template
        labels = [json.dumps(key).replace("%", "%%") + ": %d" for key in keys]
        template = _lines(labels, "{", "}", inner)
    else:
        return None
    if set(map(type, fields)) != {int}:
        return None
    return _lines([template] * len(items), "[", "]", newline) % fields


def _emit(args: argparse.Namespace, payload: dict, text) -> str:
    """The verb's stdout: payload as a JSON document under --json, else text(payload)."""
    if args.json:
        return _dumps({"schema": SCHEMA, **payload}) + "\n"
    return text(payload) + "\n"


def _aligned(rows: list[tuple[str, object]]) -> str:
    """The (key, value) rows, each value two spaces past the longest key."""
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in rows)


def _report_text(report: dict) -> str:
    verts = " ".join(f"({v['i']},{v['j']})" for v in report["vertices"])
    return _aligned([
        ("knot", report["knot"]),
        ("alexander", report["alexander"]),
        ("staircase", ",".join(str(s) for s in report["steps"]) or "(unknot)"),
        ("vertices", verts),
        ("tau", report["tau"]),
        ("d1", report["d1"]),
        ("delta_whitehead", report["delta_whitehead"]),
    ])


def _report(args: argparse.Namespace) -> str:
    """Invariant report for the knot that args names."""
    return _emit(args, _knot_report(*args.knot(args)), _report_text)


def _double(args: argparse.Namespace) -> str:
    """Build the double of T(2, 2M+1) and report on it."""
    m = args.m
    complex = build_double_complex(m)
    report: dict = {
        "knot": f"D(T(2,{2 * m + 1}))",
        "generators": len(complex),
        "arrows": len(complex._arrows),
        "valid": validate(complex) is None,
        "hfk_ranks": [
            {"alexander": a, "maslov": mm, "rank": r}
            for (a, mm), r in sorted(hfk_hat_ranks(complex).items(), reverse=True)
        ],
    }
    split = verify_splitting(complex) if args.verify or args.delta2 else None
    if args.verify:
        report["splitting"] = split.to_dict()
    if args.delta2:
        report["delta_double_double"] = doubles._routes_agree(complex, split)
    return _emit(args, report, _double_text)


def _double_text(report: dict) -> str:
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
    if "delta_double_double" in report:
        rows.append(("delta(D^2)", report["delta_double_double"]))
    return _aligned(rows)


def _d1(args: argparse.Namespace) -> str:
    """Correction term of +1 surgery for a complex in a JSON file."""
    complex = _load_complex(args.path)
    report = {
        "file": args.path,
        "generators": len(complex),
        # d1_general raises NotAKnotComplex unless the ranks are exactly these
        "hat_ranks": {"0": 1},
        "d1": d1_general(complex),
    }
    return _emit(args, report, _d1_text)


def _d1_text(report: dict) -> str:
    return _aligned([("d1", report["d1"])])


def _classify(args: argparse.Namespace) -> str:
    """Classify the double of the knot that args names."""
    knot, stair, _ = args.knot(args)
    report = classify_iterates(stair).to_dict()
    report["knot"] = knot
    return _emit(args, report, _classify_text)


def _classify_text(report: dict) -> str:
    rows = [
        ("verdict", report["verdict"]),
        ("tau", report["tau"]),
        ("delta_whitehead", report["delta_whitehead"]),
    ]
    if report["delta_double_double"] is not None:
        rows.append(("delta(D^2)", report["delta_double_double"]))
    rows.append(("note", report["note"]))
    if report["psi"]:
        rows.append(("psi rows", report["psi"]))
    if report["summand_certificate"] is not None:
        rows.append(("psi unimodular", report["summand_certificate"]))
    return _aligned(rows)


def _check_square(generators: int) -> None:
    if generators > MAX_SQUARED_GENERATORS:
        raise InvalidParameter(
            f"--tensor-square needs <= {MAX_SQUARED_GENERATORS} generators, got {generators}"
        )


def _write_svg(document: str, path: str) -> str:
    """Write the SVG document to the file at path; returns the line that says so."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as exc:
        raise CFKError(f"cannot write {path}: {exc}")
    return f"wrote {path}\n"


def _diagram(args: argparse.Namespace) -> str:
    """Diagram of the complex of the knot that args names, or of its tensor square."""
    stair = args.knot(args)[1]
    if not args.tensor_square:
        return _write_svg(diagrams.svg_for_staircase(stair), args.path)
    _check_square(len(stair.steps) + 1)  # from_staircase's generator count
    complex = from_staircase(stair)
    return _write_svg(diagrams.svg_for_complex(tensor(complex, complex)), args.path)


def _diagram_double(args: argparse.Namespace) -> str:
    """Diagram of the double of T(2, 2M+1)."""
    return _write_svg(diagrams.svg_for_complex(build_double_complex(args.m)), args.path)


def _diagram_complex(args: argparse.Namespace) -> str:
    """Diagram of a complex loaded from a JSON file."""
    complex = _load_complex(args.source)
    if args.tensor_square:
        _check_square(len(complex))
        complex = tensor(complex, complex)
    return _write_svg(diagrams.svg_for_complex(complex), args.path)


def _family_rows(family: str) -> list[dict]:
    """The family's table rows, each holding its columns in order."""
    kind, _, arg = family.partition(":")
    try:
        limit = _strict_int(arg)
    except ValueError:
        raise UsageError(
            f"malformed family {family!r}: expected torus:N or t2:M"
        )
    rows: list[dict] = []
    if kind == "torus":
        if limit > MAX_TORUS_TABLE:
            raise UsageError(f"torus:N takes N <= {MAX_TORUS_TABLE}, got {limit}")
        for q in range(3, limit + 1):
            for p in range(2, q):
                if math.gcd(p, q) == 1:
                    rows.append(_knot_row(*_torus_knot(p, q)))
    elif kind == "t2":
        if limit > MAX_T2_TABLE:
            raise UsageError(f"t2:M takes M <= {MAX_T2_TABLE}, got {limit}")
        for m in range(1, limit + 1):
            stair = Staircase((1,) * (2 * m))
            row = _knot_row(f"T(2,{2 * m + 1})", stair)
            row["delta_double_double"] = delta_double_double(m, via="splitting")
            rows.append(row)
    else:
        raise UsageError(f"unknown family kind {kind!r}: expected torus or t2")
    if not rows:
        raise UsageError(f"family {family!r} is empty")
    return rows


def _table(args: argparse.Namespace) -> str:
    """Batch invariant table for a knot family."""
    rows = _family_rows(args.family)
    if args.json or args.fmt == "json":
        return _dumps({"schema": SCHEMA, "family": args.family, "rows": rows}) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        row["steps"] = ",".join(map(str, row["steps"]))
    writer.writerows(map(dict.values, rows))
    return buffer.getvalue()


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError, with the usage line of the
    innermost command being parsed, where argparse would print and exit."""

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except UsageError as exc:  # raised by an argument's type
            exc.usage = exc.usage or self.format_usage()
            raise

    def error(self, message: str):
        raise UsageError(message, self.format_usage())


def _commands(parser: _Parser) -> argparse._SubParsersAction:
    return parser.add_subparsers(metavar="COMMAND", required=True)


def _command(commands: argparse._SubParsersAction, name: str, run=None, doc: str = "") -> _Parser:
    """Add the command name, which runs run and is described by doc or else run's docstring."""
    doc = doc or run.__doc__
    parser = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
    if run:
        parser.set_defaults(run=run)
    return parser


def _integers(parser: _Parser, *names: str) -> None:
    for name in names:
        parser.add_argument(name.lower(), metavar=name, type=_integer(name))


def _diagram_command(commands: argparse._SubParsersAction, name: str, run, doc: str = "",
                     square: bool = True) -> _Parser:
    """Add a diagram command, which takes --svg and, if square is set, --tensor-square."""
    parser = _command(commands, name, run, doc)
    parser.add_argument("--svg", dest="path", required=True, type=_file("--svg", exists=False))
    if square:
        parser.add_argument("--tensor-square", action="store_true",
                            help="Draw the complex tensored with itself.")
    return parser


def _knot_commands(commands: argparse._SubParsersAction, run, torus_doc: str,
                   staircase_doc: str, add=_command) -> None:
    """Add torus P Q and staircase STEPS, which run run with args.knot set to
    resolve the knot they name."""
    torus = add(commands, "torus", run, torus_doc)
    torus.set_defaults(knot=lambda args: _torus_knot(args.p, args.q))
    _integers(torus, "P", "Q")
    staircase = add(commands, "staircase", run, staircase_doc)
    staircase.set_defaults(knot=_staircase_knot)
    staircase.add_argument("steps", metavar="STEPS")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cfk", description="Invariants of staircase knots and their doubles.",
                     allow_abbrev=False)
    parser.add_argument("--json", action="store_true", help="Emit JSON documents.")
    verbs = _commands(parser)

    _knot_commands(verbs, _report, "Invariant report for the (P, Q) torus knot.",
                   "Invariant report for the staircase with STEPS like 1,2,2,1.")

    double = _command(verbs, "double", _double)
    _integers(double, "M")
    double.add_argument("--verify", action="store_true",
                        help="Check the trefoil + acyclic splitting.")
    double.add_argument("--delta2", action="store_true",
                        help="Compute delta of the second double (both routes).")

    _command(verbs, "d1", _d1).add_argument(
        "--complex", dest="path", required=True, type=_file("--complex", exists=True))

    classify = _commands(_command(verbs, "classify",
                                  doc="Distinguishability of a knot's iterated doubles."))
    _knot_commands(classify, _classify, "Classify the double of the (P, Q) torus knot.",
                   "Classify the double of a staircase knot.")

    diagram = _commands(_command(verbs, "diagram", doc="Render a grid diagram to an SVG file."))
    _knot_commands(diagram, _diagram, "Diagram of the (P, Q) torus knot complex.",
                   "Diagram of a staircase complex.", add=_diagram_command)
    _integers(_diagram_command(diagram, "double", _diagram_double, square=False), "M")
    _diagram_command(diagram, "complex", _diagram_complex).add_argument(
        "source", metavar="SOURCE", type=_file("SOURCE", exists=True))

    table = _command(verbs, "table", _table)
    table.add_argument("--family", required=True,
                       help="torus:N (coprime p<q<=N) or t2:M (m=1..M).")
    table.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv",
                       help="Output format.  [default: csv]")
    return parser


_PARSER = _build_parser()


def _run(argv: list[str]) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = args.run(args)
    except (InvalidParameter, InvalidTorusParameters) as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(text)
    return 0


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run the cfk command line args, by default sys.argv[1:].

    Returns 0 once the verb's output is on sys.stdout.  With standalone_mode
    (the console script), an error prints one ``Error: ...`` line to stderr,
    after the usage line of a command line that did not parse, and exits
    with 2 for a usage error or 1 for a computation error.  Without it, the
    UsageError or CFKError propagates, and --help returns 0 once printed.
    """
    argv = sys.argv[1:] if args is None else args
    if not standalone_mode:
        try:
            return _run(argv)
        except SystemExit as exc:  # argparse's --help
            if exc.code:
                raise
            return 0
    try:
        return _run(argv)
    except UsageError as exc:
        sys.stderr.write(f"{exc.usage}Error: {exc}\n")
        sys.exit(2)
    except CFKError as exc:
        sys.stderr.write(f"Error: {exc}\n")
        sys.exit(1)


if __name__ == "__main__":
    sys.exit(main())
