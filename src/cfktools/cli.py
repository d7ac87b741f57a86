"""Command-line front end: the ``cfk`` console script.

Verbs: torus, staircase, double, d1, classify {torus,staircase}, diagram
{torus,staircase,double,complex} and table; every verb takes --help.  The
global --json flag, given before the verb, switches every verb to a
versioned JSON document (schema key "cfk-1"); the default is aligned
human-readable text, and each verb builds only the form it prints.

One stdlib argparse parser tree is built at import, and walked once into a
table of each parser's defaults, options, positionals and sub-commands.  A
command line in canonical form (the root's flags before the command, each
option spelled out in full, given once and followed by its value, and no
value that starts with -) is read from that table; argparse reads every
other, and prints every usage line, error and help text.  Each verb is a
function from the parsed arguments to the text it writes to stdout.
``main`` parses, runs the verb and writes its text.  Usage errors (a malformed command line
or a parameter out of range) exit 2 and computation errors exit 1, each
with one ``Error: ...`` line on stderr, after the usage line when the
command line did not parse; ``main(args, standalone_mode=False)`` raises
them instead, as UsageError and CFKError.

A knot is named by ``torus P Q`` or ``staircase STEPS``, alone or under
classify or diagram.  Either spec sets ``args.knot``, which resolves it to
(name, staircase, Alexander polynomial or None), so one function serves
both specs in each of the report, classify and diagram verbs.

A --json document is built of dicts with str keys, lists, str, int, bool,
None and record blocks: int records held flat, which the reports build for
a knot's vertices and Alexander terms and a double's hat ranks.  _dumps
prints it exactly as json.dumps(indent=2, sort_keys=True) prints it with
each block as its plain list, and refuses any other value.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import stat
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

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
)

SCHEMA = "cfk-1"
MAX_TORUS_TABLE = 30  # largest N for table --family torus:N
MAX_T2_TABLE = 50  # largest M for table --family t2:M
# largest (p-1)(q-1): the report of T(2, c+1) lists its c+1 Alexander terms and
# its c+1 vertices, held as flat ints, so its time and memory grow linearly in
# c; at the cap, --json peaks at about 420 MB, of which the text is about 160
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
    """A table row's invariants of stair, with its Alexander terms and its
    vertices as int record blocks."""
    if poly is None:
        poly = alexander_of_staircase(stair)
    report = _knot_row(knot, stair, poly)
    report["alexander_pairs"] = _Records(2, tuple(chain.from_iterable(zip(*poly.sorted_terms()))))
    across = stair._across
    grades = [0, 1] * (len(stair.steps) // 2) + [0]
    walk = zip(grades, across, reversed(across))
    report["vertices"] = _Records(("gr", "i", "j"), tuple(chain.from_iterable(walk)))
    return report


class _Records:
    """A list of int records held flat, which _dumps prints as that list.

    fields holds the records' values, record after record, each exactly int.
    A record is a dict on shape, one or more str keys in sorted order, or,
    if shape is an int, a list of that many values.  The reports build
    these where they build their rows.
    """

    def __init__(self, shape: tuple[str, ...] | int, fields: tuple[int, ...]) -> None:
        self.shape, self.fields = shape, fields


# each scalar type's printer: the C functions json.dumps itself ends in
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


@functools.cache
def _leaf_encoder(inner: str):
    """The C encoder of leaf containers whose items go on lines that start with inner."""
    return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode


def _dumps(value, newline: str = "\n") -> str:
    """Exactly json.dumps(value, indent=2, sort_keys=True), printed on a line
    that starts with newline (a newline and that line's indentation), with
    each record block as the plain list it stands for.

    value is what the verbs build: dicts with str keys, lists, str, int,
    bool, None and record blocks.  Any other value raises TypeError.  With
    indent set, json.dumps runs its pure-Python encoder; here no scalar or
    dict key costs a json.dumps call, as each is printed by the C function
    json.dumps ends in.  Each leaf container (a dict or list whose values
    are all exactly str, int, bool or None) is one call of a C encoder,
    whose item separator carries the newline and indentation.  Each record
    block is one % format call: one record's template, repeated once per
    record, applied to every value in order.  Only the containers above
    these recurse in Python.
    """
    kind = type(value)
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    if kind is _Records:
        return _block(value, newline)
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    if kind is dict and set(map(type, value)) != {str}:
        key = next(key for key in value if type(key) is not str)
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    inner = newline + "  "
    values = value.values() if kind is dict else value
    if _SCALARS.keys() >= set(map(type, values)):
        text = _leaf_encoder(inner)(value)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if kind is dict:
        items = [encode_basestring_ascii(key) + ": " + _dumps(value[key], inner)
                 for key in sorted(value)]
        return _lines(items, "{", "}", newline)
    return _lines([_dumps(item, inner) for item in value], "[", "]", newline)


def _lines(items: list[str], open_: str, close: str, newline: str) -> str:
    """The items of a container, each on its own line one level below
    newline, between its brackets; the first and last items are replaced."""
    inner = newline + "  "
    # the brackets go onto the first and last items, so that the whole
    # container's text is built once, by the join
    items[0] = open_ + inner + items[0]
    items[-1] += newline + close
    return ("," + inner).join(items)


def _block(records: _Records, newline: str) -> str:
    """records as _dumps prints them, one % format call on one record's
    template repeated once per record."""
    shape, inner = records.shape, newline + "  "
    if type(shape) is int:
        template = _lines(["%d"] * shape, "[", "]", inner)
    else:
        # a % in a key is literal text in the template
        labels = [encode_basestring_ascii(key).replace("%", "%%") + ": %d" for key in shape]
        template, shape = _lines(labels, "{", "}", inner), len(shape)
    count = len(records.fields) // shape
    return _lines([template] * count, "[", "]", newline) % records.fields if count else "[]"


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
    fields = report["vertices"].fields
    # each vertex's gr, i and j: gr printed as no characters
    verts = " ".join(["%.0s(%d,%d)"] * (len(fields) // 3)) % fields
    return _aligned([
        ("knot", report["knot"]),
        ("alexander", report["alexander"]),
        ("staircase", ",".join(map(str, report["steps"])) or "(unknot)"),
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
    ranks = sorted(hfk_hat_ranks(complex).items(), reverse=True)
    report: dict = {
        "knot": f"D(T(2,{2 * m + 1}))",
        "generators": len(complex),
        "arrows": len(complex._arrows),
        "valid": validate(complex) is None,
        "hfk_ranks": _Records(("alexander", "maslov", "rank"),
                              tuple(chain.from_iterable(key + (rank,) for key, rank in ranks))),
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
    fields = report["hfk_ranks"].fields
    rows += [("", "(%d,%d) -> %d" % fields[k:k + 3]) for k in range(0, len(fields), 3)]
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
    """Write the SVG document to the file at path; returns the line that says so.
    The path is opened only once the document has encoded."""
    try:
        data = document.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data)
    except (UnicodeEncodeError, OSError) as exc:
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


class _Grammar(NamedTuple):
    """What _quick_parse reads of one parser in _PARSER's tree."""

    defaults: dict  # what the parser sets before it reads a token
    options: dict  # option string -> its plain store or store_const action
    required: frozenset  # the options that must be given
    positionals: tuple  # the positional actions, in order
    commands: dict  # sub-command name -> its _Grammar, if the last positional is one


def _grammar(parser: argparse.ArgumentParser) -> _Grammar | None:
    """parser's _Grammar, or None if it declares what _quick_parse does not
    read: a positional other than a single value or a last sub-command that
    sets no dest, a string default that its type would convert, or an
    exclusive group.  A sub-command that is not read is left out."""
    actions = parser._actions
    positionals = plain = tuple(action for action in actions if not action.option_strings)
    commands = {}
    if positionals and isinstance(positionals[-1], argparse._SubParsersAction):
        if positionals[-1].dest is not argparse.SUPPRESS:
            return None
        plain = positionals[:-1]
        for name, sub in positionals[-1].choices.items():
            if (grammar := _grammar(sub)) is not None:
                commands[name] = grammar
    if (parser._mutually_exclusive_groups
            or any(type(action) is not argparse._StoreAction or action.nargs is not None
                   for action in plain)
            or any(isinstance(action.default, str) and action.type for action in actions)):
        return None
    # argparse sets each action's default, then the parser's other defaults
    defaults: dict = {}
    for action in actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    options = {
        string: action
        for action in actions
        if (type(action) is argparse._StoreAction and action.nargs is None)
        or isinstance(action, argparse._StoreConstAction)
        for string in action.option_strings
    }
    required = frozenset(action for action in actions if action.option_strings and action.required)
    return _Grammar(defaults, options, required, positionals, commands)


_GRAMMAR = _grammar(_PARSER)


def _read(command: _Grammar, tokens, values: dict) -> bool:
    """Read tokens into values as command's parser would; False unless they
    are in the canonical form _quick_parse reads."""
    values.update(command.defaults)
    positionals, given = iter(command.positionals), set()
    for token in tokens:
        if token.startswith("-"):
            action = command.options.get(token)
            if action is None or action in given:
                return False
            given.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            token = next(tokens, "-")  # a missing value reads as one that starts with -
            if token.startswith("-"):
                return False
        else:
            action = next(positionals, None)
            if action is None:
                return False
            if isinstance(action, argparse._SubParsersAction):
                sub = command.commands.get(token)
                return sub is not None and given >= command.required and _read(sub, tokens, values)
        value = action.type(token) if action.type else token
        if action.choices is not None and value not in action.choices:
            return False
        values[action.dest] = value
    return next(positionals, None) is None and given >= command.required


def _quick_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace _PARSER.parse_args(argv) returns, read from _GRAMMAR, or
    None unless argv is in canonical form.

    That form gives the root's flags before the command, each option spelled
    out in full and given at most once, each option's value as the next
    token, and no value or positional that starts with -.  Each value passes
    through its action's type and choices.  Everything else, from --help,
    --opt=value and -- to a value its type refuses, is left to argparse, which
    reads it again and prints every usage line, error and help text.
    """
    values: dict = {}
    try:
        read = _read(_GRAMMAR, iter(argv), values)
    except (UsageError, argparse.ArgumentTypeError, TypeError, ValueError):
        return None  # argparse converts the value again and reports it
    return argparse.Namespace(**values) if read else None


def _run(argv: list[str]) -> int:
    args = _quick_parse(argv) or _PARSER.parse_args(argv)
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
