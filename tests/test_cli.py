import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cfktools import (
    CFKError,
    Staircase,
    alexander_of_staircase,
    alexander_torus,
    d1_closed_form,
    delta_whitehead,
    from_staircase,
    tau,
    to_json_dict,
)
from cfktools import cli, diagrams, doubles
from cfktools.cli import main

from .cli_runner import CliRunner
from .complex_fixtures import single_box
from .oracles import (
    reference_double_report,
    reference_double_text,
    reference_knot_report,
    reference_report_text,
    torus_alexander_by_division,
)

ROOT = Path(__file__).parent.parent


@pytest.fixture
def runner():
    return CliRunner()


class TestTorus:
    def test_t34_report(self, runner):
        result = runner.invoke(main, ["torus", "3", "4"])
        assert result.exit_code == 0
        assert "delta_whitehead  -8" in result.output
        assert "(0,3) (1,3) (1,1) (3,1) (3,0)" in result.output

    def test_non_coprime_is_usage_error(self, runner):
        result = runner.invoke(main, ["torus", "2", "4"])
        assert result.exit_code == 2
        assert "p,q must be coprime" in result.output

    def test_json_numbers_match_module_ops(self, runner):
        result = runner.invoke(main, ["--json", "torus", "3", "4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["schema"] == "cfk-1"
        stair = Staircase(tuple(payload["steps"]))
        assert payload["tau"] == tau(stair)
        assert payload["d1"] == d1_closed_form(stair)
        assert payload["delta_whitehead"] == delta_whitehead(stair)

    @pytest.mark.parametrize(
        "args",
        [
            ["torus", "1001", "1002"],
            ["classify", "torus", "1001", "1002"],
            ["diagram", "torus", "1001", "1002", "--svg", "out.svg"],
        ],
    )
    def test_torus_above_the_cap_is_usage_error(self, runner, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Error: T(p,q) needs (p-1)(q-1) <= 1000000, got 1001000\n" in result.output
        assert not (tmp_path / "out.svg").exists()

    def test_json_is_deterministic(self, runner):
        first = runner.invoke(main, ["--json", "torus", "5", "7"]).output
        second = runner.invoke(main, ["--json", "torus", "5", "7"]).output
        assert first == second

    @pytest.mark.parametrize("args", [["torus", "5", "7"], ["table", "--family", "torus:7"]])
    def test_reports_reuse_the_torus_polynomial(self, runner, monkeypatch, args):
        """The staircase is built from alexander_torus's polynomial, which the
        report prints as it is, without rebuilding it from the staircase."""
        def rebuilt(stair):
            raise AssertionError(f"Alexander polynomial of {stair} rebuilt")

        monkeypatch.setattr(cli, "alexander_of_staircase", rebuilt)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("q", range(3, 31))
def test_torus_staircase_has_the_torus_polynomial(q):
    for p in range(2, q):
        if math.gcd(p, q) == 1:
            stair = cli._torus_knot(p, q)[1]
            assert alexander_of_staircase(stair) == alexander_torus(p, q), (p, q)


class TestStaircase:
    def test_trefoil(self, runner):
        result = runner.invoke(main, ["staircase", "1,1"])
        assert result.exit_code == 0
        assert "tau              1" in result.output
        assert "d1               -2" in result.output
        assert "delta_whitehead  -4" in result.output

    @pytest.mark.parametrize("vector", ["1,2", "1,0,0,1", "1", "a,b", ""])
    def test_malformed_vectors_are_usage_errors(self, runner, vector):
        result = runner.invoke(main, ["staircase", vector])
        assert result.exit_code == 2


class TestDouble:
    def test_report_with_verification(self, runner):
        result = runner.invoke(
            main, ["--json", "double", "2", "--verify", "--delta2"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["generators"] == 31 and payload["valid"] is True
        assert payload["splitting"]["trefoil_summand"] is True
        assert payload["delta_double_double"] == -4

    def test_bad_m_is_usage_error(self, runner):
        result = runner.invoke(main, ["double", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["double", "201"],
            ["double", "201", "--verify"],
            ["diagram", "double", "201", "--svg", "out.svg"],
            ["classify", "torus", "2", "403"],
            ["classify", "staircase", ",".join(["1"] * 402)],
        ],
    )
    def test_double_above_the_cap_is_usage_error(self, runner, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Error: the double needs m <= 200, got 201\n" in result.output
        assert not (tmp_path / "out.svg").exists()

    def test_square_of_a_double_above_the_cap_is_usage_error(self, runner):
        """--delta2 takes every m whose double is built, and only those."""
        result = runner.invoke(main, ["double", "11", "--delta2"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-1] == "delta(D^2)  -4"
        result = runner.invoke(main, ["double", "201", "--delta2"])
        assert result.exit_code == 2
        assert "Error: the double needs m <= 200, got 201\n" in result.output

    @pytest.mark.parametrize("flags", [["--verify", "--delta2"], ["--delta2"], ["--verify"]])
    def test_builds_and_splits_the_double_once(self, runner, monkeypatch, flags):
        calls = Counter()
        for name in ("build_double_complex", "verify_splitting"):
            def counted(*args, _fn=getattr(doubles, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            for module in (cli, doubles):
                monkeypatch.setattr(module, name, counted)
        result = runner.invoke(main, ["--json", "double", "3", *flags])
        assert result.exit_code == 0, result.output
        assert calls == {"build_double_complex": 1, "verify_splitting": 1}
        payload = json.loads(result.output)
        assert ("splitting" in payload) == ("--verify" in flags)
        assert ("delta_double_double" in payload) == ("--delta2" in flags)


class TestD1Command:
    def test_trefoil_file(self, runner, tmp_path):
        path = tmp_path / "trefoil.json"
        path.write_text(json.dumps(to_json_dict(from_staircase(Staircase((1, 1))))))
        result = runner.invoke(main, ["--json", "d1", "--complex", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["d1"] == -2

    def test_box_is_not_a_knot_complex(self, runner, tmp_path):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(to_json_dict(single_box())))
        result = runner.invoke(main, ["d1", "--complex", str(path)])
        assert result.exit_code == 1
        assert "column homology" in result.output

    def test_invalid_complex_is_computation_error(self, runner, tmp_path):
        document = to_json_dict(from_staircase(Staircase((1, 1))))
        document["arrows"][0]["upower"] += 7
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(document))
        result = runner.invoke(main, ["d1", "--complex", str(path)])
        assert result.exit_code == 1
        assert "invalid complex" in result.output

    def test_fractional_upower_is_rejected(self, runner, tmp_path):
        document = to_json_dict(from_staircase(Staircase((1, 1))))
        document["arrows"][0]["upower"] = 1.9
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(document))
        result = runner.invoke(main, ["d1", "--complex", str(path)])
        assert result.exit_code == 1
        assert result.output == "Error: malformed complex document: 'upower' must be int, got 1.9\n"

    def test_file_name_is_escaped(self, runner, tmp_path, monkeypatch):
        name = 'odd "name" \\ }],[{ é.json'
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(json.dumps(to_json_dict(from_staircase(Staircase((1, 1))))))
        result = runner.invoke(main, ["--json", "d1", "--complex", name])
        assert result.exit_code == 0, result.output
        expected = {"schema": "cfk-1", "file": name, "generators": 3, "hat_ranks": {"0": 1}, "d1": -2}
        assert result.stdout == json.dumps(expected, indent=2, sort_keys=True) + "\n"


# characters that could confuse the encoder's bracket and separator handling
_TEXT = st.text(st.sampled_from(list('{}[],:"\\\n\t\x00é☃\ud800 a0%d')), max_size=6)
_SCALAR = (
    _TEXT
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.booleans()
    | st.none()
)
_LEAF = st.dictionaries(_TEXT, _SCALAR, max_size=3) | st.lists(_SCALAR, max_size=3)
_INT = st.integers() | st.integers(min_value=-(2**100), max_value=2**100) | st.just(2**100)
# non-int scalars inside record-like items
_ODD = st.sampled_from([True, False, None, "7"])


def _records(keys, values):
    """Lists of dicts on one set of n keys, or of lists of n values, for one n <= 3."""
    return st.integers(0, 3).flatmap(lambda n: (
        st.lists(st.lists(values, min_size=n, max_size=n), max_size=4)
        | st.lists(keys, min_size=n, max_size=n, unique=True).flatmap(
            lambda names: st.lists(st.fixed_dictionaries(dict.fromkeys(names, values)), max_size=4))
    ))


_DOCUMENT = st.recursive(
    _SCALAR,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.lists(st.dictionaries(_TEXT, _SCALAR, max_size=3), max_size=4)
        | st.lists(st.lists(_SCALAR, max_size=3), max_size=4)
        | _records(_TEXT, _INT)
        | _records(_TEXT, _INT | _ODD)
        # ragged: two lists of records, each on its own key set or length
        | st.tuples(_records(_TEXT, _INT), _records(_TEXT, _INT)).map(lambda pair: pair[0] + pair[1])
        # leaf containers, then a scalar
        | st.lists(_LEAF, max_size=3).map(lambda items: items + ["7"])
    ),
    max_leaves=20,
)


@st.composite
def _record_block(draw):
    """A record block and the list it stands for: dicts on one to three
    sorted keys, or lists of one to three ints."""
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_INT, min_size=width, max_size=width), max_size=4))
    fields = tuple(chain.from_iterable(rows))
    if draw(st.booleans()):
        return cli._Records(width, fields), rows
    keys = tuple(sorted(draw(st.lists(_TEXT, min_size=width, max_size=width, unique=True))))
    return cli._Records(keys, fields), [dict(zip(keys, row)) for row in rows]


# a document holding record blocks, and the same document with each block expanded
_BLOCK_DOCUMENT = st.recursive(
    _record_block() | _SCALAR.map(lambda value: (value, value)),
    lambda children: (
        st.lists(children, max_size=3).map(lambda items: tuple(map(list, zip(*items))) or ([], []))
        | st.dictionaries(_TEXT, children, max_size=4).map(lambda items: (
            {key: value for key, (value, _) in items.items()},
            {key: plain for key, (_, plain) in items.items()}))
    ),
    max_leaves=10,
)


class TestDumps:
    @settings(deadline=None, max_examples=400)
    @given(_DOCUMENT)
    # records whose keys hold % or come in another order, and near-records
    @example({"a": [{"%d": 1, "b": 2}, {"b": -3, "%d": 2**100}], "b": [{"a": 1}, {"b": 1}],
              "c": [[1, 2], [3]], "d": [{}, {}], "e": [[], []], "f": [{"a": True}, {"a": 1}],
              "g": [[1, 2], [3, "4"]], "h": [[1], [None]]})
    def test_matches_json_dumps(self, document):
        assert cli._dumps(document) == json.dumps(document, indent=2, sort_keys=True)

    @pytest.mark.parametrize("document", [
        {"rows": [{}, {"a": 1}], "pairs": [[1, 2], []]},
        [{"a": [1]}, {"b": 2}],
        {"a": {"b": {}}, "c": [[[]]], "d": ""},
    ])
    def test_edge_documents(self, document):
        assert cli._dumps(document) == json.dumps(document, indent=2, sort_keys=True)

    @settings(deadline=None, max_examples=300)
    @given(_BLOCK_DOCUMENT)
    def test_record_blocks_print_as_their_lists(self, documents):
        document, expanded = documents
        assert cli._dumps(document) == json.dumps(expanded, indent=2, sort_keys=True)

    @pytest.mark.parametrize("sibling", [None, [1, "a"], {"a": [[1], {"b": None}]}],
                             ids=["encoded", "leaf", "nested"])
    def test_record_block_edge_cases(self, sibling):
        keys = ('"%d"', "%s", "~", "é☃")  # in sorted order, as a block's keys come
        blocks = {
            "empty-keys": (cli._Records(keys[:2], ()), []),
            "empty-width": (cli._Records(3, ()), []),
            "keys": (cli._Records(keys, (1, -2, 2**100, -(2**100))),
                     [dict(zip(keys, (1, -2, 2**100, -(2**100))))]),
            "width-1": (cli._Records(1, (0, -(2**100))), [[0], [-(2**100)]]),
            "width-2": (cli._Records(2, (2**100, 3, 4, 5)), [[2**100, 3], [4, 5]]),
            "nested": ([cli._Records(("a",), (7, 8))], [[{"a": 7}, {"a": 8}]]),
        }
        document = {key: block for key, (block, _) in blocks.items()}
        expanded = {key: plain for key, (_, plain) in blocks.items()}
        document["sibling"] = expanded["sibling"] = sibling
        assert cli._dumps(document) == json.dumps(expanded, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value, message", [
        (1.5, "Object of type float is not JSON serializable"),
        ((1, 2), "Object of type tuple is not JSON serializable"),
        ({1}, "Object of type set is not JSON serializable"),
        ({1: "a"}, "keys must be str, not int"),
    ], ids=["float", "tuple", "set", "int-key"])
    def test_refuses_values_no_verb_builds(self, value, message):
        """Beside a record block, as a dict's value and as a list's item."""
        for document in ({"a": cli._Records(1, (1,)), "b": value}, [[1], value]):
            with pytest.raises(TypeError, match=message):
                cli._dumps(document)


_LOOSE = to_json_dict(from_staircase(Staircase((1, 1))))
_LOOSE["arrows"].append({"from": "s1", "to": "ghost", "upower": 0})


@pytest.mark.parametrize(
    "args",
    [["d1", "--complex", "in.json"], ["diagram", "complex", "in.json", "--svg", "out.svg"]],
)
@pytest.mark.parametrize(
    "content, message",
    [
        (json.dumps(_LOOSE).encode(),
         "invalid complex: unknown-generator: arrow s1->ghost has a loose end"),
        (b"\xff\xfe{", "unreadable JSON in in.json: 'utf-8' codec can't decode byte 0xff"),
        # json.load recurses once per level, and would end in a RecursionError traceback
        (b"[" * 200_000, "unreadable JSON in in.json: maximum recursion depth exceeded"),
    ],
    ids=["loose-arrow", "not-utf8", "deeply-nested"],
)
def test_bad_complex_file_exits_1(runner, tmp_path, monkeypatch, args, content, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_bytes(content)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"Error: {message}")
    assert result.output.count("\n") == 1
    assert not (tmp_path / "out.svg").exists()


def _trefoil_with(arrows: list[tuple[str, str, int]], names: list[str]) -> dict:
    """The trefoil's complex document with extra arrows and generators."""
    document = to_json_dict(from_staircase(Staircase((1, 1))))
    document["arrows"] += [{"from": s, "to": t, "upower": u} for s, t, u in arrows]
    document["generators"] += [{"name": n, "alexander": 0, "maslov": 0} for n in names]
    return document


@pytest.mark.parametrize(
    "document",
    [
        _trefoil_with([("s1", "ghost", 0), ("s1", "s0", 1)], []),
        _trefoil_with([("s1", "s2", 0)], ["s0"]),
    ],
    ids=["loose-arrow", "repeated-name"],
)
def test_duplicate_arrows_are_reported_first(runner, tmp_path, document):
    """Before a repeated name or a loose end, as in a document's report order."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(document))
    result = runner.invoke(main, ["d1", "--complex", str(path)])
    assert result.exit_code == 1
    assert result.output == "Error: malformed complex document: duplicate arrows\n"


def _torus_staircase(p: int, q: int) -> Staircase:
    """T(p, q)'s staircase, stepped between the exponents of its Alexander
    polynomial by division."""
    exponents = [e for e, _ in torus_alexander_by_division(p, q)]
    return Staircase(tuple(b - a for a, b in zip(exponents, exponents[1:])))


class TestKnotReport:
    """torus and staircase print exactly the report built as plain dicts and lists."""

    @staticmethod
    def _check(args: list[str], report: dict) -> None:
        runner = CliRunner()
        expected = json.dumps({"schema": "cfk-1", **report}, indent=2, sort_keys=True) + "\n"
        assert runner.invoke(main, ["--json", *args]).stdout == expected
        assert runner.invoke(main, args).stdout == reference_report_text(report) + "\n"

    def test_every_torus_knot_up_to_30(self):
        for p in range(2, 31):
            for q in range(2, 31):
                if p != q and math.gcd(p, q) == 1:
                    report = reference_knot_report(f"T({p},{q})", _torus_staircase(p, q))
                    self._check(["torus", str(p), str(q)], report)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    def test_palindromic_staircases(self, half):
        steps = ",".join(map(str, half + half[::-1]))
        self._check(["staircase", steps], reference_knot_report(f"St({steps})", Staircase(
            tuple(half + half[::-1]))))


@pytest.mark.parametrize("flags", [[], ["--verify", "--delta2"]], ids=["plain", "verify-delta2"])
@pytest.mark.parametrize("m", range(1, 13))
def test_double_prints_the_reference_report(runner, m, flags):
    """double M prints exactly the report built as plain dicts and lists."""
    report = reference_double_report(m, verified=bool(flags))
    args = ["double", str(m), *flags]
    expected = json.dumps({"schema": "cfk-1", **report}, indent=2, sort_keys=True) + "\n"
    assert runner.invoke(main, ["--json", *args]).stdout == expected
    assert runner.invoke(main, args).stdout == reference_double_text(report) + "\n"


class TestClassify:
    def test_verdicts(self, runner):
        for args, verdict in [
            (["classify", "torus", "2", "7"], "DISTINGUISHABLE"),
            (["classify", "torus", "2", "5"], "SPECIAL-CASE-DISTINGUISHABLE"),
            (["classify", "torus", "2", "3"], "INCONCLUSIVE"),
            (["classify", "torus", "3", "4"], "INCONCLUSIVE"),
            (["classify", "staircase", "1,1,1,1"], "SPECIAL-CASE-DISTINGUISHABLE"),
        ]:
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert result.output.startswith(f"verdict          {verdict}")


class TestDiagram:
    def _counts(self, path):
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ET.parse(path).getroot()
        dots = root.findall(".//svg:circle[@class='dot']", ns)
        arrows = [
            line
            for line in root.findall(".//svg:line", ns)
            if line.get("class") == "arrow"
        ]
        return len(dots), len(arrows)

    def test_staircase_diagram(self, runner, tmp_path):
        out = tmp_path / "st.svg"
        result = runner.invoke(main, ["diagram", "staircase", "1,2,2,1", "--svg", str(out)])
        assert result.exit_code == 0
        assert self._counts(out) == (5, 4)

    def test_tensor_square_diagram(self, runner, tmp_path):
        out = tmp_path / "sq.svg"
        result = runner.invoke(
            main,
            ["diagram", "torus", "3", "4", "--svg", str(out), "--tensor-square"],
        )
        assert result.exit_code == 0
        dots, _ = self._counts(out)
        assert dots == 25

    def test_complex_file_diagram(self, runner, tmp_path):
        source = tmp_path / "c.json"
        source.write_text(json.dumps(to_json_dict(from_staircase(Staircase((1, 1))))))
        out = tmp_path / "c.svg"
        result = runner.invoke(main, ["diagram", "complex", str(source), "--svg", str(out)])
        assert result.exit_code == 0
        assert self._counts(out) == (3, 2)

    def test_square_whose_names_collide_is_refused(self, runner, tmp_path):
        """x and x*x are valid names, but (x, x*x) and (x*x, x) are both x*x*x."""
        source = tmp_path / "c.json"
        source.write_text(json.dumps({
            "generators": [{"name": n, "alexander": 0, "maslov": 0} for n in ("x", "x*x")],
            "arrows": [],
        }))
        out = tmp_path / "sq.svg"
        result = runner.invoke(
            main, ["diagram", "complex", str(source), "--tensor-square", "--svg", str(out)]
        )
        assert result.exit_code == 1
        assert result.output == "Error: duplicate-name: generator names ['x*x*x'] repeat\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["diagram", "torus", "2", "201"],
            ["diagram", "staircase", ",".join(["1"] * 200)],
            ["diagram", "complex", "big.json"],
        ],
        ids=["torus", "staircase", "complex"],
    )
    def test_tensor_square_above_the_cap_is_usage_error(self, runner, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text(
            json.dumps(to_json_dict(from_staircase(Staircase((1,) * 200))))
        )
        result = runner.invoke(main, args + ["--tensor-square", "--svg", "out.svg"])
        assert result.exit_code == 2
        assert "Error: --tensor-square needs <= 200 generators, got 201\n" in result.output
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("args", [["torus", "2", "201"], ["staircase", ",".join(["1"] * 200)]])
    def test_staircase_square_is_refused_before_its_complex_is_built(
        self, runner, tmp_path, monkeypatch, args
    ):
        def unreachable(stair):
            raise AssertionError("the staircase complex was built")

        monkeypatch.setattr(cli, "from_staircase", unreachable)
        out = tmp_path / "out.svg"
        result = runner.invoke(main, ["diagram", *args, "--tensor-square", "--svg", str(out)])
        assert result.exit_code == 2
        assert result.output.endswith("Error: --tensor-square needs <= 200 generators, got 201\n")
        assert not out.exists()

    def test_tensor_square_cap_is_inclusive(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SQUARED_GENERATORS", 5)
        svg = ["--tensor-square", "--svg", str(tmp_path / "sq.svg")]
        assert runner.invoke(main, ["diagram", "torus", "3", "4"] + svg).exit_code == 0
        result = runner.invoke(main, ["diagram", "staircase", "1,1,1,1,1,1"] + svg)
        assert result.exit_code == 2
        assert "Error: --tensor-square needs <= 5 generators, got 7\n" in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["staircase", "1000000000,1000000000"], "got 1000000003 x 1000000003"),
            (["complex", "tall.json"], "got 3 x 20003"),
        ],
        ids=["staircase", "complex"],
    )
    def test_grid_above_the_cap_is_usage_error(self, runner, tmp_path, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        tall = {
            "generators": [
                {"name": "a", "alexander": 0, "maslov": 0},
                {"name": "b", "alexander": 20000, "maslov": 0},
            ],
            "arrows": [],
        }
        (tmp_path / "tall.json").write_text(json.dumps(tall))
        result = runner.invoke(main, ["diagram"] + args + ["--svg", "out.svg"])
        assert result.exit_code == 2
        assert f"Error: diagrams span at most 10000 cells per axis, {message}\n" in result.output
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("args", [["torus", "2", "40001"], ["staircase", "20000,20000"]])
    def test_staircase_grid_is_refused_before_its_complex_is_built(
        self, runner, tmp_path, monkeypatch, args
    ):
        def unreachable(stair):
            raise AssertionError("the staircase complex was built")

        monkeypatch.setattr(cli, "from_staircase", unreachable)
        monkeypatch.setattr(diagrams, "from_staircase", unreachable)
        result = runner.invoke(main, ["diagram", *args, "--svg", str(tmp_path / "out.svg")])
        assert result.exit_code == 2
        assert result.output.endswith(
            "Error: diagrams span at most 10000 cells per axis, got 20003 x 20003\n"
        )
        assert not (tmp_path / "out.svg").exists()

    def test_grid_cap_is_inclusive(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(diagrams, "MAX_GRID_CELLS", 5)
        svg = ["--svg", str(tmp_path / "g.svg")]
        assert runner.invoke(main, ["diagram", "staircase", "2,2"] + svg).exit_code == 0
        result = runner.invoke(main, ["diagram", "staircase", "3,3"] + svg)
        assert result.exit_code == 2
        assert "Error: diagrams span at most 5 cells per axis, got 6 x 6\n" in result.output

    def test_unwritable_path_is_computation_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["diagram", "staircase", "1,1", "--svg", str(tmp_path / "no" / "dir.svg")],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("square", [[], ["--tensor-square"]], ids=["plain", "square"])
    def test_torus_and_its_staircase_draw_one_svg(self, runner, tmp_path, square):
        torus, stair = tmp_path / "torus.svg", tmp_path / "stair.svg"
        for args, out in [(["torus", "3", "4"], torus), (["staircase", "1,2,2,1"], stair)]:
            result = runner.invoke(main, ["diagram", *args, "--svg", str(out), *square])
            assert result.exit_code == 0, result.output
        assert torus.read_bytes() == stair.read_bytes()


@pytest.mark.parametrize(
    "torus, staircase",
    [
        (["torus", "3", "4"], ["staircase", "1,2,2,1"]),
        (["classify", "torus", "2", "5"], ["classify", "staircase", "1,1,1,1"]),
    ],
    ids=["report", "classify"],
)
def test_torus_and_its_staircase_differ_only_in_knot(runner, torus, staircase):
    one, other = (json.loads(runner.invoke(main, ["--json", *args]).stdout)
                  for args in (torus, staircase))
    assert one.pop("knot") != other.pop("knot")
    assert one == other


class TestTable:
    def test_two_strand_family_csv(self, runner):
        result = runner.invoke(main, ["table", "--family", "t2:5", "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [row["delta_whitehead"] for row in rows] == [
            "-4",
            "-8",
            "-12",
            "-16",
            "-20",
        ]

    def test_torus_family_tau_column(self, runner):
        result = runner.invoke(main, ["table", "--family", "torus:5", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["schema"] == "cfk-1"
        for row in payload["rows"]:
            p, q = row["knot"][2:-1].split(",")
            assert row["tau"] == (int(p) - 1) * (int(q) - 1) // 2

    def test_single_row_second_double(self, runner):
        result = runner.invoke(main, ["table", "--family", "t2:1", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 1
        assert rows[0]["delta_double_double"] == "-4"

    def test_torus_family_above_the_cap_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "--family", "torus:31"])
        assert result.exit_code == 2
        assert "Error: torus:N takes N <= 30, got 31\n" in result.output

    def test_two_strand_family_above_the_cap_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "--family", "t2:51"])
        assert result.exit_code == 2
        assert "Error: t2:M takes M <= 50, got 51\n" in result.output

    def test_empty_family_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "--family", "torus:2"])
        assert result.exit_code == 2

    def test_unknown_family_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "--family", "moons:3"])
        assert result.exit_code == 2

    def test_json_deterministic(self, runner):
        first = runner.invoke(main, ["table", "--family", "torus:6", "--format", "json"]).output
        second = runner.invoke(main, ["table", "--family", "torus:6", "--format", "json"]).output
        assert first == second


# underscores, Arabic-Indic and fullwidth digits, non-ASCII spaces, other notations
_NOT_PLAIN = ["1_1", "\u0661", "\uff14", "4\u00a0", "\u20034", "4.0", "0x4", ""]
_NOT_AN_INTEGER = "Invalid value for '{}': {{!r}} is not a valid integer."
_MALFORMED_STAIRCASE = "malformed staircase vector {!r}: expected comma-separated integers"
_MALFORMED_FAMILY = "malformed family {!r}: expected torus:N or t2:M"


class TestStrictIntegers:
    @pytest.mark.parametrize("text", _NOT_PLAIN)
    @pytest.mark.parametrize(
        "args, message",
        [
            (["torus", "3", "{}"], _NOT_AN_INTEGER.format("Q")),
            (["classify", "torus", "{}", "4"], _NOT_AN_INTEGER.format("P")),
            (["diagram", "torus", "3", "{}"], _NOT_AN_INTEGER.format("Q")),
            (["double", "{}"], _NOT_AN_INTEGER.format("M")),
            (["diagram", "double", "{}"], _NOT_AN_INTEGER.format("M")),
            (["staircase", "1,{}"], _MALFORMED_STAIRCASE),
            (["classify", "staircase", "1,{}"], _MALFORMED_STAIRCASE),
            (["diagram", "staircase", "1,{}"], _MALFORMED_STAIRCASE),
            (["table", "--family", "t2:{}"], _MALFORMED_FAMILY),
            (["table", "--family", "torus:{}"], _MALFORMED_FAMILY),
        ],
        ids=[
            "torus", "classify-torus", "diagram-torus", "double", "diagram-double",
            "staircase", "classify-staircase", "diagram-staircase", "table-t2", "table-torus",
        ],
    )
    def test_refused_with_exit_2(self, runner, tmp_path, monkeypatch, args, message, text):
        monkeypatch.chdir(tmp_path)
        value = next(arg for arg in args if "{}" in arg).format(text)
        args = [arg.format(text) for arg in args]
        if args[0] == "diagram":
            args += ["--svg", "out.svg"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: {message.format(value)}\n")
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["torus", " 3", "+4 "], ["torus", "3", "4"]),
            (["classify", "torus", "3\t", "\n4"], ["classify", "torus", "3", "4"]),
            (["double", " +1 "], ["double", "1"]),
            (["staircase", " 1, 1 "], ["staircase", "1,1"]),
            (["classify", "staircase", "1 ,+1"], ["classify", "staircase", "1,1"]),
            (["table", "--family", "t2: 2 "], ["table", "--family", "t2:2"]),
            (["table", "--family", "torus:+5"], ["table", "--family", "torus:5"]),
        ],
    )
    def test_padded_and_signed_integers_still_parse(self, runner, args, expected):
        padded, plain = runner.invoke(main, args), runner.invoke(main, expected)
        assert padded.exit_code == plain.exit_code == 0
        # the family name is echoed only by the JSON format
        assert padded.output == plain.output

    @settings(deadline=None, max_examples=400)
    @given(st.text(alphabet=" \t\n\r\f\v+-0123456789", max_size=6))
    def test_agrees_with_int_on_plain_ascii(self, text):
        try:
            expected = int(text)
        except ValueError:
            with pytest.raises(ValueError):
                cli._strict_int(text)
        else:
            assert cli._strict_int(text) == expected


def test_unknown_verb_is_usage_error(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


class TestFrontEnd:
    def test_import_loads_no_third_party_module(self):
        script = (
            "import sys; before = set(sys.modules); import cfktools.cli; "
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
            "print('click' in sys.modules, sorted(added - sys.stdlib_module_names - {'cfktools'}))"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False []\n"

    def test_parser_is_built_at_import_only(self, runner, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a parser was built during a call")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", built)
        assert runner.invoke(main, ["--json", "classify", "torus", "3", "4"]).exit_code == 0

    def test_main_without_standalone_mode_returns_or_raises(self, capsys, tmp_path):
        assert main(["--json", "torus", "3", "4"], standalone_mode=False) in (0, None)
        assert json.loads(capsys.readouterr().out)["tau"] == 3
        with pytest.raises(cli.UsageError, match="p,q must be coprime"):
            main(["torus", "2", "4"], standalone_mode=False)
        with pytest.raises(cli.UsageError, match="unrecognized arguments: 5"):
            main(["torus", "3", "4", "5"], standalone_mode=False)
        path = tmp_path / "box.json"
        path.write_text(json.dumps(to_json_dict(single_box())))
        with pytest.raises(CFKError, match="column homology"):
            main(["d1", "--complex", str(path)], standalone_mode=False)
        assert main(["torus", "--help"], standalone_mode=False) == 0
        assert "Invariant report for the (P, Q) torus knot." in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args, text",
        [
            ([], "Emit JSON documents."),
            (["torus"], "Invariant report for the (P, Q) torus knot."),
            (["staircase"], "Invariant report for the staircase with STEPS like 1,2,2,1."),
            (["double"], "Check the trefoil + acyclic splitting."),
            (["d1"], "Correction term of +1 surgery for a complex in a JSON file."),
            (["classify"], "Distinguishability of a knot's iterated doubles."),
            (["classify", "torus"], "Classify the double of the (P, Q) torus knot."),
            (["classify", "staircase"], "Classify the double of a staircase knot."),
            (["diagram"], "Render a grid diagram to an SVG file."),
            (["diagram", "torus"], "Draw the complex tensored with itself."),
            (["diagram", "staircase"], "Diagram of a staircase complex."),
            (["diagram", "double"], "Diagram of the double of T(2, 2M+1)."),
            (["diagram", "complex"], "Diagram of a complex loaded from a JSON file."),
            (["table"], "torus:N (coprime p<q<=N) or t2:M (m=1..M)."),
        ],
    )
    def test_help_exits_0(self, runner, args, text):
        result = runner.invoke(main, [*args, "--help"])
        assert result.exit_code == 0
        assert result.stdout.startswith(f"usage: {' '.join(['cfk', *args])} ")
        assert text in " ".join(result.stdout.split())
        assert result.stderr == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--fam", "torus:3"],
            ["torus", "3", "4", "5"],
            ["torus", "2", "3", "--json"],
            ["table", "--family", "torus:5", "--format", "xml"],
            ["d1", "--complex", "missing.json"],
            ["torus", "3", "-4"],
            ["classify"],
            ["diagram"],
            [],
        ],
    )
    def test_malformed_command_line_exits_2(self, runner, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.count("Error: ") == 1 and result.stderr.endswith("\n")

    @pytest.mark.parametrize(
        "args, calls",
        [
            (["--json", "torus", "3", "4"], {}),
            (["--json", "staircase", "1,2,2,1"], {}),
            (["--json", "classify", "torus", "2", "5"], {}),
            (["--json", "classify", "staircase", "1,1"], {}),
            (["torus", "3", "4"], {"_report_text": 1}),
            (["classify", "torus", "2", "5"], {"_classify_text": 1}),
        ],
    )
    def test_builds_only_the_printed_form(self, runner, monkeypatch, args, calls):
        counted = Counter()
        for name in ("_report_text", "_classify_text"):
            def text(report, _fn=getattr(cli, name), _name=name):
                counted[_name] += 1
                return _fn(report)

            monkeypatch.setattr(cli, name, text)
        assert runner.invoke(main, args).exit_code == 0
        assert counted == calls


@pytest.fixture
def in_argv_files(tmp_path, monkeypatch):
    """Run in a directory that holds c.json, a complex, and d, a directory;
    missing.json and o.svg do not exist.  Parsing writes no file, so one
    directory serves every example of a property test."""
    (tmp_path / "c.json").write_text(json.dumps(to_json_dict(from_staircase(Staircase((1, 1))))))
    (tmp_path / "d").mkdir()
    monkeypatch.chdir(tmp_path)


_PATHS = st.sampled_from(["c.json", "missing.json", "d", "o.svg"])
_INTEGERS = st.sampled_from(["3", "4", "5", " 3", "+2", "-2", "1_1", "x", ""])
_STEPS = st.sampled_from(["1,1", "1,2,2,1", "", "-1", "1, 1", "x"])
# tokens a mutation inserts: option strings of every command, spellings only
# argparse reads, and words, numbers and values
_TOKENS = st.sampled_from([
    "-h", "--help", "--", "-", "--json", "--verify", "--delta2", "--svg", "--svg=o.svg",
    "--tensor-square", "--complex", "--family", "--fam", "--format", "--format=json",
    "torus", "staircase", "double", "complex", "classify", "3", "-2", "json", "torus:5", "",
])


@st.composite
def command_lines(draw):
    """An argv drawn from the command grammar, its options in any order and
    some left out, then with zero to two tokens swapped, inserted or deleted."""
    def knot():
        if draw(st.booleans()):
            return ["torus", draw(_INTEGERS), draw(_INTEGERS)]
        return ["staircase", draw(_STEPS)]

    verb = draw(st.sampled_from(["report", "double", "d1", "classify", "diagram", "table"]))
    options: list[list[str]] = []
    if verb == "report":
        words = knot()
    elif verb == "double":
        words, options = ["double", draw(_INTEGERS)], [["--verify"], ["--delta2"]]
    elif verb == "d1":
        words, options = ["d1"], [["--complex", draw(_PATHS)]]
    elif verb == "classify":
        words = ["classify", *knot()]
    elif verb == "diagram":
        kind = draw(st.sampled_from(["knot", "double", "complex"]))
        if kind == "knot":
            words = ["diagram", *knot()]
        else:
            words = ["diagram", kind, draw(_INTEGERS if kind == "double" else _PATHS)]
        options = [["--svg", draw(_PATHS)]] + [["--tensor-square"]] * (kind != "double")
    else:
        words = ["table"]
        options = [["--family", draw(st.sampled_from(["torus:5", "t2:2", "torus:x", "-t2:1"]))],
                   ["--format", draw(st.sampled_from(["csv", "json", "xml", ""]))]]
    options = draw(st.permutations(options))[:draw(st.integers(0, len(options)))]
    argv = ["--json"] * draw(st.booleans()) + words + list(chain.from_iterable(options))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["swap", "insert", "delete"]))
        if edit == "insert":
            argv.insert(where, draw(_TOKENS))
        elif where < len(argv):
            other = draw(st.integers(0, len(argv) - 1))
            if edit == "swap":
                argv[where], argv[other] = argv[other], argv[where]
            else:
                del argv[where]
    return argv


def _argparse_reading(argv: list[str]) -> dict | None:
    """vars of the namespace cli._PARSER reads from argv, or None when it
    raises UsageError or exits (as --help does)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli._PARSER.parse_args(argv))
    except (cli.UsageError, SystemExit):
        return None


# spellings the fast reader leaves to argparse, each of which argparse reads
# or refuses: an --opt=value, a repeated flag, a value like -2, --, --help,
# a missing --complex file, a directory and a --format outside its choices
_LEFT_TO_ARGPARSE = [
    ["diagram", "torus", "3", "4", "--svg=o.svg"],
    ["--json", "--json", "torus", "3", "4"],
    ["torus", "-2", "3"],
    ["--"],
    ["-h"],
    ["torus", "--help"],
    ["d1", "--complex", "missing.json"],
    ["d1", "--complex", "d"],
    ["table", "--family", "torus:5", "--format", "xml"],
]
# canonical command lines, among them an option between positionals, a value
# padded with a space and an empty staircase, which the reader reads as argparse does
_CANONICAL = [
    ["torus", "3", "4"],
    ["--json", "classify", "staircase", "1,1"],
    ["double", "3", "--verify", "--delta2"],
    ["double", "--verify", "3"],
    ["torus", " 3", "4"],
    ["staircase", ""],
    ["d1", "--complex", "c.json"],
    ["diagram", "complex", "c.json", "--svg", "o.svg", "--tensor-square"],
    ["--json", "table", "--format", "json", "--family", "torus:5"],
]


class TestQuickParse:
    @given(argv=command_lines())
    @settings(deadline=None, max_examples=1500,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reads_what_argparse_reads_or_leaves_it(self, in_argv_files, argv):
        """The fast reader returns argparse's namespace or None, and None
        whenever argparse refuses the command line or exits."""
        quick = cli._quick_parse(argv)
        assert quick is None or vars(quick) == _argparse_reading(argv)

    @pytest.mark.parametrize("argv", _LEFT_TO_ARGPARSE)
    def test_leaves_other_spellings_to_argparse(self, in_argv_files, argv):
        assert cli._quick_parse(argv) is None

    @pytest.mark.parametrize("argv", _CANONICAL)
    def test_reads_canonical_command_lines(self, in_argv_files, argv):
        quick = cli._quick_parse(argv)
        assert quick is not None and vars(quick) == _argparse_reading(argv)

    def test_rare_spellings_print_what_their_canonical_forms_print(self, runner, tmp_path):
        for rare, canonical in [
            (["double", "--verify", "1"], ["double", "1", "--verify"]),
            (["--json", "--json", "torus", "3", "4"], ["--json", "torus", "3", "4"]),
            (["table", "--format=json", "--family", "torus:5"],
             ["table", "--format", "json", "--family", "torus:5"]),
        ]:
            assert runner.invoke(main, rare).stdout_bytes == runner.invoke(main, canonical).stdout_bytes
        one, other = tmp_path / "a.svg", tmp_path / "b.svg"
        assert runner.invoke(main, ["diagram", "torus", "3", "4", f"--svg={one}"]).exit_code == 0
        assert runner.invoke(main, ["diagram", "torus", "3", "4", "--svg", str(other)]).exit_code == 0
        assert one.read_bytes() == other.read_bytes()


@pytest.mark.parametrize("name, char", [("a\ud800b", "\ud800"), ("a\u0001b", "\u0001"),
                                        ("a\rb", "\r")], ids=["surrogate", "control", "cr"])
@pytest.mark.parametrize("verb", [["diagram", "complex", "c.json", "--svg", "o.svg"],
                                  ["d1", "--complex", "c.json"]], ids=["diagram", "d1"])
def test_name_no_output_can_carry_is_refused(runner, tmp_path, monkeypatch, name, char, verb):
    """No traceback, one stderr line that names the name with repr, and no SVG."""
    monkeypatch.chdir(tmp_path)
    # json.dumps writes a lone surrogate as \ud800, which json.load reads back
    (tmp_path / "c.json").write_text(
        json.dumps({"generators": [{"name": name, "alexander": 0, "maslov": 0}], "arrows": []})
    )
    result = runner.invoke(main, verb)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == (
        f"Error: invalid complex: unwritable-name: name {name!r} holds {char!r}; "
        "names hold no C0 control character, lone surrogate, U+FFFE or U+FFFF\n"
    )
    assert not (tmp_path / "o.svg").exists()


def test_svg_is_encoded_before_its_file_is_opened(tmp_path):
    path = tmp_path / "o.svg"
    with pytest.raises(CFKError, match="cannot write .*surrogates not allowed"):
        cli._write_svg("<svg>\ud800</svg>", str(path))
    assert not path.exists()


def test_runner_fails_a_write_that_utf8_cannot_encode(runner):
    result = runner.invoke(lambda args: print("a\ud800b"), [])
    assert result.exit_code == 1 and isinstance(result.exception, UnicodeEncodeError)

