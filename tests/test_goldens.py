"""Byte-for-byte CLI output against recorded goldens in tests/goldens/.

Each case runs one command from a scratch working directory; a case that
writes an SVG is compared on the file it writes, the others on stdout.  The
d1 case reads the T(3,4) tensor square from ``t34-square.json``, copied in
under a fixed relative name because the ``file`` field echoes the path.
Outputs too large to keep as files are pinned by length and SHA-256.
Complex files with several faults must exit 1 with a one-line message that
names the least faulty arrow.  The goldens and those messages are also
replayed in fresh interpreters under fixed ``PYTHONHASHSEED`` values, since
the order in which a set of arrows iterates follows string hashing.

Regenerate (only when an output change is intended):
    PYTHONPATH=src python -m tests.test_goldens
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cfktools import Staircase, from_staircase, to_json_dict
from cfktools.cli import main

from .cli_runner import CliRunner

ROOT = Path(__file__).parent.parent
GOLDENS = ROOT / "tests" / "goldens"

CASES = {
    "torus-3-4.json": ["--json", "torus", "3", "4"],
    "staircase-1-2-2-1.json": ["--json", "staircase", "1,2,2,1"],
    "classify-torus-2-5.json": ["--json", "classify", "torus", "2", "5"],
    "classify-staircase-1-1-1-1.json": ["--json", "classify", "staircase", "1,1,1,1"],
    "double-2-verify-delta2.json": ["--json", "double", "2", "--verify", "--delta2"],
    "table-t2-3.json": ["--json", "table", "--family", "t2:3"],
    "table-torus-7.csv": ["table", "--family", "torus:7", "--format", "csv"],
    "d1-t34-square.json": ["--json", "d1", "--complex", "square.json"],
    "diagram-torus-3-4-square.svg": ["diagram", "torus", "3", "4", "--tensor-square",
                                     "--svg", "out.svg"],
    "diagram-double-1.svg": ["diagram", "double", "1", "--svg", "out.svg"],
}

# stdout length and SHA-256; the first two recorded with the O(V^2) pair loop
# of delta_whitehead, the JSON ones at size with json.dumps(indent=2) as encoder,
# the doubles with name-keyed complexes
DIGESTS = {
    "table-torus-30.csv": (
        ["table", "--family", "torus:30", "--format", "csv"],
        211_671,
        "8daf51aabf5c1dbfc8b92c70bb8e7c9fa10511478283d8ceccabb3fd7086b6df",
    ),
    "torus-27-29.json": (
        ["--json", "torus", "27", "29"],
        41_403,
        "b6e996a39338ca41b368a4c0b952fad6176df025c3fb0c3fae9871bfd5f45ba3",
    ),
    "table-torus-30.json": (
        ["--json", "table", "--family", "torus:30"],
        432_717,
        "99ef4cdc4509e32e27b9e43824fbf48224276f9c8efeb6fcb08b96d79796f3da",
    ),
    "classify-torus-29-30.json": (
        ["--json", "classify", "torus", "29", "30"],
        796,
        "63c935e158f94cbb9bbe442ee856ed5e3d9995787bcb7a2cec53c556ed75c03a",
    ),
    "torus-97-99.json": (
        ["--json", "torus", "97", "99"],
        527_107,
        "005eb58173fd48962dff4382a5208526d9e58e5e5b4702f95b53c92c89377705",
    ),
    # the largest square (25,281 generators) and the largest double
    "double-10-verify-delta2.json": (
        ["--json", "double", "10", "--verify", "--delta2"],
        3_053,
        "e0ce4f234526906f20f1fa72a12d0032c05313bb66b88a56ce8d281dc27d877f",
    ),
    "double-200-verify.json": (
        ["--json", "double", "200", "--verify"],
        51_552,
        "9f9868384b8d5adbdd954a4451c7f737e4aba6c32174a3ab88e9a8eb189123df",
    ),
}

# length and SHA-256 of the SVG file a command writes; the T(7,11) square
# (961 generators) pins a square's generator order and arrows through drawing
SVG_DIGESTS = {
    "diagram-torus-7-11-square.svg": (
        ["diagram", "torus", "7", "11", "--tensor-square", "--svg", "out.svg"],
        323_567,
        "f347a9db727708ca08114d095d3ac445b6fc584e8ef0e9b1ce9bc8251ed8f2db",
    ),
}


def _t34_with(*arrows: tuple[str, str, int]) -> dict:
    """The T(3,4) complex document with extra arrows (source, target, upower)."""
    document = to_json_dict(from_staircase(Staircase((1, 2, 2, 1))))
    document["arrows"] += [{"from": s, "to": t, "upower": a} for s, t, a in arrows]
    return document


# complex documents with several faults, and the stderr of `d1 --complex`
# on each, recorded with arrows kept in sorted order
FAILURES = {
    "loose-arrows": (
        _t34_with(("s3", "ghost", 1), ("s0", "s4", 0), ("s2", "nowhere", 0),
                  ("phantom", "s0", 0), ("s1", "x9", 0)),
        "Error: invalid complex: unknown-generator: arrow phantom->s0 has a loose end\n",
    ),
    "grading-faults": (
        _t34_with(("s4", "s1", 3), ("s2", "s4", 7), ("s0", "s4", 0),
                  ("s2", "s1", 1), ("s0", "s3", -2)),
        "Error: invalid complex: filtration: arrow s0->s3 (upower -2) "
        "raises a filtration level\n",
    ),
}


def _run(name: str, workdir: Path) -> bytes:
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=workdir) as cwd:
        shutil.copy(GOLDENS / "t34-square.json", "square.json")
        result = runner.invoke(main, CASES[name])
        assert result.exit_code == 0, result.output
        if name.endswith(".svg"):
            return (Path(cwd) / "out.svg").read_bytes()
        return result.stdout_bytes


def _fail(name: str, workdir: Path) -> str:
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=workdir):
        Path("bad.json").write_text(json.dumps(FAILURES[name][0]), encoding="utf-8")
        result = runner.invoke(main, ["d1", "--complex", "bad.json"])
        assert result.exit_code == 1, result.output
        return result.stderr


def mismatches(workdir: Path) -> list[str]:
    """Every case whose output differs from its golden or recorded message."""
    wrong = [name for name in sorted(CASES) if _run(name, workdir) != (GOLDENS / name).read_bytes()]
    return wrong + [name for name in sorted(FAILURES) if _fail(name, workdir) != FAILURES[name][1]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert _run(name, tmp_path) == (GOLDENS / name).read_bytes()


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_message_names_the_least_faulty_arrow(name, tmp_path):
    assert _fail(name, tmp_path) == FAILURES[name][1]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_outputs_do_not_depend_on_string_hashing(hash_seed, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = "import sys; from tests.test_goldens import mismatches as m; print(*m(sys.argv[1]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_digest(name):
    args, size, digest = DIGESTS[name]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(result.stdout_bytes) == size
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(SVG_DIGESTS))
def test_svg_matches_digest(name, tmp_path):
    args, size, digest = SVG_DIGESTS[name]
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        document = (Path(cwd) / "out.svg").read_bytes()
    assert len(document) == size
    assert hashlib.sha256(document).hexdigest() == digest


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            (GOLDENS / case).write_bytes(_run(case, Path(scratch)))
