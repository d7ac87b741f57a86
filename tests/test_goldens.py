"""Byte-for-byte CLI output against recorded goldens in tests/goldens/.

Each case runs one command from a scratch working directory; a case that
writes an SVG is compared on the file it writes, the others on stdout.  The
d1 case reads the T(3,4) tensor square from ``t34-square.json``, copied in
under a fixed relative name because the ``file`` field echoes the path.

Regenerate (only when an output change is intended):
    PYTHONPATH=src python -m tests.test_goldens
"""

import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from cfktools.cli import main

GOLDENS = Path(__file__).parent / "goldens"

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


def _run(name: str, workdir: Path) -> bytes:
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=workdir) as cwd:
        shutil.copy(GOLDENS / "t34-square.json", "square.json")
        result = runner.invoke(main, CASES[name])
        assert result.exit_code == 0, result.output
        if name.endswith(".svg"):
            return (Path(cwd) / "out.svg").read_bytes()
        return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert _run(name, tmp_path) == (GOLDENS / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            (GOLDENS / case).write_bytes(_run(case, Path(scratch)))
