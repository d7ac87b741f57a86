"""Byte-for-byte CLI output against recorded goldens in tests/goldens/.

Each case runs one command from a scratch working directory; a case that
writes an SVG is compared on the file it writes, the others on stdout.  The
d1 case reads the T(3,4) tensor square from ``t34-square.json``, copied in
under a fixed relative name because the ``file`` field echoes the path.
Outputs too large to keep as files are pinned by length and SHA-256.

Regenerate (only when an output change is intended):
    PYTHONPATH=src python -m tests.test_goldens
"""

import hashlib
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

# stdout length and SHA-256, recorded with the O(V^2) pair loop of delta_whitehead
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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_digest(name):
    args, size, digest = DIGESTS[name]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(result.stdout_bytes) == size
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


if __name__ == "__main__":
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            (GOLDENS / case).write_bytes(_run(case, Path(scratch)))
