"""README's Python API example runs, and shows what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _shown(value) -> str:
    """A value as the comments write it: a tuple as its comma-separated items."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def test_python_api_block():
    source = _api_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2]
        # the claim ends where an explanation (after ";" or " = ") starts
        claim = re.split(r";| = ", comment)[0].strip()
        assert _shown(value) == claim, lines[node.end_lineno - 1]
        checked.append(claim)
    assert "SPECIAL-CASE-DISTINGUISHABLE" in checked and "-4" in checked
