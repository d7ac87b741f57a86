"""Runs ``cfktools.cli.main`` in-process with stdout and stderr captured.

``CliRunner().invoke(main, args)`` calls ``main(args)`` as the console script
would and returns a ``Result``; ``isolated_filesystem`` runs a block in a
fresh working directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass


class _Stream(io.StringIO):
    """A captured stream that also logs each write, in order, to a shared list."""

    def __init__(self, log: list[str]) -> None:
        super().__init__()
        self._log = log

    def write(self, text: str) -> int:
        self._log.append(text)
        return super().write(text)


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr in the order they were written
    stdout: str
    stderr: str
    exception: BaseException | None  # SystemExit on a non-zero exit, or what main raised

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")


class CliRunner:
    def invoke(self, main, args: list[str]) -> Result:
        log: list[str] = []
        out, err = _Stream(log), _Stream(log)
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
                if code:
                    exception = exc
            except Exception as exc:  # what the console script would print as a traceback
                code, exception = 1, exc
        return Result(code or 0, "".join(log), out.getvalue(), err.getvalue(), exception)

    @contextlib.contextmanager
    def isolated_filesystem(self, temp_dir=None):
        """Run the block in a new directory under temp_dir, removed afterwards."""
        cwd = os.getcwd()
        path = tempfile.mkdtemp(dir=temp_dir)
        os.chdir(path)
        try:
            yield path
        finally:
            os.chdir(cwd)
            shutil.rmtree(path, ignore_errors=True)
