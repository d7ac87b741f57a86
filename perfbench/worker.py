"""Closed-loop client for one workload, run in a fresh process.

One client, one thread: the next request starts only when the previous one
has returned.  CLI requests call ``cfktools.cli.main(args,
standalone_mode=False)`` in-process with stdout captured; ``eliminate``
requests use the library API.  The pool is replayed in whole passes until
the time is up, so every run times the same mix of requests.

Usage (from the repository root; run.py does this):
    python3 perfbench/worker.py --pool DIR/requests.json --seconds S --trace 0|1 --out FILE
    python3 perfbench/worker.py --import-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    """Import cfktools and its CLI from this checkout; returns (cli module, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import cfktools  # noqa: F401
    import cfktools.cli
    elapsed = perf_counter() - start
    origin = Path(cfktools.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"cfktools was imported from {origin}, not from {ROOT / 'src'}")
    return cfktools.cli, elapsed


# One stdout buffer for every request, as a real process has one stdout:
# click caches a wrapper per stream object and would keep a fresh buffer
# per request alive.
_STDOUT = io.StringIO()


def _cli_request(cli, args):
    def run():
        buffer = _STDOUT
        buffer.seek(0)
        buffer.truncate()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(args, standalone_mode=False)
        if code not in (None, 0):
            raise RuntimeError(f"exit code {code}")
        return buffer.getvalue()
    return run


def _eliminate_request(m, moves):
    import cfktools as lib

    def run():
        scrambled = lib.build_double_complex(m)
        plan = lib.splitting_plan(m)
        for x, y in moves:
            scrambled = lib.basis_change(scrambled, lib.BasisChange(x=x, y=y))
        cleaned = lib.remove_diagonals(scrambled, plan)
        split = lib.verify_splitting(cleaned)
        return scrambled, cleaned, split, lib.d1_general(scrambled), lib.d1_general(cleaned)
    return run


def _eliminate_text(outcome) -> str:
    scrambled, cleaned, split, d1_scrambled, d1_cleaned = outcome
    return json.dumps({
        "scrambled_arrows": len(scrambled.arrows),
        "generators": [[g.name, g.alexander, g.maslov] for g in cleaned.generators],
        "arrows": sorted([a.source, a.target, a.upower] for a in cleaned.arrows),
        "splitting": split.to_dict(),
        "d1_scrambled": d1_scrambled,
        "d1_cleaned": d1_cleaned,
    }, sort_keys=True)


def _make_request(cli, request):
    if request["kind"] == "cli":
        return _cli_request(cli, request["args"]), "cli.main"
    return _eliminate_request(request["m"], request["moves"]), None


class RunLog:
    """Latencies and outputs of a run, kept in memory that grows only with the pool.

    Every execution of a request must print what its first execution
    printed; ``problems`` lists each execution that failed or differed.
    """

    def __init__(self):
        self.texts: dict[str, str] = {}      # request id -> first output
        self.latencies: dict[str, array] = {}  # phase -> seconds, in execution order
        self.problems: list = []             # (request id, phase, reason)
        self.executions = 0

    def add(self, rid: str, phase: str, latency: float, status: str, text: str) -> None:
        self.latencies.setdefault(phase, array("d")).append(latency)
        first = self.texts.setdefault(rid, text)
        if status != "ok":
            self.problems.append((rid, phase, status))
        elif text != first:
            self.problems.append((rid, phase, "output differs from its first execution"))
        self.executions += 1

    def to_dict(self) -> dict:
        return {"texts": self.texts, "problems": self.problems, "executions": self.executions,
                "latencies": {k: v.tolist() for k, v in self.latencies.items()}}


def run_pool(cli, pool, seconds, log, tracer=None, phase="untraced"):
    """Replay the pool in whole passes, at least one, for ``seconds``.

    Returns the phase record: elapsed time, requests completed, and each
    pass's busy time (the sum of its request latencies, which leaves out
    the client's own checking between requests).
    """
    calls = [_make_request(cli, request) for request in pool]
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        busy = 0.0
        for request, (fn, root) in zip(pool, calls):
            status = "ok"
            outcome = None
            t0 = perf_counter()
            try:
                if tracer is None:
                    outcome = fn()
                else:
                    outcome = tracer.call(root, log.executions, fn)
            except (Exception, SystemExit) as exc:  # a failed request is counted, not fatal
                status = f"{type(exc).__name__}: {exc}"[:300]
            latency = perf_counter() - t0
            busy += latency
            text = ""
            if outcome is not None:
                text = outcome if isinstance(outcome, str) else _eliminate_text(outcome)
            if request.get("svg") and status == "ok":
                text += "\n--svg--\n" + Path(request["svg"]).read_text(encoding="utf-8")
            log.add(str(request["id"]), phase, latency, status, text)
        passes.append(busy)
    return {"elapsed_s": perf_counter() - start, "requests": len(pool) * len(passes),
            "pass_s": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    cli, setup_s = _import_package()
    if args.import_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pool_path = Path(args.pool).resolve()
    pool = json.loads(pool_path.read_text(encoding="utf-8"))
    os.chdir(pool_path.parent)  # input and SVG file names are relative to the pool
    log = RunLog()
    record = {"setup_s": setup_s, "python": sys.version.split()[0], "phases": {}}
    if args.trace:
        from tracer import Tracer

        # untraced and traced halves over the same pool give the overhead
        record["phases"]["untraced"] = run_pool(cli, pool, args.seconds / 2, log)
        tracer = Tracer()
        record["patched"] = tracer.install()
        record["phases"]["traced"] = run_pool(cli, pool, args.seconds / 2, log,
                                              tracer, "traced")
        tracer.uninstall()
        record["trace"] = tracer.summary()
        record["trace"]["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    else:
        record["phases"]["untraced"] = run_pool(cli, pool, args.seconds, log)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(log.to_dict())
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
