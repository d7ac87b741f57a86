"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package under test is ``src/cfktools`` of the
checkout that holds this file.  The seed makes the request pool and its
input files; a fresh worker process replays the pool as a closed loop (one
client, no threads) for S seconds; every output is checked against the
oracles in ``oracles.py``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A full record (environment, input hash and sizes, latency
samples, per-function trace totals) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import check
import gen
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10  # fresh import-only processes, plus the worker's own import
WORKER_TIMEOUT_S = 150  # leaves the whole run inside 180 s


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker did not finish within {timeout} s") from exc


def _setup_samples() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = _worker(["--import-only"], 60)
        if done.returncode != 0:
            raise BenchError(f"import of cfktools failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _verify(pool: list[dict], record: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every execution of the run.

    The first output of each request is checked by the oracle; a wrong one
    fails every execution of that request.  The worker reports executions
    that raised, exited non-zero or printed something else than the first.
    """
    attempted = record["executions"]
    runs_per_request = attempted // len(pool)
    wrong = {}
    for request in pool:
        reason = check.check(request, record["texts"].get(str(request["id"]), ""))
        if reason is not None:
            wrong[str(request["id"])] = f"request {request['id']}: {reason}"
    failed = len(wrong) * runs_per_request
    reasons = []
    for rid, phase, reason in record["problems"]:
        failed += rid not in wrong
        reasons.append(f"request {rid} ({phase}): {reason}")
    return attempted, failed, (reasons + list(wrong.values()))[:10]


def _size_summary(pool: list[dict]) -> dict:
    out = {}
    for key in ("generators", "arrows", "vertices"):
        values = [r["sizes"][key] for r in pool]
        out[key] = {"min": min(values), "max": max(values), "total": sum(values)}
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "cfktools" / "__init__.py").is_file():
        raise BenchError(f"no package to measure: {ROOT / 'src' / 'cfktools'} is missing")
    out_dir = HERE / "out"
    work = out_dir / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        pool, files = gen.build(workload, seed)
        gen.write(files, work)
        setup = _setup_samples()
        spans = out_dir / f"{workload}-s{seed}-spans.jsonl"
        done = _worker(["--pool", str(work / "requests.json"), "--seconds", str(seconds),
                        "--trace", str(trace), "--out", str(work / "result.json"),
                        *(["--spans", str(spans)] if trace else [])],
                       WORKER_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"worker exited with {done.returncode}: {done.stderr.strip()[-800:]}")
        record = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, reasons = _verify(pool, record)
    setup.append(record["setup_s"])
    if trace:
        values = metrics.per_layer(record, len(pool))
        catalogue = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        values = metrics.end_to_end(record, len(pool), setup, attempted, failed)
        catalogue = {k: v[0] for k, v in metrics.END_TO_END.items()}
    best = metrics.best_latencies(record["latencies"]["untraced"], len(pool))
    p90 = metrics.quantile(best, 0.9)
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "python": record["python"],
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "inputs_sha256": gen.inputs_hash(files),
        "requests_in_pool": len(pool),
        "sizes": _size_summary(pool),
        "pool": [{"id": r["id"], "request": r.get("args") or f"eliminate m={r['m']}",
                  "sizes": r["sizes"]} for r in pool],
        "setup_samples_s": setup,
        "phases": record["phases"],
        "executions_per_request": len(record["latencies"]["untraced"]) // len(pool),
        "latency_samples": len(best),
        "latency_samples_beyond_p90": sum(1 for v in best if v > p90),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": reasons,
        "metrics": {k: {"value": values[k], "unit": catalogue[k]} for k in catalogue},
    }
    if trace:
        summary["trace_functions"] = record["trace"]["functions"]
        summary["spans_file"] = str(spans.relative_to(ROOT))
        durations = [row["duration_s"] for row in record["trace"]["requests"].values()]
        summary["traced_requests"] = len(durations)
        summary["max_self_sum_error_s"] = max(
            abs(sum(row["self_s"].values()) - row["duration_s"])
            for row in record["trace"]["requests"].values()
        )
    (out_dir / f"{workload}-s{seed}-t{trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one cfktools benchmark workload.")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = summary["environment"]
    print(f"workload {args.workload}  seed {args.seed}  python {env['python']}  "
          f"nproc {env['nproc']}  inputs {summary['inputs_sha256'][:16]}")
    print(f"requests {summary['attempted']} (pool {summary['requests_in_pool']}), "
          f"failed_ratio {summary['failed_ratio']:.4f}, latency samples "
          f"{summary['latency_samples']} ({summary['latency_samples_beyond_p90']} beyond p90)")
    for reason in summary["failures"]:
        print(f"FAILED {reason}")
    for name, metric in summary["metrics"].items():
        print(f"{name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
