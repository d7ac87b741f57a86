"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                               [--trace 0|1] [--save FILE]

Each run is a separate ``run.py`` process, started like BENCHMARK.json's command.  The
spread of a metric is the distance between the first and third quartiles
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median; for the end-to-end metrics it is printed beside the metric's bound
from BENCHMARK.json.  ``--save`` writes every run's result line and the
medians and spreads to FILE as JSON, with each run's environment (Python
version, nproc, seed), input hash and per-request generator, arrow and
vertex counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# kept from each run's full record beside its result line
_RECORD_KEYS = ("seed", "environment", "inputs_sha256", "sizes", "setup_samples_s",
                "latency_samples", "latency_samples_beyond_p90", "phases", "failed_ratio",
                "failures")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "out" / f"{workload}-s{seed}-t{args.trace}.json")
                                .read_text(encoding="utf-8"))
            result["record"] = {key: record[key] for key in _RECORD_KEYS}
            result["record"]["pool_sizes"] = [
                [r["id"], r["sizes"]["generators"], r["sizes"]["arrows"], r["sizes"]["vertices"]]
                for r in record["pool"]
            ]
            ok = ok and result["correct"]
            runs.append(result)
        names = list(runs[0]["metrics"]) if runs else []
        table = {}
        print(f"\n{workload}: {len(runs)} runs, failed {sum(r['failed'] for r in runs)}"
              f" of {sum(r['attempted'] for r in runs)} requests")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            row = {"unit": unit, "median": statistics.median(values),
                   "spread": spread(values) if len(values) > 1 else 0.0, "values": values}
            table[name] = row
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and row["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:<40} {row['median']:>12.5g} {unit:<10} spread "
                  f"{row['spread']:.4f}" + (f"  bound {bound}" if bound else "") + flag)
        report["workloads"][workload] = {"runs": runs, "metrics": table}
    if args.save:
        Path(args.save).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
