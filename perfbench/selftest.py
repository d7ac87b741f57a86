"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 perfbench/selftest.py

They check that the checker catches a wrong answer, that tracing leaves
every request's stdout byte-identical, that a traced request's per-layer
self times add up to its traced duration, that the inputs are a pure
function of the seed, and that BENCHMARK.json lists the metrics this
directory computes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest

import gen
import metrics
import run
import worker
from tracer import LAYERS, Tracer

CLI, _ = worker._import_package()


def _small_pool(workload: str, seed: int, size: int = 4) -> tuple[list[dict], dict]:
    """The ``size`` smallest requests of a seeded pool, renumbered, with their files."""
    pool, files = gen.build(workload, seed)
    chosen = sorted(pool, key=lambda r: (r["sizes"]["generators"], r["sizes"]["vertices"],
                                         r["id"]))[:size]
    for k, request in enumerate(chosen):
        request["id"] = k
    return chosen, files


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.cwd = os.getcwd()
        self.work = run.HERE / "out" / f"selftest-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        os.chdir(self.work)

    def tearDown(self):
        os.chdir(self.cwd)
        shutil.rmtree(self.work, ignore_errors=True)

    def _replay(self, pool, files, tracer=None, phase="untraced"):
        gen.write(files, self.work)
        log = worker.RunLog()
        worker.run_pool(CLI, pool, 0.0, log, tracer, phase)  # exactly one pass
        return log.to_dict()

    def test_wrong_answer_raises_failed_ratio(self):
        pool, files = _small_pool("torus-table", 1)
        record = self._replay(pool, files)
        attempted, failed, _ = run._verify(pool, record)
        self.assertEqual((attempted, failed), (len(pool), 0))
        doc = json.loads(record["texts"]["0"])
        doc["tau"] += 1
        record["texts"]["0"] = json.dumps(doc)
        _, failed, reasons = run._verify(pool, record)
        self.assertGreater(failed, 0)
        self.assertTrue(any("tau" in r for r in reasons), reasons)

    def test_raising_request_counts_as_failed(self):
        pool, files = _small_pool("torus-table", 1)
        pool[1]["args"] = ["--json", "torus", "4", "6"]  # not coprime: a usage error
        _, failed, reasons = run._verify(pool, self._replay(pool, files))
        self.assertEqual(failed, 1)
        self.assertIn("UsageError", reasons[0])

    def test_tracing_keeps_stdout_byte_identical(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                pool, files = _small_pool(workload, 2)
                plain = self._replay(pool, files)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = self._replay(pool, files, tracer, "traced")
                finally:
                    tracer.uninstall()
                self.assertEqual(plain["texts"], traced["texts"])
                self.assertEqual(run._verify(pool, plain)[1], 0)
                self.assertEqual(run._verify(pool, traced)[1], 0)
                self.assertGreater(len(tracer.spans), len(pool))

    def test_layer_self_times_sum_to_traced_duration(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                pool, files = _small_pool(workload, 3)
                tracer = Tracer()
                tracer.install()
                try:
                    record = self._replay(pool, files, tracer, "traced")
                finally:
                    tracer.uninstall()
                summary = tracer.summary()
                self.assertEqual(len(summary["requests"]), len(pool))
                for rid, row in summary["requests"].items():
                    self.assertTrue(set(row["self_s"]) <= set(LAYERS))
                    self.assertAlmostEqual(sum(row["self_s"].values()), row["duration_s"],
                                           delta=1e-9 * max(1, len(tracer.spans)))
                    self.assertLessEqual(row["duration_s"], record["latencies"]["traced"][rid])

    def test_inputs_depend_only_on_the_seed(self):
        for workload in gen.WORKLOADS:
            with self.subTest(workload=workload):
                first = gen.inputs_hash(gen.build(workload, 11)[1])
                self.assertEqual(first, gen.inputs_hash(gen.build(workload, 11)[1]))
                self.assertNotEqual(first, gen.inputs_hash(gen.build(workload, 12)[1]))

    def test_benchmark_json_lists_the_computed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.BENCHMARKED))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {k: v[:2] for k, v in metrics.PER_LAYER.items()})


if __name__ == "__main__":
    sys.exit(unittest.main())
