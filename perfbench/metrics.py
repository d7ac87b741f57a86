"""The benchmark's metrics: names, units, direction, and how each is computed.

End-to-end metrics come from an untraced run.  Each request of the pool runs
once per pass; its latency is its best over the run's passes, and the rate
and the percentiles are taken over those best latencies, one per request.
Per-layer metrics come from
the traced half of a ``--trace 1`` run and are per request (the total over
the traced requests divided by their number) unless the unit says otherwise.
The third field of each ``PER_LAYER`` entry names the end-to-end metric and
workload that metric is expected to move; elsewhere it should stay put.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# name -> (unit, better, bound).  The timing bounds are wide: on a shared
# two-vCPU host the same code was seen to run up to 1.7x slower for minutes
# at a time.  Memory and failures do not drift.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "requests_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "ok_ratio": ("ratio", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# complexes mixes the d1-squares, doubles and elimination strata; a layer
# metric names the strata it should move there
_T, _D, _DB, _E = ("torus-table", "complexes (d1 squares)", "complexes (doubles)",
                   "complexes (elimination)")
_RPS_P90 = "requests_per_s, latency_p90_ms"

# name -> (unit, better, what it should move)
PER_LAYER = {
    "staircase.delta_whitehead.s": ("s/req", "lower", f"{_RPS_P90} on {_T}"),
    "staircase.vertices.calls": ("count/req", "lower", f"{_RPS_P90} on {_T}"),
    "staircase.delta_whitehead.vertices_in": ("count/req", "lower", f"input size on {_T}"),
    "laurent.alexander_torus.s": ("s/req", "lower", f"latency_p50_ms on {_T}"),
    "gf2.solve_masks.calls": ("count/req", "lower", f"{_RPS_P90} on {_D}; requests_per_s on {_E}"),
    "gf2.solve_masks.s": ("s/req", "lower", f"{_RPS_P90} on {_D}; requests_per_s on {_E}"),
    "gf2.solve_masks.columns_in": ("count/req", "lower", f"{_RPS_P90} on {_D}; requests_per_s on {_E}"),
    "gf2.solve_masks.solved_ratio": ("ratio", "higher", f"useful-work ratio of the d1 search on {_D}"),
    "gf2.rank_masks.s": ("s/req", "lower", f"recorded; {_D}"),
    "gf2.kernel_masks.s": ("s/req", "lower", f"recorded; {_D}"),
    "gf2.echelon_masks.s": ("s/req", "lower", f"recorded; {_D}"),
    "homology.d1_general.s": ("s/req", "lower", f"{_RPS_P90} on {_D}"),
    "homology.d1_general.generators_in": ("count/req", "lower", f"input size on {_D}"),
    "homology.hat_generator.s": ("s/req", "lower", f"recorded; {_D}"),
    "homology.hat_homology_ranks.s": ("s/req", "lower", f"recorded; {_D}"),
    "homology.is_acyclic.s": ("s/req", "lower", f"requests_per_s on {_DB}"),
    "homology.is_acyclic.pairs": ("count/req", "lower", f"requests_per_s on {_DB}"),
    "filtered.tensor.s": ("s/req", "lower", f"requests_per_s, peak_rss_mb on {_DB}"),
    "filtered.tensor.generators_out": ("count/req", "lower", f"requests_per_s, peak_rss_mb on {_DB}"),
    "filtered.split_summands.s": ("s/req", "lower", f"requests_per_s, peak_rss_mb on {_DB}"),
    "filtered.validate.s": ("s/req", "lower", f"requests_per_s on {_DB}; latency_p50_ms on {_D}"),
    "filtered.complexes_built": ("count/req", "lower", f"requests_per_s, peak_rss_mb on {_DB}"),
    "filtered.arrows_built": ("count/req", "lower", f"requests_per_s, peak_rss_mb on {_DB}"),
    "filtered.complex_from_json_dict.s": ("s/req", "lower", f"latency_p50_ms on {_D}"),
    "filtered.basis_change.calls": ("count/req", "lower", f"requests_per_s on {_E}"),
    "filtered.remove_diagonals.s": ("s/req", "lower", f"requests_per_s on {_E}"),
    "doubles.build_double_complex.s": ("s/req", "lower", f"requests_per_s on {_DB}"),
    "doubles.verify_splitting.s": ("s/req", "lower", f"requests_per_s on {_DB}"),
    "doubles.delta_double_double.s": ("s/req", "lower", f"requests_per_s on {_DB}"),
    "diagrams.svg_for_complex.s": ("s/req", "lower", f"latency_p90_ms on {_DB}"),
    "diagrams.svg_bytes": ("B/req", "lower", f"latency_p90_ms on {_DB}"),
}
_LAYER_MOVES = {
    "cli": f"latency_p50_ms on {_T} and {_D}",
    "laurent": f"latency_p50_ms on {_T}",
    "staircase": f"{_RPS_P90} on {_T}; about zero elsewhere",
    "filtered": f"requests_per_s, peak_rss_mb on {_DB}",
    "gf2": f"{_RPS_P90} on {_D}; zero on {_T}",
    "homology": f"{_RPS_P90} on {_D}",
    "doubles": f"requests_per_s on {_DB}",
    "diagrams": f"latency_p90_ms on {_DB}",
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count/req", "lower", _LAYER_MOVES[_layer])
    PER_LAYER[f"{_layer}.self_s"] = ("s/req", "lower", _LAYER_MOVES[_layer])
    PER_LAYER[f"{_layer}.self_share"] = ("ratio", "lower", _LAYER_MOVES[_layer])
    PER_LAYER[f"{_layer}.wait_s"] = ("s/req", "lower", "one thread and no queue: always 0")
PER_LAYER.update({
    "trace.untraced_rps": ("1/s", "higher", "untraced half of the traced run"),
    "trace.traced_rps": ("1/s", "higher", "traced half of the traced run"),
    "trace.overhead_rps": ("1/s", "higher", "traced minus untraced requests_per_s"),
    "trace.spans": ("count/req", "lower", "spans recorded per request"),
})

# counters whose per-request figure is reported under the same name
_COUNTERS = (
    "staircase.delta_whitehead.vertices_in",
    "gf2.solve_masks.columns_in",
    "homology.d1_general.generators_in",
    "homology.is_acyclic.pairs",
    "filtered.tensor.generators_out",
    "filtered.complexes_built",
    "filtered.arrows_built",
    "diagrams.svg_bytes",
)


def quantile(values, share: float) -> float:
    """Linear-interpolated quantile of the sorted values, share in [0, 1]."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_latencies(latencies, pool_size: int) -> list[float]:
    """Each request's fastest execution over the run's passes.

    Requests run in pool order, pass after pass, so execution k is request
    k mod pool_size.  The fastest of a request's executions is the one a
    slower period of a shared host disturbed least.
    """
    return [min(latencies[k::pool_size]) for k in range(pool_size)]


def requests_per_s(best: list[float]) -> float:
    """Requests per second when every request takes its best time."""
    return len(best) / sum(best)


def end_to_end(record: dict, pool_size: int, setup_samples: list[float],
               attempted: int, failed: int) -> dict:
    best = best_latencies(record["latencies"]["untraced"], pool_size)
    return {
        "setup_s": statistics.median(setup_samples),
        "requests_per_s": requests_per_s(best),
        "latency_p50_ms": 1000 * quantile(best, 0.5),
        "latency_p90_ms": 1000 * quantile(best, 0.9),
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": record["maxrss_kb"] / 1024,
    }


def per_layer(record: dict, pool_size: int) -> dict:
    trace = record["trace"]
    rows = list(trace["requests"].values())
    n = len(rows)
    total = sum(row["duration_s"] for row in rows)
    functions, counts = trace["functions"], trace["counts"]
    values = {}
    for name in PER_LAYER:
        head, _, measure = name.rpartition(".")
        if name in _COUNTERS:
            values[name] = counts.get(name, 0) / n
        elif head in LAYERS:
            if measure == "calls":
                values[name] = sum(row["calls"].get(head, 0) for row in rows) / n
            elif measure == "self_s":
                values[name] = sum(row["self_s"].get(head, 0.0) for row in rows) / n
            elif measure == "self_share":
                values[name] = sum(row["self_s"].get(head, 0.0) for row in rows) / total
            elif measure == "wait_s":
                values[name] = 0.0
        elif measure in ("s", "calls"):
            calls, seconds = functions.get(head, (0, 0.0))
            values[name] = (seconds if measure == "s" else calls) / n
    solves = functions.get("gf2.solve_masks", (0, 0.0))[0]
    values["gf2.solve_masks.solved_ratio"] = (
        counts.get("gf2.solve_masks.solved", 0) / solves if solves else 0.0
    )
    untraced, traced = (requests_per_s(best_latencies(record["latencies"][phase], pool_size))
                        for phase in ("untraced", "traced"))
    values["trace.untraced_rps"] = untraced
    values["trace.traced_rps"] = traced
    values["trace.overhead_rps"] = traced - untraced
    values["trace.spans"] = trace["spans"] / n
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return values
