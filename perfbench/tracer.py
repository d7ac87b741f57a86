"""Span tracer that wraps the public functions of every cfktools layer.

The wrappers are installed from outside the package: each public function
of a layer module is replaced at every binding site, i.e. in every cfktools
module whose namespace holds it (``cli`` and ``doubles`` import names
directly, ``gf2`` is reached through the module attribute).  The
``FilteredComplex`` constructor is wrapped too, so complexes built inside
other layers are counted and timed as ``filtered`` work.

A span is (name, start, end, parent span index, request id).  Spans are kept
in memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because there is one thread, so the self times of a request add up to the
total duration of its root spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "laurent", "staircase", "filtered", "gf2", "homology", "doubles", "diagrams")


def _count_vertices(counts, args, result):
    counts["staircase.delta_whitehead.vertices_in"] += len(args[0].steps) + 1


def _count_solve(counts, args, result):
    counts["gf2.solve_masks.columns_in"] += len(args[0])
    counts["gf2.solve_masks.solved"] += result is not None


def _count_d1(counts, args, result):
    counts["homology.d1_general.generators_in"] += len(args[0].generators)


def _count_pairs(counts, args, result):
    counts["homology.is_acyclic.pairs"] += result.cancelled_pairs


def _count_tensor(counts, args, result):
    counts["filtered.tensor.generators_out"] += len(result.generators)


def _count_svg(counts, args, result):
    counts["diagrams.svg_bytes"] += len(result)


def _count_complex(counts, args, result):
    counts["filtered.complexes_built"] += 1
    counts["filtered.arrows_built"] += len(args[0].arrows)


MEASURES = {
    "staircase.delta_whitehead": _count_vertices,
    "gf2.solve_masks": _count_solve,
    "homology.d1_general": _count_d1,
    "homology.is_acyclic": _count_pairs,
    "filtered.tensor": _count_tensor,
    "diagrams.svg_for_complex": _count_svg,
    "filtered.FilteredComplex": _count_complex,
}


class Tracer:
    """Collects spans for the request set by ``begin``; inactive between requests."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if measure is not None:
                measure(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Patch every binding site of every public layer function; returns the count."""
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "cfktools" or n.startswith("cfktools.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cfktools.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        cls = sys.modules["cfktools.filtered"].FilteredComplex
        self._patched.append((cls, "__init__", cls.__init__))
        type.__setattr__(cls, "__init__", self.wrap("filtered.FilteredComplex", cls.__init__))
        return len(self._patched)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            if isinstance(owner, type):
                type.__setattr__(owner, attr, value)
            else:
                setattr(owner, attr, value)
        self._patched.clear()

    def call(self, name: str, request: int, fn):
        """Run fn() as request ``request``, under a root span called ``name`` if given."""
        self.request = request
        try:
            return self.wrap(name, fn)() if name else fn()
        finally:
            self.request = None

    def summary(self) -> dict:
        """Per-request durations and layer self times, and totals per function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        requests: dict[int, dict] = {}
        functions: dict[str, list] = {}
        for k, (name, start, end, parent, rid) in enumerate(self.spans):
            row = requests.setdefault(rid, {"duration_s": 0.0, "self_s": Counter(),
                                            "calls": Counter()})
            layer = name.split(".", 1)[0]
            row["self_s"][layer] += (end - start) - child[k]
            row["calls"][layer] += 1
            if parent < 0:
                row["duration_s"] += end - start
            calls_s = functions.setdefault(name, [0, 0.0])
            calls_s[0] += 1
            calls_s[1] += end - start
        return {"requests": requests, "functions": functions, "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": rid}) + "\n")
