"""Spans around pinchlab's layers, installed from outside the program.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, operation id and
one work count), at every module binding the program calls it through, and
wraps ``RadialPotential.flux_integral_at`` and ``WarpFunction.__call__`` at
class level.  Spans stay in memory; ``layer_metrics`` turns them into the
per-operation numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import marshal
import os
import sys
import time

import numpy as np

LAYERS = ("geometry", "numerics", "potential", "functionals", "rigidity", "variational", "cli")

NAME, START, END, PARENT, OP, COUNT = range(6)


def _emitted_bytes(out) -> int:
    if isinstance(out, str):
        return len(out.encode("utf-8"))
    return sum(os.path.getsize(path) for path in out)


# work counted at the span, from (args, result)
_COUNTS = {
    "geometry.warp": lambda args, out: int(np.size(args[1])),
    "potential.flux_integral_at": lambda args, out: int(np.size(args[1])),
    "potential.solve_radial": lambda args, out: int(out.grid.size),
    "numerics.cell_integrals": lambda args, out: int(np.size(args[1])) - 1,
    "variational.minimize_energy": lambda args, out: int(out.iterations),
    "cli.emit": lambda args, out: _emitted_bytes(out),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed outside a wrapper (e.g. from the parent's launch)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, 0])

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.spans.append(["op", time.monotonic(), 0.0, -1, op_id, 0])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = time.monotonic()
        self.op = None

    def wrap(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.monotonic, self
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if count is not None:
                record[COUNT] = count(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, at every binding."""
        import pinchlab
        from pinchlab import geometry, potential

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"pinchlab.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        modules = [pinchlab] + [m for n, m in sys.modules.items() if n.startswith("pinchlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
        potential.RadialPotential.flux_integral_at = self.wrap(
            "potential.flux_integral_at", potential.RadialPotential.flux_integral_at
        )
        geometry.WarpFunction.__call__ = self.wrap("geometry.warp", geometry.WarpFunction.__call__)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump(self.spans, fh)


def load(path: str) -> list[list]:
    with open(path, "rb") as fh:
        return marshal.load(fh)


# per-layer metric -> (span name, field); field is "s" (inclusive time),
# "self_s", "calls" or "count" (the span's work count)
SPAN_METRICS = {
    "cli.run_s": ("cli.run", "s"),
    "cli.emit_s": ("cli.emit", "s"),
    "cli.emit_bytes": ("cli.emit", "count"),
    "cli.exit_s": ("cli.exit", "s"),
    "functionals.audit_constants.s": ("functionals.audit_constants", "s"),
    "functionals.monotone_sample.self_s": ("functionals.monotone_sample", "self_s"),
    "functionals.monotone_sample.calls": ("functionals.monotone_sample", "calls"),
    "functionals.holder_chain.self_s": ("functionals.holder_chain", "self_s"),
    "functionals.holder_chain.calls": ("functionals.holder_chain", "calls"),
    "potential.radius_of_level.self_s": ("potential.radius_of_level", "self_s"),
    "potential.radius_of_level.calls": ("potential.radius_of_level", "calls"),
    "potential.flux_integral_at.s": ("potential.flux_integral_at", "s"),
    "potential.flux_integral_at.calls": ("potential.flux_integral_at", "calls"),
    "potential.flux_integral_at.points": ("potential.flux_integral_at", "count"),
    "potential.capacity.self_s": ("potential.capacity", "self_s"),
    "potential.capacity.calls": ("potential.capacity", "calls"),
    "potential.solve_radial.s": ("potential.solve_radial", "s"),
    "potential.solve_radial.nodes": ("potential.solve_radial", "count"),
    "geometry.warp.calls": ("geometry.warp", "calls"),
    "geometry.warp.points": ("geometry.warp", "count"),
    "geometry.levelset_geometry.calls": ("geometry.levelset_geometry", "calls"),
    "geometry.levelset_geometry.s": ("geometry.levelset_geometry", "s"),
    "geometry.ball_volume.calls": ("geometry.ball_volume", "calls"),
    "geometry.ball_volume.s": ("geometry.ball_volume", "s"),
    "geometry.growth_exponent.s": ("geometry.growth_exponent", "s"),
    "numerics.cell_integrals.s": ("numerics.cell_integrals", "s"),
    "numerics.cell_integrals.cells": ("numerics.cell_integrals", "count"),
    "rigidity.run_contradiction_scenario.self_s": ("rigidity.run_contradiction_scenario", "self_s"),
    "rigidity.decay_dichotomy.s": ("rigidity.decay_dichotomy", "s"),
    "rigidity.ordering_check.s": ("rigidity.ordering_check", "s"),
    "variational.discretize.s": ("variational.discretize", "s"),
    "variational.minimize_energy.s": ("variational.minimize_energy", "s"),
    "variational.minimize_energy.iterations": ("variational.minimize_energy", "count"),
    "variational.cross_validate.s": ("variational.cross_validate", "s"),
}

# metrics derived from whole span trees rather than one name
DERIVED_METRICS = (
    "cli.import_s",
    "functionals.audit_constants.solves",
    "potential.flux_evals_per_level",
    "trace.outside_share.max",
) + tuple(f"layer.{layer}.self_s" for layer in LAYERS)

NON_LAYER = ("op", "trace.write")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-operation layer numbers from the spans of one or more processes.

    Spans of one process are contiguous in ``spans`` and parents index into
    that process's own list, so callers concatenate per-process lists after
    offsetting parents (see ``merge``).  Totals are divided by the number of
    operations; ``cli.import_s`` is the mean over processes.
    """
    durations = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)  # time covered by layer children
    overhead = [0.0] * len(spans)  # time of tracing's own children
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            target = overhead if s[NAME] in NON_LAYER else child_time
            target[s[PARENT]] += durations[i]
    ops = [i for i, s in enumerate(spans) if s[NAME] == "op"]
    n_ops = max(len(ops), 1)

    totals: dict[tuple, float] = {}
    for i, s in enumerate(spans):
        if s[OP] is None or s[NAME] in NON_LAYER:
            continue
        name = s[NAME]
        for field, value in (
            ("s", durations[i]),
            ("self_s", durations[i] - child_time[i]),
            ("calls", 1),
            ("count", s[COUNT]),
        ):
            totals[name, field] = totals.get((name, field), 0) + value
    out = {metric: totals.get(key, 0) / n_ops for metric, key in SPAN_METRICS.items()}

    imports = [durations[i] for i, s in enumerate(spans) if s[NAME] == "cli.import"]
    out["cli.import_s"] = sum(imports) / len(imports) if imports else 0.0

    solves = 0
    for i, s in enumerate(spans):
        if s[NAME] == "potential.solve_radial" and s[OP] is not None:
            j = s[PARENT]
            while j >= 0 and spans[j][NAME] != "functionals.audit_constants":
                j = spans[j][PARENT]
            solves += j >= 0
    out["functionals.audit_constants.solves"] = solves / n_ops

    levels = totals.get(("potential.radius_of_level", "calls"), 0)
    points = totals.get(("potential.flux_integral_at", "count"), 0)
    out["potential.flux_evals_per_level"] = points / levels if levels else 0.0

    worst = 0.0
    for i in ops:
        wall = durations[i] - overhead[i]
        worst = max(worst, (wall - child_time[i]) / wall)
    out["trace.outside_share.max"] = worst

    for layer in LAYERS:
        own = sum(v for (name, field), v in totals.items()
                  if field == "self_s" and name.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = own / n_ops
    return out


def merge(per_process: list[list[list]]) -> list[list]:
    """Concatenate span lists of separate processes, re-basing parent indices."""
    merged: list[list] = []
    for spans in per_process:
        base = len(merged)
        for s in spans:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            merged.append(s)
    return merged
