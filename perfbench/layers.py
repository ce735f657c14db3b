"""The per-layer view of odecontrol for the traced run.

instrument() wraps the public entry points of each package module (the
layers) and the forward/forward_batch/vjp methods of the controllers the
workloads use; layer_values() turns one traced pass into the per-layer
metrics named in BENCHMARK.json. Counts labelled "computed" are derived from
call arguments, not measured.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np

from spans import Patches, Recorder, self_times


def instrument(patches: Patches, rec: Recorder, oc) -> None:
    """Trace every layer boundary of the odecontrol modules in `oc`."""
    flops_per_row = {}  # id(model) -> (model, flops); the model ref pins the id

    def flops(model) -> int:
        hit = flops_per_row.get(id(model))
        if hit is None:
            hit = flops_per_row[id(model)] = (
                model,
                2 * sum(fi * fo for fi, fo, _ in model.layer_shapes()),
            )
        return hit[1]

    def arg(args, kwargs, i, name, default=None):
        if len(args) > i:
            return args[i]
        return kwargs.get(name, default)

    def count_forward(c, args, kwargs, out, err):
        rows = np.size(arg(args, kwargs, 2, "t"))
        c["nets.forward.rows"] += rows
        c["nets.flops_computed"] += rows * flops(args[0])

    def count_forward_batch(c, args, kwargs, out, err):
        rows = np.size(arg(args, kwargs, 2, "ts"))
        c["nets.forward_batch.rows"] += rows
        c["nets.flops_computed"] += rows * flops(args[0])

    def count_vjp(c, args, kwargs, out, err):
        rows = np.size(arg(args, kwargs, 2, "t"))
        c["nets.vjp.rows"] += rows
        c["nets.flops_computed"] += 2 * rows * flops(args[0])

    def count_euler(c, args, kwargs, out, err):
        if out is not None:
            c["dynamics.integrate_euler.steps"] += out.steps
        elif isinstance(err, oc.dynamics.DivergenceError):
            c["dynamics.integrate_euler.steps"] += err.step + 1

    def count_mat_exp(c, args, kwargs, out, err):
        t = float(arg(args, kwargs, 1, "t", 1.0))
        per_unit = int(arg(args, kwargs, 2, "substeps_per_unit", 1000))
        if out is not None and t != 0.0:
            c["linalg.mat_exp.substeps_computed"] += max(1, math.ceil(abs(t) * per_unit))

    def count_gramian(c, args, kwargs, out, err):
        if out is not None:
            c["linalg.gramian.panels"] += int(arg(args, kwargs, 3, "steps", 2000))

    def count_project(c, args, kwargs, out, err):
        if out is not None:
            c["landscape.cells"] += out.loss.size
            c["landscape.finite_cells"] += int(np.isfinite(out.loss).sum())

    def count_train(c, args, kwargs, out, err):
        if out is not None and out.diverged:
            c["training.diverged_runs"] += 1

    def traced(name, count=None):
        return lambda fn: rec.wrap(name, fn, count)

    for cls in (oc.nets.MlpSpec, oc.nets.SingleNeuron):
        patches.method(cls, "forward", traced("nets.forward", count_forward))
        patches.method(cls, "forward_batch", traced("nets.forward_batch", count_forward_batch))
        patches.method(cls, "vjp", traced("nets.vjp", count_vjp))
    # the controller callback's work is its nets.forward child span, so it is
    # excluded from integrate_euler's self time; only the lambda call remains
    patches.function(oc.dynamics, "integrate_euler",
                     traced("dynamics.integrate_euler", count_euler))
    patches.function(oc.gradients, "bptt_grad", traced("gradients.bptt_grad"))
    patches.function(oc.gradients, "tbptt_grad", traced("gradients.tbptt_grad"))
    patches.function(oc.training, "train", traced("training.train", count_train))
    patches.function(oc.training, "adam_step", traced("training.adam_step"))
    patches.function(oc.experiments, "phase_diagram", traced("experiments.phase_diagram"))
    patches.function(oc.linalg, "mat_exp", traced("linalg.mat_exp", count_mat_exp))
    patches.function(oc.linalg, "gramian", traced("linalg.gramian", count_gramian))
    patches.function(oc.landscape, "project", traced("landscape.project", count_project))

    def oc_for_problem(orig):
        span = rec.wrap("oracles.oc_for_problem", orig)

        def traced_oc(problem):
            sol = span(problem)
            # OcSolution is frozen: hand out a copy whose closures are traced
            return dataclasses.replace(
                sol,
                u_star=rec.wrap("oracles.u_star", sol.u_star),
                x_star=rec.wrap("oracles.x_star", sol.x_star),
            )

        return traced_oc

    patches.function(oc.oracles, "oc_for_problem", oc_for_problem)


def pass_counts(rec: Recorder, vjps: int) -> dict[str, float]:
    """The exact (repeatable) per-layer counts of one traced pass."""
    calls = Counter(rec.names[i] for i in rec.name)
    c = rec.counts
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update(c)
    scalar_calls = calls["nets.forward"] + calls["nets.vjp"]
    scalar_rows = c["nets.forward.rows"] + c["nets.vjp.rows"]
    epochs = calls["gradients.bptt_grad"] + calls["gradients.tbptt_grad"]
    out["nets.rows_per_call"] = scalar_rows / scalar_calls if scalar_calls else 0.0
    out["gradients.vjps"] = vjps
    out["gradients.vjps_per_epoch"] = vjps / epochs if epochs else 0.0
    cells = c["landscape.cells"]
    out["landscape.finite_frac"] = c["landscape.finite_cells"] / cells if cells else 0.0
    return out


def pass_self_ms(rec: Recorder) -> dict[str, float]:
    return {f"{name}.self_ms": s * 1e3 for name, s in self_times(rec.spans()).items()}
