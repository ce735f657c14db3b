"""The benchmark's workloads: one job type each, called through the public
API of odecontrol, with input generation and output checks.

A job is one call into the workload's entry point; a rollout is one
forward-Euler trajectory the job asks for (one per training epoch, one per
landscape cell). Inputs come from the run's seed stream; the reference job
of each workload uses DEFAULT input, whose outputs are stored in
data/refs.json and compared with a relative difference of at most 1e-12.
Every job, whatever its seed, is also checked against seed-free invariants.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
RTOL = 1e-12
FLOW2D_ENERGY = 31.7629  # continuous-time optimum printed by `oc --flow2d`


def load_odecontrol(src: str):
    """Import odecontrol from `src` and return its layer modules by name."""
    sys.path.insert(0, src)
    import odecontrol
    from odecontrol import (dynamics, experiments, gradients, landscape, linalg,
                            nets, oracles, training)

    if not os.path.abspath(odecontrol.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"odecontrol imported from {odecontrol.__file__}, not {src}")
    return SimpleNamespace(dynamics=dynamics, experiments=experiments,
                           gradients=gradients, landscape=landscape, linalg=linalg,
                           nets=nets, oracles=oracles, training=training)


def rel_diff_ok(a, b, rtol: float = RTOL) -> bool:
    """Equal shape, NaN in the same places, elsewhere |a-b| <= rtol*max(|a|,|b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    a, b = a[~nan], b[~nan]
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))))


def load_refs() -> dict:
    with open(os.path.join(DATA, "refs.json")) as fh:
        return json.load(fh)


class Workload:
    """Base: subclasses set the class attributes and the job methods."""

    name = ""
    rollouts_per_job = 0
    trace_jobs = 1  # jobs in one pass of the traced run
    DEFAULT = None

    def __init__(self, oc, refs: dict | None):
        self.oc = oc
        self.ref = None if refs is None else refs[self.name]

    def inputs(self, seed: int):
        """The run's job inputs: an endless stream fixed by the seed."""
        rng = np.random.default_rng(seed)
        while True:
            yield self.draw(rng)

    def draw(self, rng: np.random.Generator):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out, vjps: int) -> list[str]:
        """Seed-free invariants; returns the violations."""
        raise NotImplementedError

    def reference(self, out) -> dict:
        """The outputs of the DEFAULT job that refs.json stores."""
        raise NotImplementedError

    def check_reference(self, out) -> list[str]:
        got = self.reference(out)
        return [f"{key} differs from the stored reference"
                for key, want in self.ref.items() if not rel_diff_ok(got[key], want)]


class _Flow2dTraining(Workload):
    """training.train on the 14x14 elu flow2d net, one uniform theta0 per job."""

    epochs = 0
    vjps_per_epoch = 0
    DEFAULT = 0

    def __init__(self, oc, refs):
        super().__init__(oc, refs)
        self.problem = oc.experiments.flow2d_problem()
        self.model = oc.nets.MlpSpec((14, 14), activation=oc.nets.elu(),
                                     out_dim=self.problem.dynamics.m)

    def draw(self, rng):
        return int(rng.integers(1, 2**31 - 1))

    def theta0(self, seed: int) -> np.ndarray:
        return self.oc.nets.init_params(self.model, self.oc.nets.InitScheme.uniform(),
                                        self.oc.linalg.SeededRng(seed))

    def check(self, inp, out, vjps):
        bad = []
        if out.diverged:
            bad.append(f"diverged at epoch {out.diverged_at}")
        if len(out.history) != self.epochs:
            bad.append(f"{len(out.history)} epochs recorded, asked for {self.epochs}")
        if vjps != self.vjps_per_epoch * self.epochs:
            bad.append(f"{vjps} vjps in {self.epochs} epochs, expected "
                       f"{self.vjps_per_epoch} per epoch")
        dyn = self.oc.dynamics
        traj = dyn.integrate_euler(
            self.problem, lambda t: self.model.forward(out.theta_best, t))
        again = dyn.terminal_loss(traj, self.problem.x_star)
        if not rel_diff_ok(out.loss_best, again):
            bad.append(f"loss_best {out.loss_best!r} != re-integrated {again!r}")
        return bad

    def reference(self, out):
        return {"loss_best": out.loss_best, "best_epoch": out.best_epoch,
                "theta_best": out.theta_best.tolist()}


class TrainBptt(_Flow2dTraining):
    name = "train_bptt"
    epochs = rollouts_per_job = 10
    vjps_per_epoch = 100
    trace_jobs = 3

    def run(self, seed):
        tr = self.oc.training
        return tr.train(self.problem, self.model, self.theta0(seed), tr.Adam(3e-3),
                        self.epochs)


class TrainTbptt(_Flow2dTraining):
    name = "train_tbptt"
    epochs = rollouts_per_job = 25
    vjps_per_epoch = 1
    trace_jobs = 5

    def run(self, seed):
        tr = self.oc.training
        return tr.train(self.problem, self.model, self.theta0(seed), tr.Adam(5e-3),
                        self.epochs, protocol=tr.Protocol("tbptt", "propagated", "random"),
                        seed=seed)


class TrainGrid(Workload):
    """phase_diagram("relu", method="train_adam") on a 2x2 sub-grid of the
    41x41 (w0, b0) grid over [-2, 2]^2; the seed picks the sub-grid."""

    name = "train_grid"
    epochs = 300
    steps = 100
    cells = 4
    rollouts_per_job = cells * epochs
    # w0 in {1.0, 1.1}: the relu is active and Adam ends off the optimum, so
    # the stored MSEs are well above rounding level
    DEFAULT = (30, 5)

    def __init__(self, oc, refs):
        super().__init__(oc, refs)
        self.axis = np.linspace(-2.0, 2.0, 41)

    def draw(self, rng):
        i, j = rng.integers(0, 40, size=2)
        return int(i), int(j)

    def run(self, cell):
        ex = self.oc.experiments
        i, j = cell
        grid = ex.GridSpec(ex.Axis("w0", self.axis[i], self.axis[i + 1], 2),
                           ex.Axis("b0", self.axis[j], self.axis[j + 1], 2))
        return ex.phase_diagram("relu", grid, eta=0.1, epochs=self.epochs,
                                method="train_adam", steps=self.steps)

    def check(self, inp, out, vjps):
        bad = []
        if out.mse.shape != (2, 2):
            bad.append(f"mse grid has shape {out.mse.shape}")
        if not (np.all(np.isfinite(out.mse)) and np.all(out.mse >= 0.0)):
            bad.append("mse grid has a negative or non-finite cell")
        want = self.cells * self.epochs * self.steps
        if vjps != want:
            bad.append(f"{vjps} vjps, expected {want} (one per step per epoch)")
        return bad

    def reference(self, out):
        return {"mse": out.mse.tolist()}


class LandscapeOracle(Workload):
    """The flow2d oracle and its 11-point table, then an 11x11 projection of
    (loss, control MSE, energy) around the stored trained center."""

    name = "landscape_oracle"
    count = 11
    rollouts_per_job = count * count
    DEFAULT = 0

    def __init__(self, oc, refs):
        super().__init__(oc, refs)
        self.problem = oc.experiments.flow2d_problem()
        self.model = oc.nets.MlpSpec((14, 14), activation=oc.nets.elu(),
                                     out_dim=self.problem.dynamics.m)
        with open(os.path.join(DATA, "center.json")) as fh:
            self.center = oc.nets.theta_from_json(fh.read(), self.model)

    def draw(self, rng):
        return int(rng.integers(1, 2**31 - 1))

    def run(self, direction_seed):
        sol = self.oc.oracles.oc_for_problem(self.problem)
        table = np.array([
            np.concatenate(([t], np.atleast_1d(sol.u_star(float(t))),
                            np.atleast_1d(sol.x_star(float(t)))))
            for t in np.linspace(0.0, self.problem.T, 11)
        ])
        ls = self.oc.landscape
        spec = ls.make_projection(self.center, direction_seed, two_d=True,
                                  alpha_count=self.count, beta_count=self.count)
        grid = ls.project(spec, self.problem, self.model, sol.u_star, samples=100,
                          workers=1)
        return sol, table, grid

    def check(self, inp, out, vjps):
        sol, table, grid = out
        bad = []
        if abs(sol.value - FLOW2D_ENERGY) > 5e-5:
            bad.append(f"oracle energy {sol.value!r} is not {FLOW2D_ENERGY}")
        if self.ref is not None and not rel_diff_ok(table, self.ref["table"]):
            bad.append("oracle table differs from the stored reference")
        if grid.loss.shape != (self.count, self.count):
            bad.append(f"grid has shape {grid.loss.shape}")
        nan = np.isnan(grid.loss)
        if not (np.array_equal(nan, np.isnan(grid.mse_u))
                and np.array_equal(nan, np.isnan(grid.energy))):
            bad.append("loss, mse and energy grids disagree on which cells are finite")
        ia, ib = grid.center_index()
        center = [grid.loss[ia, ib], grid.mse_u[ia, ib], grid.energy[ia, ib]]
        if not np.all(np.isfinite(center)):
            bad.append("center cell is not finite")
        elif self.ref is not None and not rel_diff_ok(center, self.ref["center"]):
            bad.append("center cell differs from the stored reference")
        if vjps != 0:
            bad.append(f"{vjps} vjps in an evaluation-only job")
        return bad

    def reference(self, out):
        sol, table, grid = out
        ia, ib = grid.center_index()
        return {
            "table": table.tolist(),
            "center": [grid.loss[ia, ib], grid.mse_u[ia, ib], grid.energy[ia, ib]],
            "loss": grid.loss.tolist(),
            "mse_u": grid.mse_u.tolist(),
            "energy": grid.energy.tolist(),
        }


WORKLOADS = {w.name: w for w in (TrainBptt, TrainTbptt, TrainGrid, LandscapeOracle)}
