"""Random-direction projections of loss, control MSE, and energy around a
trained parameter vector.

theta = theta* + alpha*delta + beta*d2 with delta, d2 drawn i.i.d. standard
normal per coordinate. Directions are stored on the spec so any grid can be
reproduced bit for bit. The grid is evaluated in blocks of cells, each
block one population of runs (one rollout and one forward_batch on the MSE
grid), so every cell equals its own single-run evaluation bit for bit; the
blocks run in this process or, for workers > 1, through pool.map_cells.
Nothing here raises on divergence: a diverged cell's rollout row is
non-finite, so the cell is recorded as NaN and the rest of its block is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (
    ControlProblem,
    control_energy,
    mse_control,
    mse_times,
    rollout,
    sample_control,
    terminal_loss,
)
from .experiments import Axis, csv_text
from .linalg import SeededRng
from .pool import map_cells

# the default grid of every projection axis; a 2-D projection's beta axis
# takes the same range and count
PROJECTION_AXIS = Axis("alpha", -0.4, 0.4, 101)
_RANGE = (PROJECTION_AXIS.lo, PROJECTION_AXIS.hi)
# floats per layer activation of one block: a block holds
# _BLOCK_FLOATS // (max(K, samples) * widest layer) cells, so small nets run
# many cells per population while wide, BLAS-bound nets run one
_BLOCK_FLOATS = 2**14


@dataclass(frozen=True)
class ProjectionSpec:
    """Center, directions, and grid of a 1-D or 2-D parameter projection;
    a 2-D projection has a second direction d2 and its axis beta."""

    theta_star: np.ndarray
    delta: np.ndarray
    alpha: Axis = PROJECTION_AXIS
    d2: np.ndarray | None = None
    beta: Axis | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "theta_star", np.asarray(self.theta_star, dtype=np.float64)
        )
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.float64))
        if self.d2 is not None:
            object.__setattr__(self, "d2", np.asarray(self.d2, dtype=np.float64))
        if self.theta_star.ndim != 1:
            raise ValueError("theta_star must be a flat parameter vector")
        if self.delta.shape != self.theta_star.shape:
            raise ValueError(
                f"delta shape {self.delta.shape} != theta shape {self.theta_star.shape}"
            )
        if self.d2 is not None and self.d2.shape != self.theta_star.shape:
            raise ValueError(
                f"d2 shape {self.d2.shape} != theta shape {self.theta_star.shape}"
            )
        if (self.d2 is None) != (self.beta is None):
            raise ValueError("a 2-D projection needs both d2 and a beta axis")
        if self.alpha.count < 3 or (self.beta is not None and self.beta.count < 3):
            raise ValueError("projection grids need at least 3 points per axis")

    @property
    def two_d(self) -> bool:
        return self.d2 is not None

    def alphas(self) -> np.ndarray:
        return self.alpha.values()

    def betas(self) -> np.ndarray:
        if self.beta is None:
            return np.zeros(1)
        return self.beta.values()

    def theta_at(self, alpha, beta=0.0) -> np.ndarray:
        """theta at one cell, or (C, P) rows for (C,) arrays of cell coordinates."""
        theta = self.theta_star + np.multiply.outer(alpha, self.delta)
        if self.d2 is not None:
            theta = theta + np.multiply.outer(beta, self.d2)
        return theta


def make_projection(
    theta_star: np.ndarray,
    seed: int,
    two_d: bool = False,
    alpha_range: tuple[float, float] = _RANGE,
    alpha_count: int = PROJECTION_AXIS.count,
    beta_range: tuple[float, float] = _RANGE,
    beta_count: int = PROJECTION_AXIS.count,
) -> ProjectionSpec:
    """Draw fresh Gaussian directions for theta_star under the given seed;
    the beta range and count are read for a 2-D projection only."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    rng = SeededRng(seed)
    delta = rng.normal(theta_star.shape[0])
    alpha = Axis("alpha", *alpha_range, alpha_count)
    d2 = beta = None
    if two_d:
        d2 = rng.normal(theta_star.shape[0])
        beta = Axis("beta", *beta_range, beta_count)
    return ProjectionSpec(theta_star, delta, alpha, d2, beta, seed=seed)


def _block_cells(model, steps: int, samples: int) -> int:
    """Cells per block: a fixed float budget over the widest activation."""
    widest = max(max(fi, fo) for fi, fo, _ in model.layer_shapes())
    return max(1, _BLOCK_FLOATS // (max(steps, samples) * widest))


def _project_block(spec, problem, model, ts, us, cells) -> np.ndarray:
    """(loss, control MSE, energy) rows for a (C, 2) block of (alpha, beta)
    cells, evaluated as one population of C runs.

    A cell with any non-finite value, a diverged scan included, is NaN in
    all three.
    """
    out = np.empty((len(cells), 3))
    theta = spec.theta_at(cells[:, 0], cells[:, 1])
    # overflow on a blown-up cell is routine; it ends up NaN
    with np.errstate(over="ignore", invalid="ignore"):
        traj = rollout(problem, model, theta)
        out[:, 0] = terminal_loss(traj, problem.x_star)
        out[:, 1] = mse_control(model.forward_batch(theta, ts), us, ts.shape[0], problem.T)
        out[:, 2] = control_energy(traj)
    out[~np.isfinite(out).all(axis=1)] = np.nan
    return out


@dataclass(frozen=True)
class ProjectionResult:
    spec: ProjectionSpec
    loss: np.ndarray  # shape (alpha.count, beta.count); one column for 1-D
    mse_u: np.ndarray
    energy: np.ndarray
    samples: int
    blas_threads: dict  # see pool.map_cells

    def center_index(self) -> tuple[int, int]:
        ia = int(np.argmin(np.abs(self.spec.alphas())))
        ib = int(np.argmin(np.abs(self.spec.betas())))
        return ia, ib

    def to_csv(self) -> str:
        alphas, betas = np.meshgrid(self.spec.alphas(), self.spec.betas(), indexing="ij")
        return csv_text(("alpha", "beta", "loss", "mse_u", "energy"),
                        zip(alphas.ravel(), betas.ravel(), self.loss.ravel(),
                            self.mse_u.ravel(), self.energy.ravel()))

    def manifest(self) -> dict:
        s = self.spec
        return {
            "experiment": "projection",
            "theta_star": s.theta_star.tolist(),
            "delta": s.delta.tolist(),
            "d2": None if s.d2 is None else s.d2.tolist(),
            "direction_seed": s.seed,
            "alpha": s.alpha.manifest(),
            "beta": None if s.beta is None else s.beta.manifest(),
            "samples": self.samples,
            "blas_threads": self.blas_threads,
        }


def project(
    spec: ProjectionSpec,
    problem: ControlProblem,
    model,
    u_star,
    samples: int = 100,
    workers: int = 1,
) -> ProjectionResult:
    """Evaluate (loss, control MSE, energy) over the projection grid.

    u_star is the optimal control as an oracle's u_star: a callable that
    maps the (samples,) MSE grid to its (samples, m) controls in one call
    (see oracles.OcSolution). It is sampled once up front (so closures are
    fine with worker pools). The cells, alpha-major, are cut into blocks that
    each run as one population (see _block_cells), so every cell equals its
    own single-run rollout bit for bit; for workers > 1 a process pool
    spreads the blocks (see pool.map_cells).
    """
    alphas, betas = spec.alphas(), spec.betas()
    ts = mse_times(samples, problem.T)
    us = sample_control(u_star(ts), ts, "u_star")
    cells = np.stack(np.meshgrid(alphas, betas, indexing="ij"), axis=-1).reshape(-1, 2)
    size = _block_cells(model, problem.steps, samples)
    blocks = [cells[i:i + size] for i in range(0, len(cells), size)]
    rows, threads = map_cells(partial(_project_block, spec, problem, model, ts, us),
                              blocks, workers)
    grid = np.concatenate(rows).reshape(len(alphas), len(betas), 3)
    return ProjectionResult(
        spec=spec,
        loss=grid[:, :, 0],
        mse_u=grid[:, :, 1],
        energy=grid[:, :, 2],
        samples=samples,
        blas_threads=threads,
    )


def sharpness_1d(alphas: np.ndarray, values: np.ndarray) -> float:
    """Central second difference of a projected curve at alpha = 0.

    Needs at least 3 uniformly spaced points with 0 in the interior; returns
    (v[i+1] - 2 v[i] + v[i-1]) / h^2 at the grid point closest to 0.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if alphas.ndim != 1 or alphas.shape != values.shape or alphas.shape[0] < 3:
        raise ValueError("sharpness needs matching 1-D arrays of length >= 3")
    h = alphas[1] - alphas[0]
    if not np.allclose(np.diff(alphas), h):
        raise ValueError("sharpness needs a uniformly spaced alpha grid")
    i = int(np.argmin(np.abs(alphas)))
    if i == 0 or i == alphas.shape[0] - 1:
        raise ValueError("alpha = 0 must be an interior grid point")
    return float((values[i + 1] - 2.0 * values[i] + values[i - 1]) / (h * h))
