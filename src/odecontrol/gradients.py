"""Gradients of control objectives through the Euler recursion.

Each gradient samples the controls once (U = forward_batch on t_0..t_{K-1})
and runs the Euler scan of x' = A x + B u on them. bptt_grad runs the full
discrete adjoint: lambda_K = dL/dx_K, then lambda_k = (I + dt * A^T)
lambda_{k+1} plus any integrated-cost state terms, forms the K cotangents
dt * B^T lambda_{k+1} in one product and pulls them back in one batched vjp
(counted as K).
tbptt_grad keeps a single time index k' and does one vjp per run; its
"propagated" variant uses the true adjoint at k'+1 so the K single-index
gradients sum back to the full one, while "frozen" zeroes all state
sensitivity downstream of k'.

With A = 0 (every entry +0 or -0) and no work cost, the adjoint step
lambda -> lambda + dt (A^T lambda) maps a finite nonzero lambda to itself,
+-0 to +0 and +-inf to NaN, and a second application changes no bit. So
bptt_grad takes the real step once from lambda_K and reuses its result;
the step is kept because lambda_K = x_K - x* can overflow to inf. The work
cost adds a state term per step, so it keeps the loop, and so does
tbptt_grad's propagated adjoint.

Both adjoint scans step A^T lambda with the product linalg.scan_product
picks, as the Euler scan does: np.dot on the (n, 1) columns of one run with
n >= 2, the stacked np.matmul for a population or n = 1, with dt a 0-d array
bound once.

Nothing here raises on divergence: a diverging run's loss, states and
gradient come back non-finite in its own row, and its pullback still runs
and is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat
from typing import NamedTuple

import numpy as np

from .dynamics import (
    ControlProblem,
    Trajectory,
    control_energy,
    rollout,
    run_major,
    terminal_loss,
    time_major,
    work_functional,
)
from .linalg import scan_product

_vjp_calls = 0


def reset_vjp_count() -> None:
    global _vjp_calls
    _vjp_calls = 0


def vjp_count() -> int:
    return _vjp_calls


def _count_vjp(k: int = 1) -> None:
    global _vjp_calls
    _vjp_calls += k


@dataclass(frozen=True)
class LossSpec:
    """Objective J = terminal loss + mu * integrated cost.

    integrated is None (pure steering), "energy" (J += mu * E) or "work"
    (J += mu * W, moving-particle only). The terminal term is always on.
    An integrated cost needs a finite mu >= 0.
    """

    integrated: str | None = None
    mu: float = 0.0

    def __post_init__(self):
        if self.integrated not in (None, "energy", "work"):
            raise ValueError(f"unknown integrated cost {self.integrated!r}")
        if self.integrated is not None and not self.mu >= 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.integrated is not None and self.mu == math.inf:
            raise ValueError(f"mu must be finite, got {self.mu}")

    @staticmethod
    def terminal() -> "LossSpec":
        return LossSpec()

    @staticmethod
    def energy(mu: float) -> "LossSpec":
        return LossSpec("energy", float(mu))

    @staticmethod
    def work(mu: float) -> "LossSpec":
        return LossSpec("work", float(mu))

    def value(self, traj: Trajectory, x_star) -> float:
        total = terminal_loss(traj, x_star)
        if self.integrated == "energy":
            total += self.mu * control_energy(traj)
        elif self.integrated == "work":
            total += self.mu * work_functional(traj)
        return total


class GradResult(NamedTuple):
    grad: np.ndarray
    loss: float
    trajectory: Trajectory


def bptt_grad(
    problem: ControlProblem, model, theta, loss: LossSpec = LossSpec()
) -> GradResult:
    """Full-horizon gradient of J(theta) by the discrete adjoint: one batched
    pullback of the K control cotangents, counted as K vjps.

    A (..., P) theta is a population of runs: grad is (..., P), loss and the
    trajectory carry the same run axes, and each run counts K vjps. The
    adjoint scan keeps a time-major column buffer and forms A^T lambda as the
    stacked matvec, so each run's gradient equals its own call's bit for bit
    (see euler_states); one run with n >= 2 drops the run axes and steps with
    np.dot, the same BLAS call (see scan_product). With A = 0 and no work
    cost the scan is one step, whose result fills lambda_1..lambda_{K-1}
    (see the module docstring).
    """
    theta = np.asarray(theta, dtype=np.float64)
    traj = rollout(problem, model, theta)
    dyn = problem.dynamics
    a_t = dyn.A.T
    dt = np.asarray(problem.dt)
    xs, us, ts = traj.states, traj.controls, traj.times
    k_steps, n = problem.steps, dyn.n
    mu = loss.mu
    runs = us.shape[:-2]
    axes, matvec = scan_product(runs, n)

    lams = np.empty((k_steps,) + axes + (n, 1))  # lams[k] = lambda_{k+1}
    lams[-1] = (xs[..., k_steps, :] - problem.x_star)[..., None]
    step = np.empty(axes + (n, 1))
    work = repeat(None)
    if loss.integrated == "work":
        # d(v u)/dx = (0, u_k), one column per step k = K-1 down to 1
        u = us[..., 0]
        work = (mu * dt * time_major(np.stack([np.zeros_like(u), u], axis=-1)))[:0:-1]
        work = work.reshape(lams[1:].shape)
    # lambda_k = lambda_{k+1} + dt A^T lambda_{k+1} (+ work), for k = K-1 down to 1
    scan = zip(lams[:0:-1], lams[-2::-1], work)
    driftless = loss.integrated != "work" and dyn.driftless
    if driftless:  # the step is idempotent: take it once, then copy its result
        scan = islice(scan, 1)
    for lam, lam_prev, w in scan:
        matvec(a_t, lam, step)
        np.multiply(step, dt, step)
        np.add(lam, step, lam_prev)
        if w is not None:
            lam_prev += w
    if driftless:
        lams[:-1] = lams[-2:-1]
    lams = lams.reshape((k_steps,) + runs + (n, 1))  # the run axes back, for the pullback
    g_us = dt * np.matmul(run_major(lams[..., 0]), dyn.B)
    if loss.integrated == "energy":
        g_us += mu * dt * us
    elif loss.integrated == "work":
        # d(v u)/du = v
        g_us += mu * dt * xs[..., :-1, 1:2]
    grad = model.vjp(theta, ts[:-1], g_us)
    _count_vjp(k_steps * math.prod(runs))
    return GradResult(grad, loss.value(traj, problem.x_star), traj)


def tbptt_grad(
    problem: ControlProblem,
    model,
    theta,
    k_index: int,
    variant: str = "propagated",
) -> GradResult:
    """Single-index truncated gradient (one vjp per run), terminal loss only.

    variant "frozen" is the literal truncated rule with downstream state
    sensitivities treated as zero: dt * J_u(t_k')^T B^T (x_K - x*).
    variant "propagated" (default) replaces the frozen cotangent with the true
    adjoint lambda_{k'+1}, so summing over k' = 0..K-1 reproduces bptt_grad.
    A (..., P) theta is a population of runs sharing k_index, as in
    bptt_grad: lambda is a (..., n, 1) column stack and A^T lambda the stacked
    matvec, so each run's gradient equals its own call's bit for bit; one
    run with n >= 2 steps its (n, 1) column with np.dot (see scan_product).
    """
    if variant not in ("frozen", "propagated"):
        raise ValueError(f"unknown tbptt variant {variant!r}")
    k_steps = problem.steps
    if not 0 <= k_index < k_steps:
        raise ValueError(f"k_index must be in [0, {k_steps}), got {k_index}")
    theta = np.asarray(theta, dtype=np.float64)
    traj = rollout(problem, model, theta)
    dyn = problem.dynamics
    dt = np.asarray(problem.dt)

    lam = (traj.states[..., k_steps, :] - problem.x_star)[..., None]
    if variant == "propagated":
        a_t = dyn.A.T
        axes, matvec = scan_product(lam.shape[:-2], dyn.n)
        col = lam.reshape(axes + (dyn.n, 1))  # a view: the scan updates lam
        step = np.empty_like(col)
        for _ in range(k_index + 1, k_steps):
            matvec(a_t, col, step)
            np.multiply(step, dt, step)
            np.add(col, step, col)
    g_u = dt * np.matmul(dyn.B.T, lam)[..., 0]
    grad = model.vjp(theta, traj.times[k_index], g_u)
    _count_vjp(math.prod(traj.controls.shape[:-2]))
    return GradResult(grad, terminal_loss(traj, problem.x_star), traj)


def fd_grad(
    problem: ControlProblem,
    model,
    theta,
    loss: LossSpec = LossSpec(),
    h: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of J(theta), the reference for bptt_grad."""
    theta = np.asarray(theta, dtype=np.float64)

    def objective(th):
        return loss.value(rollout(problem, model, th), problem.x_star)

    grad = np.zeros(theta.shape[0])
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        grad[i] = (objective(theta + e) - objective(theta - e)) / (2.0 * h)
    return grad
