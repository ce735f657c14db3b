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

The system is linear and time-invariant, so without a state term the
adjoint is a fixed linear map: lambda_{k+1} = P_{K-2-k} lambda_{K-1} with
P_j = (I + dt A^T)^j. ControlProblem.adjoint_powers builds the read-only
stack of these powers once per problem, row k holding P_{K-2-k}. Both
adjoints take the first step lambda_{K-1} = lambda_K + dt (A^T lambda_K)
as before, which maps -0 to +0 and an inf in lambda_K (x_K - x* can
overflow) to NaN, and then apply the stack in one product: bptt_grad all
of it, one gemv per run on the ((K-1) n, n) flattening, tbptt_grad the one
power P_{K-2-k'}, whose gemv gives BPTT's row k' bit for bit. With A = 0
every P_j is the identity exactly, so the product copies lambda_{K-1}, as
the per-step loop would. The work cost's state term makes the adjoint a
convolution, so it keeps the per-step loop. Every product is the one
linalg.scan_product picks: np.dot for one run with n >= 2, the stacked
np.matmul for a population or n = 1.

Nothing here raises on divergence: a diverging run's loss, states and
gradient come back non-finite in its own row, and its pullback still runs
and is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _first_adjoint_step(problem: ControlProblem, lam: np.ndarray):
    """lambda_{K-1} = lambda_K + dt A^T lambda_K for a (..., n, 1) column
    stack, stepped with the product scan_product picks for its run axes.
    Returns the column on the axes scan_product returns (a bare (n, 1) for
    one run with n >= 2) and that product."""
    n = problem.dynamics.n
    axes, product = scan_product(lam.shape[:-2], n)
    lam = lam.reshape(axes + (n, 1))
    step = product(problem.dynamics.A.T, lam)
    np.multiply(step, problem.dt, step)
    return np.add(lam, step, step), product


def bptt_grad(
    problem: ControlProblem, model, theta, loss: LossSpec = LossSpec()
) -> GradResult:
    """Full-horizon gradient of J(theta) by the discrete adjoint: one batched
    pullback of the K control cotangents, counted as K vjps.

    A (..., P) theta is a population of runs: grad is (..., P), loss and the
    trajectory carry the same run axes, and each run counts K vjps. Without
    a work cost the adjoint takes its first step, then forms lambda_1 ..
    lambda_{K-1} as one product of the problem's propagator stack
    (adjoint_powers, flattened to ((K-1) n, n)) with lambda_{K-1}: one gemv
    per run, so each run's gradient equals its own call's bit for bit. The
    work cost adds a state term per step, so it keeps the per-step loop.
    """
    theta = np.asarray(theta, dtype=np.float64)
    traj = rollout(problem, model, theta)
    dyn = problem.dynamics
    xs, us, ts = traj.states, traj.controls, traj.times
    k_steps, n = problem.steps, dyn.n
    mu = loss.mu
    runs = us.shape[:-2]
    dt = np.asarray(problem.dt)

    lam = (xs[..., k_steps, :] - problem.x_star)[..., None]  # lambda_K
    if loss.integrated == "work":
        # lambda_k = lambda_{k+1} + dt A^T lambda_{k+1} + work_k, k = K-1 down
        # to 1, with d(v u)/dx = (0, u_k), on a time-major column buffer
        a_t, (axes, matvec) = dyn.A.T, scan_product(runs, n)
        lams = np.empty((k_steps,) + axes + (n, 1))  # lams[k] = lambda_{k+1}
        lams[-1] = lam.reshape(axes + (n, 1))
        step = np.empty(axes + (n, 1))
        u = us[..., 0]
        work = (mu * dt * time_major(np.stack([np.zeros_like(u), u], axis=-1)))[:0:-1]
        for lam, lam_prev, w in zip(lams[:0:-1], lams[-2::-1], work.reshape(lams[1:].shape)):
            matvec(a_t, lam, step)
            np.multiply(step, dt, step)
            np.add(lam, step, lam_prev)
            lam_prev += w
        lams = run_major(lams.reshape((k_steps,) + runs + (n, 1))[..., 0])
    else:
        first, product = _first_adjoint_step(problem, lam)
        powers = problem.adjoint_powers.reshape(-1, n)
        lams = np.empty(first.shape[:-2] + (k_steps * n, 1))  # lambda_1 .. lambda_K
        product(powers, first, lams[..., :-n, :])
        lams[..., -n:, :] = lam.reshape(first.shape)
        lams = lams.reshape(runs + (k_steps, n))
    g_us = dt * np.matmul(lams, dyn.B)
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
    adjoint lambda_{k'+1}, so summing over k' = 0..K-1 reproduces bptt_grad:
    the first adjoint step, then one product P_{K-2-k'} lambda_{K-1} with the
    problem's propagator stack (adjoint_powers), BPTT's row k' bit for bit.
    A (..., P) theta is a population of runs sharing k_index, as in
    bptt_grad, and each run's gradient equals its own call's bit for bit.
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
    if variant == "propagated" and k_index < k_steps - 1:
        first, product = _first_adjoint_step(problem, lam)
        lam = product(problem.adjoint_powers[k_index], first).reshape(lam.shape)
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
    """Central finite differences of J(theta), the reference for bptt_grad.

    A (..., P) theta is a population of runs, as in bptt_grad: parameter i
    of every run moves at once, and each row equals its own call's bits.
    """
    theta = np.asarray(theta, dtype=np.float64)

    def objective(th):
        return loss.value(rollout(problem, model, th), problem.x_star)

    grad = np.zeros(theta.shape)
    for i in range(theta.shape[-1]):
        e = np.zeros_like(theta)
        e[..., i] = h
        grad[..., i] = (objective(theta + e) - objective(theta - e)) / (2.0 * h)
    return grad
