"""Gradients of control objectives through the Euler recursion.

Each gradient samples the controls once (U = forward_batch on t_0..t_{K-1})
and runs the Euler scan of x' = A x + B u on them. bptt_grad runs the full
discrete adjoint: lambda_K = dL/dx_K, then lambda_k = (I + dt * A^T)
lambda_{k+1} plus any integrated-cost state terms, forms the K cotangents
dt * B^T lambda_{k+1} in one product and pulls them back in one batched vjp
(counted as K).
tbptt_grad keeps a single time index k' and does exactly one vjp; its
"propagated" variant uses the true adjoint at k'+1 so the K single-index
gradients sum back to the full one, while "frozen" zeroes all state
sensitivity downstream of k'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    ControlProblem,
    Trajectory,
    control_energy,
    rollout,
    terminal_loss,
    work_functional,
)

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
    """

    integrated: str | None = None
    mu: float = 0.0

    def __post_init__(self):
        if self.integrated not in (None, "energy", "work"):
            raise ValueError(f"unknown integrated cost {self.integrated!r}")
        if self.integrated is not None and self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")

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
    pullback of the K control cotangents, counted as K vjps."""
    theta = np.asarray(theta, dtype=np.float64)
    traj = rollout(problem, model, theta)
    dyn = problem.dynamics
    a_t = dyn.A.T
    dt = problem.dt
    xs, us, ts = traj.states, traj.controls, traj.times
    k_steps = problem.steps
    mu = loss.mu

    lam = xs[k_steps] - problem.x_star
    lams = np.empty((k_steps, lam.shape[0]))  # lams[k] = lambda_{k+1}
    for k in reversed(range(k_steps)):
        lams[k] = lam
        if k > 0:
            lam = lam + dt * (a_t @ lam)
            if loss.integrated == "work":
                # d(v u)/dx = (0, u)
                lam = lam + mu * dt * np.array([0.0, us[k][0]])
    g_us = dt * (lams @ dyn.B)
    if loss.integrated == "energy":
        g_us += mu * dt * us
    elif loss.integrated == "work":
        # d(v u)/du = v
        g_us += mu * dt * xs[:-1, 1:2]
    grad = model.vjp(theta, ts[:-1], g_us)
    _count_vjp(k_steps)
    return GradResult(grad, loss.value(traj, problem.x_star), traj)


def tbptt_grad(
    problem: ControlProblem,
    model,
    theta,
    k_index: int,
    variant: str = "propagated",
) -> GradResult:
    """Single-index truncated gradient (exactly one vjp), terminal loss only.

    variant "frozen" is the literal truncated rule with downstream state
    sensitivities treated as zero: dt * J_u(t_k')^T B^T (x_K - x*).
    variant "propagated" (default) replaces the frozen cotangent with the true
    adjoint lambda_{k'+1}, so summing over k' = 0..K-1 reproduces bptt_grad.
    """
    if variant not in ("frozen", "propagated"):
        raise ValueError(f"unknown tbptt variant {variant!r}")
    k_steps = problem.steps
    if not 0 <= k_index < k_steps:
        raise ValueError(f"k_index must be in [0, {k_steps}), got {k_index}")
    theta = np.asarray(theta, dtype=np.float64)
    traj = rollout(problem, model, theta)
    dyn = problem.dynamics
    dt = problem.dt

    lam = traj.states[k_steps] - problem.x_star
    if variant == "propagated":
        a_t = dyn.A.T
        for _ in range(k_index + 1, k_steps):
            lam = lam + dt * (a_t @ lam)
    g_u = dt * (dyn.B.T @ lam)
    grad = model.vjp(theta, traj.times[k_index], g_u)
    _count_vjp()
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
