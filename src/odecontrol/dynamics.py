"""Controlled dynamical systems and the forward-Euler simulator.

Every system is linear and time-invariant, x' = A x + B u. The integrator
is deliberately the plain left-endpoint scheme
x_{k+1} = x_k + dt * (A x_k + B u_k) with u_k = controller(t_k): training
differentiates through exactly this recursion, so the simulator and the
adjoint code must share one convention.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionError, as_matrix, as_vector


class DivergenceError(RuntimeError):
    """State left the finite range during integration; `step` says where."""

    def __init__(self, step: int, message: str | None = None):
        super().__init__(message or f"trajectory diverged at step {step}")
        self.step = int(step)


class LinearDynamics:
    """x' = A x + B u."""

    name = "linear"

    def __init__(self, a, b):
        self.A = as_matrix(a, "A")
        self.B = as_matrix(b, "B")
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionError(
                f"B needs {self.A.shape[0]} rows to match A, got {self.B.shape}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def scalar_linear(a: float, b: float) -> LinearDynamics:
    """Scalar flow x' = a x + b u."""
    return LinearDynamics([[float(a)]], [[float(b)]])


def integrator() -> LinearDynamics:
    """The driftless scalar flow x' = u."""
    return scalar_linear(0.0, 1.0)


class MovingParticleDynamics(LinearDynamics):
    """Damped particle: state (x, v), x' = v, v' = -v + u, scalar control."""

    name = "moving_particle"

    def __init__(self):
        super().__init__([[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]])


@dataclass(frozen=True)
class ControlProblem:
    """Steering task: drive dynamics from x0 to x_star over [0, T] in K steps."""

    dynamics: LinearDynamics
    x0: np.ndarray
    x_star: np.ndarray
    T: float
    steps: int

    def __post_init__(self):
        if not isinstance(self.dynamics, LinearDynamics):
            raise TypeError(f"dynamics must be a LinearDynamics, got {self.dynamics!r}")
        object.__setattr__(self, "x0", as_vector(self.x0, "x0"))
        object.__setattr__(self, "x_star", as_vector(self.x_star, "x_star"))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "steps", int(self.steps))
        n = self.dynamics.n
        if self.x0.shape != (n,) or self.x_star.shape != (n,):
            raise DimensionError(
                f"x0 and x_star must have shape ({n},), got {self.x0.shape} and {self.x_star.shape}"
            )
        if self.T <= 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)


@dataclass
class Trajectory:
    """K+1 states on the time grid plus the K left-endpoint controls.

    `dynamics` records what the trajectory was integrated under (metadata for
    functionals like work that need to interpret the state layout); it is not
    part of value equality.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    dynamics: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.times = as_vector(self.times, "times")
        self.states = as_matrix(self.states, "states")
        self.controls = as_matrix(self.controls, "controls")
        k = len(self.times) - 1
        if k < 1:
            raise DimensionError("trajectory needs at least two time points")
        if self.states.shape[0] != k + 1:
            raise DimensionError(
                f"states must have {k + 1} rows, got {self.states.shape[0]}"
            )
        if self.controls.shape[0] != k:
            raise DimensionError(
                f"controls must have {k} rows, got {self.controls.shape[0]}"
            )

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path_or_file) -> None:
        """t, x1..xn, u1..um rows; the final row has empty control fields."""
        n = self.states.shape[1]
        m = self.controls.shape[1]
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"u{j + 1}" for j in range(m)]
        )
        own = isinstance(path_or_file, (str, bytes))
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(self.steps + 1):
                row = [repr(float(self.times[k]))]
                row += [repr(float(v)) for v in self.states[k]]
                if k < self.steps:
                    row += [repr(float(v)) for v in self.controls[k]]
                else:
                    row += [""] * m
                writer.writerow(row)
        finally:
            if own:
                fh.close()

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def integrate_euler(problem: ControlProblem, controller) -> Trajectory:
    """Forward Euler with left-endpoint control sampling.

    controller is a callable t -> (m,) control vector, which is sampled at
    t_0..t_{K-1} before the scan, or those K controls already sampled as a
    (K, m) array (for a network, one forward_batch call; see rollout). Raises
    DivergenceError carrying the first step whose state is not finite; once a
    state is inf or NaN every later one is too, so one check after the scan
    finds the step a per-step check would.
    """
    dyn = problem.dynamics
    k_steps = problem.steps
    dt = problem.dt
    times = problem.times()
    n, m = dyn.n, dyn.m
    if callable(controller):
        controller = [np.asarray(controller(t), dtype=np.float64).reshape(m) for t in times[:-1]]
    controls = np.array(controller, dtype=np.float64)
    if controls.shape != (k_steps, m):
        raise DimensionError(f"controls must have shape ({k_steps}, {m}), got {controls.shape}")
    a = dyn.A
    states = np.empty((k_steps + 1, n))
    x = states[0] = problem.x0
    with np.errstate(over="ignore", invalid="ignore"):
        bu = controls @ dyn.B.T
        for k in range(k_steps):
            x = states[k + 1] = x + dt * (a @ x + bu[k])
    bad = ~np.isfinite(states[1:]).all(axis=1)
    if bad.any():
        raise DivergenceError(int(bad.argmax()))
    return Trajectory(times, states, controls, dynamics=dyn)


def rollout(problem: ControlProblem, model, theta) -> Trajectory:
    """Euler trajectory of a controller at theta, sampled once with forward_batch."""
    return integrate_euler(problem, model.forward_batch(theta, problem.times()[:-1]))


def terminal_loss(traj: Trajectory, x_star) -> float:
    """L = 1/2 ||x(T) - x*||^2."""
    d = traj.final_state() - as_vector(x_star, "x_star")
    return 0.5 * float(d @ d)


def control_energy(traj: Trajectory) -> float:
    """E = 1/2 dt sum_k ||u_k||^2, the left Riemann sum matching the solver."""
    return 0.5 * traj.dt * float(np.sum(traj.controls * traj.controls))


def work_functional(traj: Trajectory) -> float:
    """W = dt sum_k v_k u_k for the moving-particle system (v is state 2)."""
    if not isinstance(traj.dynamics, MovingParticleDynamics):
        raise ValueError(
            "work_functional is defined for moving-particle trajectories only"
        )
    v = traj.states[:-1, 1]
    u = traj.controls[:, 0]
    return traj.dt * float(v @ u)


def mse_control(u_hat, u_star, samples: int, horizon: float) -> float:
    """Mean squared control mismatch over t_i = i*T/M, i = 1..M.

    u_hat may be a callable t -> control or a pre-sampled (M,) / (M, m)
    array on that grid; u_star is a callable.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ts = np.arange(1, samples + 1) * (float(horizon) / samples)
    if callable(u_hat):
        uh = np.stack([np.atleast_1d(np.asarray(u_hat(t), dtype=np.float64)) for t in ts])
    else:
        uh = np.asarray(u_hat, dtype=np.float64)
        if uh.ndim == 1:
            uh = uh[:, None]
        if uh.shape[0] != samples:
            raise DimensionError(
                f"u_hat has {uh.shape[0]} samples, expected {samples}"
            )
    us = np.stack([np.atleast_1d(np.asarray(u_star(t), dtype=np.float64)) for t in ts])
    if us.shape != uh.shape:
        raise DimensionError(f"control shapes differ: {uh.shape} vs {us.shape}")
    d = uh - us
    return float(np.sum(d * d) / samples)


def validate_particle_constraints(
    traj: Trajectory, u_range=(0.0, 2.0)
) -> list[tuple[int, str]]:
    """Post-hoc check of the moving-particle constraints v >= 0, 0 <= u <= 2.

    The constraints are deliberately not enforced during integration or
    training; this reports (step, message) pairs for any violations.
    """
    out = []
    for k in range(traj.steps + 1):
        v = traj.states[k, 1]
        if v < 0.0:
            out.append((k, f"v = {v:.6g} below 0"))
        if k < traj.steps:
            u = traj.controls[k, 0]
            if not (u_range[0] <= u <= u_range[1]):
                out.append((k, f"u = {u:.6g} outside [{u_range[0]}, {u_range[1]}]"))
    return out
