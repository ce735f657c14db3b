"""Controlled dynamical systems and the forward-Euler simulator.

Every system is linear and time-invariant, x' = A x + B u. The integrator
is deliberately the plain left-endpoint scheme
x_{k+1} = x_k + dt * (A x_k + B u_k) with u_k = controller(t_k): training
differentiates through exactly this recursion, so the simulator and the
adjoint code must share one convention.

Driftless systems (every entry of A is +0 or -0, as in x' = u) skip the
per-step loop with the same bits. For finite x, np.matmul(A, x) is +0
there, so step k is (+0 + B u_k) dt, and np.add.accumulate sums the steps
onto x0 in time order (a pairwise sum would round differently). A state
that is inf or NaN stays non-finite in every later step on both paths, so
first_nonfinite names the same first bad step.

For A != 0 the Euler scan steps in Python, while the adjoint in
gradients (without a work cost) is one product against
ControlProblem.adjoint_powers, the cached stack of propagator powers
(I + dt A^T)^j. One run with n <= 2 (every train call and every one-run
population on the shipped drift problems) takes a kernel on Python
floats: per step one BLAS gemv for A x_k (none for n = 1, where
0.0 + a x_k is gemv's rounding) and x_k + (A x_k + B u_k) dt in the
ufunc loop's operand order. Python's + and * are the same binary64
round-to-nearest operations as the ufuncs, and inf and NaN pass through
them without exceptions, so the states keep every bit. Populations and
n >= 3 step (n, 1) columns with the product linalg.scan_product picks:
np.dot for one run, the BLAS gemv of the stacked np.matmul with less
dispatch, and np.matmul for a population; that loop multiplies by dt as
a 0-d array bound once per scan.

Divergence is returned, not raised: a run that leaves the finite range
keeps its inf or NaN states in its own rows, and first_nonfinite finds its
first bad step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DimensionError,
    as_matrix,
    as_vector,
    check_count,
    check_positive,
    matrix_powers,
    row_dot,
    scan_product,
)


def frozen_finite(a: np.ndarray, name: str) -> np.ndarray:
    """A read-only copy of a, or a ValueError naming it if an entry is not
    finite. Rollouts read A, B, x0 and x* on every call, and driftless is
    decided from A once, so a caller's later write must not reach them."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a.tolist()}")
    a = a.copy()
    a.flags.writeable = False
    return a


class LinearDynamics:
    """x' = A x + B u, with A and B kept as read-only copies.

    driftless is set when every entry of A is +0 or -0 (x' = B u); the
    Euler scan then skips its per-step loop.
    """

    name = "linear"

    def __init__(self, a, b):
        self.A = frozen_finite(as_matrix(a, "A"), "A")
        self.B = frozen_finite(as_matrix(b, "B"), "B")
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionError(
                f"B needs {self.A.shape[0]} rows to match A, got {self.B.shape}"
            )
        self.driftless = not self.A.any()

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
    """Steering task: drive dynamics from x0 to x_star over [0, T] in K steps.

    x0 and x_star are kept as read-only copies and must be finite, and T
    must be a finite number above 0.
    """

    dynamics: LinearDynamics
    x0: np.ndarray
    x_star: np.ndarray
    T: float
    steps: int

    def __post_init__(self):
        if not isinstance(self.dynamics, LinearDynamics):
            raise TypeError(f"dynamics must be a LinearDynamics, got {self.dynamics!r}")
        object.__setattr__(self, "x0", frozen_finite(as_vector(self.x0, "x0"), "x0"))
        object.__setattr__(self, "x_star",
                           frozen_finite(as_vector(self.x_star, "x_star"), "x_star"))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "steps", int(self.steps))
        n = self.dynamics.n
        if self.x0.shape != (n,) or self.x_star.shape != (n,):
            raise DimensionError(
                f"x0 and x_star must have shape ({n},), got {self.x0.shape} and {self.x_star.shape}"
            )
        check_positive("T", self.T)
        check_count("steps", self.steps)
        # every rollout reads the grid, so it is built once and shared read-only
        times = np.linspace(0.0, self.T, self.steps + 1)
        times.flags.writeable = False
        object.__setattr__(self, "_times", times)

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        """The K+1 grid times t_k = k T / K (read-only)."""
        return self._times

    @cached_property
    def adjoint_powers(self) -> np.ndarray:
        """The powers P_j = (I + dt A^T)^j, j = K-2 down to 0, as a read-only
        contiguous (K-1, n, n) stack whose row k maps lambda_{K-1} to the
        adjoint lambda_{k+1} of step k: row k is P_{K-2-k}. Built by
        linalg.matrix_powers on first use and kept; a problem made by
        dataclasses.replace builds its own."""
        dyn = self.dynamics
        powers = matrix_powers(np.eye(dyn.n) + self.dt * dyn.A.T, self.steps - 1)
        powers = np.ascontiguousarray(powers[::-1])
        powers.flags.writeable = False
        return powers


@dataclass
class Trajectory:
    """K+1 states on the time grid plus the K left-endpoint controls.

    A population of runs puts its run axes first: states (..., K+1, n) and
    controls (..., K, m) on the shared times, and the functionals below
    return one value per run.
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
        self.states = np.asarray(self.states, dtype=np.float64)
        self.controls = np.asarray(self.controls, dtype=np.float64)
        k = len(self.times) - 1
        if k < 1:
            raise DimensionError("trajectory needs at least two time points")
        if self.states.ndim < 2 or self.controls.ndim != self.states.ndim:
            raise DimensionError(
                f"states and controls must be (..., rows, columns) with the same run "
                f"axes, got shapes {self.states.shape} and {self.controls.shape}"
            )
        if self.states.shape[-2] != k + 1:
            raise DimensionError(
                f"states must have {k + 1} rows, got {self.states.shape[-2]}"
            )
        if self.controls.shape[-2] != k:
            raise DimensionError(
                f"controls must have {k} rows, got {self.controls.shape[-2]}"
            )
        if self.states.shape[:-2] != self.controls.shape[:-2]:
            raise DimensionError(
                f"states and controls must have the same run axes, got shapes "
                f"{self.states.shape} and {self.controls.shape}"
            )

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def final_state(self) -> np.ndarray:
        return self.states[..., -1, :]


def euler_states(problem: ControlProblem, controls: np.ndarray) -> np.ndarray:
    """States (..., K+1, n) of the Euler recursion under (..., K, m) controls.

    Leading axes are independent runs. A buffer holding one run with
    n <= 2 and A != 0 is scanned by _one_run_scan on Python floats. Any
    other scan fills a time-major column buffer (K+1, ..., n, 1) in place,
    and every A x_k is the stacked matvec np.matmul(A, x_k): numpy makes
    one BLAS call per run with the same arguments as a single run's
    A @ x_k, so each run's states equal its own scan bit for bit. One run
    with n >= 3 drops the run axes and steps its (n, 1) columns with
    np.dot, the same BLAS call with less dispatch (see scan_product). dt is
    bound once as a 0-d array, which numpy does not convert per step. A run
    whose state leaves the finite range keeps its inf and NaN rows;
    first_nonfinite names its first bad step.

    When the dynamics are driftless (A is zero; -0 entries count) there is
    no loop: the steps (B u_k + 0.0) dt are formed in one call, and the
    + 0.0 is the loop's +0 = A x_k, which turns a -0 product into +0; the
    states are their in-order prefix sum from x0, np.add.accumulate along
    time.
    """
    dyn = problem.dynamics
    k_steps, n, a = problem.steps, dyn.n, dyn.A
    lead = controls.shape[:-2]
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= 2 and not dyn.driftless and math.prod(lead) == 1:
            bu = (controls @ dyn.B.T).reshape(k_steps, n)
            return _one_run_scan(problem, bu).reshape(lead + (k_steps + 1, n))
        dt = np.asarray(problem.dt)
        axes, matvec = scan_product(lead, n)
        states = np.empty((k_steps + 1,) + axes + (n, 1))
        states[0] = problem.x0[:, None]
        step = np.empty(axes + (n, 1))
        bu = time_major(controls @ dyn.B.T).reshape(states[1:].shape)
        if dyn.driftless:
            # A x_k is +0 for finite x_k, so step k is (+0 + B u_k) dt, and
            # accumulate adds the steps to x0 in time order
            np.add(bu, 0.0, states[1:])
            states[1:] *= dt
            np.add.accumulate(states, axis=0, out=states)
        else:
            x = states[0]
            for bu_k, x_next in zip(bu, states[1:]):
                matvec(a, x, step)
                np.add(step, bu_k, step)
                np.multiply(step, dt, step)
                x = np.add(x, step, x_next)
    # a single run's (K+1, n) view is contiguous already; a population's
    # copy lays each run out as a single run's states are
    return np.ascontiguousarray(run_major(states[..., 0]).reshape(lead + (k_steps + 1, n)))


def _one_run_scan(problem: ControlProblem, bu: np.ndarray) -> np.ndarray:
    """The (K+1, n) Euler states of one run with n <= 2 from its (K, n)
    B u_k rows, x_{k+1} = x_k + (A x_k + B u_k) dt on Python floats.

    Each operation is the ufunc loop's, on the same operands in the same
    order, so every bit is the loop's. For n = 2, A x_k is one gemv,
    a.dot(x_k, step), the call np.dot makes, and x_{k+1} is written into
    the states buffer that the next gemv reads. For n = 1 there is no BLAS
    call: A x_k is 0.0 + a x_k, gemv's rounding, which is +0 for a -0
    product.
    """
    a, dt = problem.dynamics.A, problem.dt
    if a.shape == (1, 1):
        a, x = a.item(), problem.x0.item()
        states = [x]
        for b in bu[:, 0].tolist():
            x = x + (0.0 + a * x + b) * dt
            states.append(x)
        return np.array(states)[:, None]
    states = np.empty((bu.shape[0] + 1, 2))
    states[0] = problem.x0
    x0, x1 = problem.x0.tolist()
    step = np.empty(2)
    gemv = a.dot
    for x, (b0, b1), x_next in zip(states, bu.tolist(), states[1:]):
        gemv(x, step)
        y0, y1 = step.tolist()
        x0 = x0 + (y0 + b0) * dt
        x1 = x1 + (y1 + b1) * dt
        x_next[0], x_next[1] = x0, x1
    return states


def first_nonfinite(states: np.ndarray) -> np.ndarray:
    """Each run's first Euler step whose state is not finite, or -1 for a run
    that stayed finite: an int array over the run axes of (..., K+1, n)
    states, 0-d for one run. Step k is the one that makes x_{k+1}."""
    bad = ~np.isfinite(states[..., 1:, :]).all(axis=-1)
    return np.where(bad.any(axis=-1), bad.argmax(axis=-1), -1)


def time_major(a: np.ndarray) -> np.ndarray:
    """The (K, ..., c) view of a (..., K, c) array: one row per time step."""
    d = a.ndim
    return a.transpose(d - 2, *range(d - 2), d - 1)


def run_major(a: np.ndarray) -> np.ndarray:
    """The (..., K, c) view of a (K, ..., c) array; undoes time_major."""
    d = a.ndim
    return a.transpose(*range(1, d - 1), 0, d - 1)


def integrate_euler(problem: ControlProblem, controller) -> Trajectory:
    """Forward Euler with left-endpoint control sampling.

    controller is the (..., K, m) controls on t_0..t_{K-1}, leading axes
    being runs, or a callable t -> (m,) control vector for one run, sampled
    at those times before the scan. The scan is euler_states, so a run that
    diverges keeps its inf and NaN states (see first_nonfinite).
    """
    dyn = problem.dynamics
    times = problem.times()
    if callable(controller):
        controller = [np.asarray(controller(t), dtype=np.float64).reshape(dyn.m)
                      for t in times[:-1]]
    controls = np.asarray(controller, dtype=np.float64)
    if controls.shape[-2:] != (problem.steps, dyn.m):
        raise DimensionError(f"controls must have shape (..., {problem.steps}, {dyn.m}), "
                             f"got {controls.shape}")
    return Trajectory(times, euler_states(problem, controls), controls, dynamics=dyn)


def rollout(problem: ControlProblem, model, theta) -> Trajectory:
    """Euler trajectory of a controller at theta, sampled once with
    forward_batch; a (..., P) theta gives the population's trajectory."""
    return integrate_euler(problem, model.forward_batch(theta, problem.times()[:-1]))


def _per_run(value):
    """A Python float for one run, the array of values for a population."""
    return float(value) if np.ndim(value) == 0 else value


def terminal_loss(traj: Trajectory, x_star):
    """L = 1/2 ||x(T) - x*||^2."""
    d = traj.final_state() - as_vector(x_star, "x_star")
    return _per_run(0.5 * row_dot(d, d))


def control_energy(traj: Trajectory):
    """E = 1/2 dt sum_k ||u_k||^2, the left Riemann sum matching the solver."""
    u = traj.controls
    return _per_run(0.5 * traj.dt * (u * u).sum(axis=(-2, -1)))


def work_functional(traj: Trajectory):
    """W = dt sum_k v_k u_k for the moving-particle system (v is state 2)."""
    if not isinstance(traj.dynamics, MovingParticleDynamics):
        raise ValueError(
            "work_functional is defined for moving-particle trajectories only"
        )
    v = traj.states[..., :-1, 1]
    u = traj.controls[..., :, 0]
    return _per_run(traj.dt * row_dot(v, u))


def mse_times(samples: int, horizon: float) -> np.ndarray:
    """The control-MSE grid t_i = i*T/M, i = 1..M."""
    check_count("samples", samples)
    return np.arange(1, samples + 1) * (float(horizon) / samples)


def sample_control(u, ts: np.ndarray, name: str) -> np.ndarray:
    """(..., M, m) controls on the times ts: a callable t -> control is called
    once per time, and an (M,) or (..., M, m) array is taken as sampled there
    already (leading axes are runs)."""
    if callable(u):
        return np.stack([np.atleast_1d(np.asarray(u(t), dtype=np.float64)) for t in ts])
    u = np.asarray(u, dtype=np.float64)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape[-2] != ts.shape[0]:
        raise DimensionError(f"{name} has {u.shape[-2]} samples, expected {ts.shape[0]}")
    return u


def mse_control(u_hat, u_star, samples: int, horizon: float):
    """Mean squared control mismatch over t_i = i*T/M, i = 1..M (mse_times).

    Each of u_hat and u_star may be a callable t -> control or controls
    already sampled on that grid (see sample_control); a run-major
    (..., M, m) u_hat gives one value per run against the shared u_star.
    """
    ts = mse_times(samples, horizon)
    uh = sample_control(u_hat, ts, "u_hat")
    us = sample_control(u_star, ts, "u_star")
    if us.shape != uh.shape[-2:]:
        raise DimensionError(f"control shapes differ: {uh.shape} vs {us.shape}")
    d = uh - us
    return _per_run(np.sum(d * d, axis=(-2, -1)) / samples)


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
        if not v >= 0.0:
            out.append((k, f"v = {v:.6g} below 0"))
        if k < traj.steps:
            u = traj.controls[k, 0]
            if not (u_range[0] <= u <= u_range[1]):
                out.append((k, f"u = {u:.6g} outside [{u_range[0]}, {u_range[1]}]"))
    return out
