"""Closed-form optimal controls and analytic learning maps.

These are the ground truths the trained networks are judged against: exact
minimum-energy controls for constant, scalar-linear and general linear
steering, the known optimum of the moving-particle work problem, the best
constant control baseline, and the exact steepest-descent maps of the
single-neuron problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import MovingParticleDynamics
from .linalg import as_matrix, as_vector, gramian, mat_exp, solve_spd

# trapezoid panels of the Gramian W(T) over the whole horizon in linear_nd_oc
GRAMIAN_STEPS = 2000


@dataclass(frozen=True)
class OcSolution:
    """Optimal control u*(t), optimal state path x*(t), and the optimal value.

    functional_kind says what `value` is: the control energy
    E = 1/2 int ||u||^2 for the minimum-energy problems, or the mechanical
    work W = int v u dt for the moving-particle problem.
    """

    u_star: Callable[[float], np.ndarray]
    x_star: Callable[[float], np.ndarray]
    value: float
    functional_kind: str = "energy"
    name: str = ""

    @property
    def energy(self) -> float:
        if self.functional_kind != "energy":
            raise ValueError(f"{self.name or 'solution'} stores {self.functional_kind}, not energy")
        return self.value

    @property
    def work(self) -> float:
        if self.functional_kind != "work":
            raise ValueError(f"{self.name or 'solution'} stores {self.functional_kind}, not work")
        return self.value


def constant_oc(x0: float, xstar: float, horizon: float) -> OcSolution:
    """Minimum-energy steering of x' = u: the constant u* = (x* - x0)/T."""
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    u_const = (xstar - x0) / horizon
    energy = (xstar - x0) ** 2 / (2.0 * horizon)

    def u_fn(t: float) -> np.ndarray:
        return np.array([u_const])

    def x_fn(t: float) -> np.ndarray:
        return np.array([x0 + u_const * t])

    return OcSolution(u_fn, x_fn, energy, "energy", "constant_oc")


def scalar_linear_oc(a: float, b: float, x0: float, xstar: float, horizon: float) -> OcSolution:
    """Minimum-energy steering of x' = a x + b u over [0, T].

    u*(t) = a e^{-at} / (b sinh(aT)) * (x* - x0 e^{aT});
    E*    = a (1 - e^{-2aT}) (x* - x0 e^{aT})^2 / (4 sinh^2(aT) b^2).
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if a == 0.0:
        raise ValueError("a = 0 has no sinh normalization; use constant_oc")
    if b == 0.0:
        raise ValueError("b = 0 means the control never enters the flow")
    T = float(horizon)
    gap = xstar - x0 * math.exp(a * T)
    sh = math.sinh(a * T)
    amp = a * gap / (b * sh)
    energy = a * (1.0 - math.exp(-2.0 * a * T)) * gap * gap / (4.0 * sh * sh * b * b)

    def u_fn(t: float) -> np.ndarray:
        return np.array([amp * math.exp(-a * t)])

    def x_fn(t: float) -> np.ndarray:
        return np.array([x0 * math.exp(a * t) + math.sinh(a * t) / sh * gap])

    return OcSolution(u_fn, x_fn, energy, "energy", "scalar_linear_oc")


def linear_nd_oc(a, b, x0, xstar, horizon: float) -> OcSolution:
    """Gramian minimum-energy control for x' = A x + B u.

    u*(t) = B^T e^{A^T (T-t)} W(T)^{-1} v with v = x* - e^{AT} x0 and
    E* = 1/2 v^T W(T)^{-1} v. Uncontrollable or ill-conditioned systems
    surface as the SPD solver's pivot error.
    """
    A = as_matrix(a, "A")
    B = as_matrix(b, "B")
    x0 = as_vector(x0, "x0")
    xs = as_vector(xstar, "xstar")
    T = float(horizon)
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
    W = gramian(A, B, T, GRAMIAN_STEPS)
    v = xs - mat_exp(A, T) @ x0
    z = solve_spd(W, v)
    energy = 0.5 * float(v @ z)

    def u_fn(t: float) -> np.ndarray:
        return B.T @ (mat_exp(A.T, T - t) @ z)

    def x_fn(t: float) -> np.ndarray:
        if t <= 0.0:
            return x0.copy()
        # x*(t) = e^{At} x0 + W(t) e^{A^T (T-t)} z, from substituting u* into
        # the variation-of-constants integral
        steps = max(100, int(round(GRAMIAN_STEPS * t / T)))
        w_t = gramian(A, B, t, steps)
        return mat_exp(A, t) @ x0 + w_t @ (mat_exp(A.T, T - t) @ z)

    return OcSolution(u_fn, x_fn, energy, "energy", "linear_nd_oc")


def moving_particle_oc() -> OcSolution:
    """Known optimum of the work-minimal particle transition.

    For x' = v, v' = -v + u from (0, 1) to (1, 1) in T = 1: u* = 1,
    x*(t) = (t, 1), and the optimal work is W = int_0^1 v u dt = 1.
    """

    def u_fn(t: float) -> np.ndarray:
        return np.array([1.0])

    def x_fn(t: float) -> np.ndarray:
        return np.array([t, 1.0])

    return OcSolution(u_fn, x_fn, 1.0, "work", "moving_particle_oc")


def constant_baseline(a: float, b: float, x0: float, xstar: float, horizon: float) -> tuple[float, float]:
    """Best constant control for x' = a x + b u and its energy.

    The unique c with x(T) = x*: c = (x* - x0 e^{aT}) / (b int_0^T e^{a(T-s)} ds),
    energy 1/2 c^2 T. For a = 0 the integral is just T.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if b == 0.0:
        raise ValueError("b = 0 means the control never enters the flow")
    T = float(horizon)
    if a == 0.0:
        weight = T
    else:
        weight = (math.exp(a * T) - 1.0) / a
    c = (xstar - x0 * math.exp(a * T)) / (b * weight)
    return c, 0.5 * c * c * T


def linear_neuron_map(
    w: float, b: float, eta: float, horizon: float, x0: float, xstar: float
) -> tuple[float, float]:
    """Exact SD step for the linear neuron u(t) = w t + b on x' = u.

    Residual r = w T^2/2 + b T + x0 - x*; the update is
    w' = w - eta (T^2/2) r, b' = b - eta T r. Fixed points form the line
    r = 0, i.e. w = -(2/T^2)(b T + x0 - x*).
    """
    T = horizon
    r = 0.5 * w * T * T + b * T + x0 - xstar
    return w - eta * 0.5 * T * T * r, b - eta * T * r


def relu_neuron_map(
    w: float, b: float, eta: float, horizon: float, x0: float, xstar: float
) -> tuple[float, float]:
    """Exact SD step for u(t) = max(0, w t) + b on x' = u.

    For w >= 0 the relu is active on (0, T] and the map coincides with the
    linear one (the w = 0 tie goes to the active branch, whose loss integral
    it shares). For w < 0 the weight path is flat and only the bias moves:
    b' = b - eta T (b T + x0 - x*), attracting b to (x* - x0)/T.
    """
    if w >= 0.0:
        return linear_neuron_map(w, b, eta, horizon, x0, xstar)
    T = horizon
    return w, b - eta * T * (b * T + x0 - xstar)


def baseline_energy_recursion(c: float, eta: float) -> tuple[float, float]:
    """One SD step of the constant control on x' = x + u, x0=0, x*=T=1.

    Returns (c', energy increment) with the printed first-order increment
    dE = -eta c (e-1) [c (e-1) - 1]; the bracket is also dL/dc up to the
    (e-1) factor, so the same residual drives both series.
    """
    em1 = math.e - 1.0
    r = c * em1 - 1.0
    c_next = c - eta * em1 * r
    d_energy = -eta * c * em1 * r
    return c_next, d_energy


def oc_for_problem(problem) -> OcSolution:
    """Closed-form optimal control matching a ControlProblem's dynamics.

    Scalar linear systems route to the a = 0 / a != 0 formulas, the particle
    system to its work-optimal solution, and everything else to the Gramian
    construction.
    """
    dyn = problem.dynamics
    if isinstance(dyn, MovingParticleDynamics):
        return moving_particle_oc()
    if dyn.n == 1 and dyn.m == 1:
        a = float(dyn.A[0, 0])
        b = float(dyn.B[0, 0])
        if b == 0.0:
            raise ValueError("b must be nonzero: x' = a x is not controllable")
        x0 = float(problem.x0[0])
        xs = float(problem.x_star[0])
        if a == 0.0:
            if b != 1.0:
                sol = constant_oc(x0 / b, xs / b, problem.T)
                # x' = b u reduces to the integrator in scaled coordinates
                u_fn = sol.u_star
                return OcSolution(
                    u_fn,
                    lambda t: b * sol.x_star(t),
                    sol.value,
                    "energy",
                    "constant_oc",
                )
            return constant_oc(x0, xs, problem.T)
        return scalar_linear_oc(a, b, x0, xs, problem.T)
    return linear_nd_oc(dyn.A, dyn.B, problem.x0, problem.x_star, problem.T)
