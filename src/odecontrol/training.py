"""Epoch-budgeted training of controller networks.

One epoch = one gradient evaluation (full BPTT or a single truncated index)
followed by one optimizer step. The loop records per-epoch diagnostics and
keeps the parameters with the lowest recorded loss, never just the final
iterate. With a fixed seed every run is bit-reproducible: the only random
draw is the truncation index of the random TBPTT schedule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ControlProblem, DivergenceError, Trajectory, control_energy
from .gradients import GradResult, LossSpec, bptt_grad, tbptt_grad
from .linalg import SeededRng, check_count


def check_eta(eta: float) -> None:
    """Raise a ValueError unless eta is a positive step size."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")


@dataclass(frozen=True)
class Sd:
    """Plain steepest descent with rate eta."""

    eta: float

    def __post_init__(self):
        check_eta(self.eta)


@dataclass(frozen=True)
class Adam:
    """Adam with bias correction; state starts at zero."""

    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        check_eta(self.eta)
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")


def sd_step(theta: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    return theta - eta * grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(n: int) -> "AdamState":
        return AdamState(np.zeros(n), np.zeros(n), 0)


def adam_step(
    state: AdamState, theta: np.ndarray, grad: np.ndarray, cfg: Adam
) -> tuple[AdamState, np.ndarray]:
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (grad * grad)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    theta_new = theta - cfg.eta * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return AdamState(m, v, t), theta_new


@dataclass(frozen=True)
class Protocol:
    """How gradients are produced: full bptt, or tbptt with a schedule.

    For tbptt the truncation index at epoch n is n mod K (cyclic, default)
    or uniform on [0, K) (random). epsilon in the truncated rule is
    identified with the solver step dt.
    """

    kind: str = "bptt"
    variant: str = "propagated"
    schedule: str = "cyclic"

    def __post_init__(self):
        if self.kind not in ("bptt", "tbptt"):
            raise ValueError(f"unknown protocol {self.kind!r}")
        if self.variant not in ("frozen", "propagated"):
            raise ValueError(f"unknown tbptt variant {self.variant!r}")
        if self.schedule not in ("cyclic", "random"):
            raise ValueError(f"unknown tbptt schedule {self.schedule!r}")


_HISTORY_COLUMNS = (
    "epoch",
    "loss",
    "energy",
    "grad_norm",
    "delta_u_direct",
    "delta_u_pred",
    "e_dot_l",
    "cos_angle",
)


@dataclass
class TrainHistory:
    """Per-epoch series; disabled recorders leave NaN which the CSV writes
    as empty fields."""

    epochs: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    delta_u_direct: list = field(default_factory=list)
    delta_u_pred: list = field(default_factory=list)
    e_dot_l: list = field(default_factory=list)
    cos_angle: list = field(default_factory=list)

    def append(self, epoch, loss, energy, grad_norm, ddu=math.nan, ddu_pred=math.nan,
               e_dot_l=math.nan, cos_angle=math.nan):
        self.epochs.append(int(epoch))
        self.loss.append(float(loss))
        self.energy.append(float(energy))
        self.grad_norm.append(float(grad_norm))
        self.delta_u_direct.append(float(ddu))
        self.delta_u_pred.append(float(ddu_pred))
        self.e_dot_l.append(float(e_dot_l))
        self.cos_angle.append(float(cos_angle))

    def __len__(self) -> int:
        return len(self.epochs)

    def to_csv(self, path_or_file) -> None:
        own = isinstance(path_or_file, (str, bytes))
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            writer = csv.writer(fh)
            writer.writerow(_HISTORY_COLUMNS)
            for i in range(len(self.epochs)):
                row = [self.epochs[i]]
                for series in (
                    self.loss,
                    self.energy,
                    self.grad_norm,
                    self.delta_u_direct,
                    self.delta_u_pred,
                    self.e_dot_l,
                    self.cos_angle,
                ):
                    v = series[i]
                    row.append("" if math.isnan(v) else repr(float(v)))
                writer.writerow(row)
        finally:
            if own:
                fh.close()


@dataclass
class TrainResult:
    history: TrainHistory
    theta_best: np.ndarray
    loss_best: float
    best_epoch: int
    theta_final: np.ndarray
    # the trajectory the loop computed at theta_best (epoch 0's until the loss
    # first improves); None only when epoch 0 diverged
    trajectory_best: Trajectory | None
    diverged: bool = False
    diverged_at: int | None = None  # epoch whose gradient pass diverged
    diverged_step: int | None = None  # integrator step at which it did


def delta_u_weighted(model, theta_prev, theta_next, a: float, horizon: float,
                     steps: int) -> float:
    """Exponentially weighted control change int_0^T (u_next - u_prev) e^{-at} dt.

    Left Riemann sum on `steps` panels, matching the solver convention.
    Scalar controls only.
    """
    ts = np.arange(steps) * (horizon / steps)
    w = np.exp(-a * ts)
    du = model.forward_batch(theta_next, ts)[:, 0] - model.forward_batch(theta_prev, ts)[:, 0]
    return float((horizon / steps) * (w @ du))


def _scalar_linear_coeffs(problem: ControlProblem):
    """(a, b) of a 1-D linear flow, or None if the problem is not one."""
    dyn = problem.dynamics
    if dyn.A.shape != (1, 1) or dyn.B.shape != (1, 1):
        return None
    return float(dyn.A[0, 0]), float(dyn.B[0, 0])


def _energy_grad(problem: ControlProblem, model, theta, traj) -> np.ndarray:
    """Gradient of E = 1/2 dt sum ||u_k||^2 in parameter space: one batched
    pullback of dt * U."""
    return model.vjp(theta, traj.times[:-1], problem.dt * traj.controls)


def train(
    problem: ControlProblem,
    model,
    theta0,
    optimizer,
    epochs: int,
    protocol: Protocol = Protocol(),
    loss: LossSpec = LossSpec(),
    seed: int = 0,
    record_delta_u: bool = False,
    record_energy_identity: bool = False,
) -> TrainResult:
    """Train a controller for a fixed number of epochs.

    The recorded loss at epoch n is the objective at theta_n, before the
    update; theta_best is the iterate with the lowest recorded loss. The
    delta-u recorder needs a scalar linear flow (it integrates against
    e^{-at}); its steepest-descent prediction column stays NaN under Adam,
    where the step is not -eta * grad. Truncated gradients cover the
    terminal loss only, so tbptt with an integrated cost is rejected.
    """
    check_count("epochs", epochs)
    if protocol.kind == "tbptt" and loss.integrated is not None:
        raise ValueError(
            f"tbptt gradients cover the terminal loss only; cannot train the "
            f"{loss.integrated} cost"
        )
    if not isinstance(optimizer, (Sd, Adam)):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    theta = np.asarray(theta0, dtype=np.float64).copy()
    rng = SeededRng(seed)
    history = TrainHistory()
    adam_state = AdamState.zeros(theta.shape[0]) if isinstance(optimizer, Adam) else None

    coeffs = _scalar_linear_coeffs(problem)
    if record_delta_u and coeffs is None:
        raise ValueError("delta-u recorder needs a scalar linear-flow problem")

    theta_best = theta.copy()
    traj_best = None
    loss_best = math.inf
    best_epoch = -1
    diverged = False
    diverged_at = diverged_step = None

    for epoch in range(epochs):
        if protocol.kind == "tbptt" and protocol.schedule == "random":
            k_index = rng.integers(0, problem.steps)
        else:
            k_index = epoch % problem.steps
        try:
            # overflow on a diverging iterate is routine; the integrator
            # raises DivergenceError on non-finite states
            with np.errstate(over="ignore", invalid="ignore"):
                if protocol.kind == "bptt":
                    res: GradResult = bptt_grad(problem, model, theta, loss)
                else:
                    res = tbptt_grad(problem, model, theta, k_index, protocol.variant)
        except DivergenceError as err:
            diverged = True
            diverged_at = epoch
            diverged_step = err.step
            # the offending iterate is not recorded; history holds epochs 0..n-1
            break

        grad = res.grad
        loss_n = res.loss
        with np.errstate(over="ignore", invalid="ignore"):
            energy_n = control_energy(res.trajectory)
            gnorm = float(np.sqrt(grad @ grad))

        if loss_n < loss_best or epoch == 0:
            # until the loss first improves, theta_best is epoch 0's theta0
            traj_best = res.trajectory
        if loss_n < loss_best:
            loss_best = loss_n
            theta_best = theta.copy()
            best_epoch = epoch

        e_dot_l = math.nan
        cos_angle = math.nan
        if record_energy_identity:
            e_grad = _energy_grad(problem, model, theta, res.trajectory)
            e_dot_l = float(e_grad @ grad)
            denom = float(np.sqrt(e_grad @ e_grad)) * gnorm
            cos_angle = e_dot_l / denom if denom > 0.0 else math.nan

        # same guard as the gradient pass: the step itself can overflow on an
        # iterate that is about to be flagged by the integrator
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(optimizer, Sd):
                theta_next = sd_step(theta, grad, optimizer.eta)
            else:
                adam_state, theta_next = adam_step(adam_state, theta, grad, optimizer)

        ddu = math.nan
        ddu_pred = math.nan
        if record_delta_u:
            a, b = coeffs
            ddu = delta_u_weighted(model, theta, theta_next, a, problem.T, problem.steps)
            if isinstance(optimizer, Sd):
                dtheta = theta_next - theta
                dl_dxt = float(res.trajectory.final_state()[0] - problem.x_star[0])
                if dl_dxt != 0.0:
                    ddu_pred = (
                        -(1.0 / optimizer.eta)
                        * (1.0 / b)
                        * math.exp(-a * problem.T)
                        * float(dtheta @ dtheta)
                        / dl_dxt
                    )

        history.append(epoch, loss_n, energy_n, gnorm, ddu, ddu_pred, e_dot_l, cos_angle)
        theta = theta_next

    return TrainResult(
        history=history,
        theta_best=theta_best,
        loss_best=loss_best,
        best_epoch=best_epoch,
        theta_final=theta,
        trajectory_best=traj_best,
        diverged=diverged,
        diverged_at=diverged_at,
        diverged_step=diverged_step,
    )


def energy_identity_residual(history: TrainHistory, eta: float, n: int) -> float:
    """r_n = E^(n+1) - E^(n) + eta * <grad E, grad L> at epoch n (SD runs).

    The inner product is the recorded e_dot_l; needs the energy-identity
    recorder to have been on and epoch n+1 to exist.
    """
    if n + 1 >= len(history):
        raise IndexError(f"epoch {n + 1} not recorded")
    e_dot_l = history.e_dot_l[n]
    if math.isnan(e_dot_l):
        raise ValueError("energy-identity recorder was not enabled")
    return history.energy[n + 1] - history.energy[n] + eta * e_dot_l
