"""Epoch-budgeted training of controller networks.

One epoch = one gradient evaluation (full BPTT or a single truncated index)
followed by one optimizer step. The loop records per-epoch diagnostics and
keeps the parameters with the lowest recorded loss, never just the final
iterate. With a fixed seed every run is bit-reproducible: the only random
draw is the truncation index of the random TBPTT schedule. train_runs runs
the loop over a population of runs, each bit-equal to its own train call;
train is the one-run case.

Nothing here raises on divergence: a diverged run's states come back
non-finite in its own row, and the loop stops that run and goes on with the
others' rows of the same pass, so every epoch is one gradient call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ControlProblem, Trajectory, control_energy, first_nonfinite
from .gradients import LossSpec, bptt_grad, tbptt_grad
from .linalg import DimensionError, SeededRng, check_count, check_positive, row_dot


@dataclass(frozen=True)
class Sd:
    """Plain steepest descent with rate eta."""

    eta: float

    def __post_init__(self):
        check_positive("eta", self.eta)


@dataclass(frozen=True)
class Adam:
    """Adam with bias correction; state starts at zero."""

    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        check_positive("eta", self.eta)
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        check_positive("eps", self.eps)


def sd_step(theta: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    return theta - eta * grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(shape) -> "AdamState":
        return AdamState(np.zeros(shape), np.zeros(shape), 0)


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
                     steps: int):
    """Exponentially weighted control change int_0^T (u_next - u_prev) e^{-at} dt.

    Left Riemann sum on `steps` panels, matching the solver convention.
    Scalar controls only. (..., P) thetas give one value per run, each its
    own 1-D call's bits (see row_dot).
    """
    ts = np.arange(steps) * (horizon / steps)
    w = np.exp(-a * ts)
    du = (model.forward_batch(theta_next, ts) - model.forward_batch(theta_prev, ts))[..., 0]
    return (horizon / steps) * row_dot(du, w)


def _scalar_linear_coeffs(problem: ControlProblem):
    """(a, b) of a 1-D linear flow, or None if the problem is not one."""
    dyn = problem.dynamics
    if dyn.A.shape != (1, 1) or dyn.B.shape != (1, 1):
        return None
    return float(dyn.A[0, 0]), float(dyn.B[0, 0])


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
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.ndim != 1:
        raise DimensionError(f"theta0 must be 1-D, got shape {theta0.shape}; "
                             f"train_runs trains a population")
    return train_runs(problem, model, theta0[None], optimizer, epochs, protocol, loss,
                      seed, record_delta_u, record_energy_identity)[0]


def train_runs(
    problem: ControlProblem,
    model,
    thetas,
    optimizer,
    epochs: int,
    protocol: Protocol = Protocol(),
    loss: LossSpec = LossSpec(),
    seed: int = 0,
    record_delta_u: bool = False,
    record_energy_identity: bool = False,
) -> list[TrainResult]:
    """Train one run per row of an (R, P) thetas as one array program.

    Result r equals train(problem, model, thetas[r], ...) bit for bit: each
    run keeps its own history, best theta and best trajectory, and a run
    whose gradient pass diverges freezes with the diverged_at and
    diverged_step it would get alone while the others go on. The gradient
    layers always see the live runs' (R, P) rows, and every per-run product
    and reduction there is one BLAS call per run with the arguments of a
    single run's call, the recorders' included. All runs share the
    optimizer, loss, protocol and seed (so a tbptt population shares its
    truncation indices).
    """
    check_count("epochs", epochs)
    if protocol.kind == "tbptt" and loss.integrated is not None:
        raise ValueError(
            f"tbptt gradients cover the terminal loss only; cannot train the "
            f"{loss.integrated} cost"
        )
    if not isinstance(optimizer, (Sd, Adam)):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if not isinstance(loss, LossSpec):
        raise ValueError(f"loss must be one LossSpec, got {loss!r}")
    thetas = np.array(thetas, dtype=np.float64)
    if thetas.ndim != 2:
        raise DimensionError(f"thetas must have shape (runs, P), got {thetas.shape}")
    runs = thetas.shape[0]
    coeffs = _scalar_linear_coeffs(problem)
    if record_delta_u and coeffs is None:
        raise ValueError("delta-u recorder needs a scalar linear-flow problem")
    rng = SeededRng(seed)
    dyn = problem.dynamics
    k_steps = problem.steps

    # rows of the arrays below are the live runs, whose ids are `live`; a run
    # leaves them when it diverges and its row is copied into `final`, the
    # run-indexed record of best loss, best epoch, theta_best, the best
    # trajectory's states and controls, and theta_final
    live = np.arange(runs)
    theta = thetas
    adam_state = AdamState.zeros(theta.shape) if isinstance(optimizer, Adam) else None
    best = [np.full(runs, math.inf), np.full(runs, -1), thetas.copy(),
            np.empty((runs, k_steps + 1, dyn.n)), np.empty((runs, k_steps, dyn.m))]
    final = [a.copy() for a in best] + [thetas.copy()]
    columns = np.full((epochs, runs, len(_HISTORY_COLUMNS) - 1), math.nan)
    diverged_at = np.full(runs, -1)
    diverged_step = np.full(runs, -1)

    # overflow on a diverging iterate is routine: its loss, states, gradient
    # and step come back non-finite in its own row (loss_n holds one value
    # per live run), and none of it warns
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            if protocol.kind == "tbptt" and protocol.schedule == "random":
                k_index = rng.integers(0, problem.steps)
            else:
                k_index = epoch % problem.steps
            if protocol.kind == "bptt":
                grad, loss_n, traj = bptt_grad(problem, model, theta, loss)
            else:
                grad, loss_n, traj = tbptt_grad(problem, model, theta, k_index,
                                                protocol.variant)
            # x0 is finite and a non-finite state stays non-finite in every
            # later Euler step, so a run diverged exactly when its x_K is not
            # finite
            bad = ~np.isfinite(traj.states[:, -1]).all(axis=-1)
            if bad.any():
                # the diverged runs stop at this iterate, which is not recorded
                # (their history holds epochs 0..n-1); the others go on with
                # their rows of this pass
                diverged_at[live[bad]] = epoch
                diverged_step[live[bad]] = first_nonfinite(traj.states[bad])
                for done, row in zip(final, best + [theta]):
                    done[live[bad]] = row[bad]
                live, theta = live[~bad], theta[~bad]
                best = [row[~bad] for row in best]
                if not live.size:
                    break
                if adam_state is not None:
                    adam_state = AdamState(adam_state.m[~bad], adam_state.v[~bad], adam_state.t)
                grad, loss_n = grad[~bad], loss_n[~bad]
                traj = Trajectory(traj.times, traj.states[~bad], traj.controls[~bad], dynamics=dyn)

            loss_best, best_epoch, theta_best, best_states, best_controls = best
            if epoch == 0:
                # until the loss first improves, the best trajectory is epoch 0's
                best_states[...], best_controls[...] = traj.states, traj.controls
            improved = loss_n < loss_best
            np.copyto(loss_best, loss_n, where=improved)
            np.copyto(best_epoch, epoch, where=improved)
            np.copyto(theta_best, theta, where=improved[:, None])
            np.copyto(best_states, traj.states, where=improved[:, None, None])
            np.copyto(best_controls, traj.controls, where=improved[:, None, None])

            # the step itself can overflow on an iterate whose next pass diverges
            energy_n = control_energy(traj)
            gnorm = np.sqrt(row_dot(grad, grad))
            if isinstance(optimizer, Sd):
                theta_next = sd_step(theta, grad, optimizer.eta)
            else:
                adam_state, theta_next = adam_step(adam_state, theta, grad, optimizer)

            row = columns[epoch]
            # a slice while every run is live
            rows = slice(None) if live.size == runs else live
            row[rows, 0], row[rows, 1], row[rows, 2] = loss_n, energy_n, gnorm
            # each recorder value is its run's scalar formula in the same order,
            # on the live rows; np.where computes both branches
            if record_delta_u:
                a, b = coeffs
                row[rows, 3] = delta_u_weighted(model, theta, theta_next, a, problem.T,
                                                problem.steps)
                if isinstance(optimizer, Sd):
                    dtheta = theta_next - theta
                    dl_dxt = traj.final_state()[:, 0] - problem.x_star[0]
                    pred = (-(1.0 / optimizer.eta) * (1.0 / b) * math.exp(-a * problem.T)
                            * row_dot(dtheta, dtheta) / dl_dxt)
                    row[rows, 4] = np.where(dl_dxt != 0.0, pred, math.nan)
            if record_energy_identity:
                # grad E = one batched pullback of dt * U
                e_grad = model.vjp(theta, traj.times[:-1], problem.dt * traj.controls)
                e_dot_l = row_dot(e_grad, grad)
                denom = np.sqrt(row_dot(e_grad, e_grad)) * gnorm
                row[rows, 5] = e_dot_l
                row[rows, 6] = np.where(denom > 0.0, e_dot_l / denom, math.nan)
            theta = theta_next
    for done, row in zip(final, best + [theta]):
        done[live] = row

    loss_best, best_epoch, theta_best, best_states, best_controls, theta_final = final
    times = problem.times()
    out = []
    for r in range(runs):
        diverged = bool(diverged_at[r] >= 0)
        recorded = int(diverged_at[r]) if diverged else epochs
        out.append(TrainResult(
            history=TrainHistory(list(range(recorded)),
                                 *columns[:recorded, r].T.tolist()),
            theta_best=theta_best[r],
            loss_best=float(loss_best[r]),
            best_epoch=int(best_epoch[r]),
            theta_final=theta_final[r],
            trajectory_best=None if diverged_at[r] == 0 else
            Trajectory(times, best_states[r], best_controls[r], dynamics=dyn),
            diverged=diverged,
            diverged_at=int(diverged_at[r]) if diverged else None,
            diverged_step=int(diverged_step[r]) if diverged else None,
        ))
    return out


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
