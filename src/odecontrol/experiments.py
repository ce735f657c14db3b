"""Figure-level studies built on the training loop: initialization phase
diagrams, depth/width sweeps, backprop-protocol comparison, work-multiplier
sweeps, and the depth scan on the particle benchmark.

Every sweep cell gets its own deterministic seed derived from the base seed
and the cell coordinates, so any cell can be rerun standalone and match the
grid bit for bit. Experiments return plain result objects with to_csv /
manifest helpers; file layout is the caller's business.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ControlProblem,
    LinearDynamics,
    MovingParticleDynamics,
    Trajectory,
    control_energy,
    integrator,
    mse_control,
    rollout,
    scalar_linear,
    terminal_loss,
    work_functional,
)
from .gradients import LossSpec, reset_vjp_count, vjp_count
from .linalg import SeededRng
from .nets import (
    RELU,
    TANH,
    Activation,
    InitScheme,
    MlpSpec,
    SingleNeuron,
    elu,
    init_params,
    leaky_relu,
)
from .oracles import linear_nd_oc, linear_neuron_map, moving_particle_oc, relu_neuron_map
from .training import Adam, Protocol, Sd, TrainResult, train


def constant_problem(steps: int = 100) -> ControlProblem:
    """Scalar x' = u, x0 = 0 -> x* = -1 over T = 1; the optimum is u = -1."""
    return ControlProblem(integrator(), [0.0], [-1.0], 1.0, steps)


def time_dependent_problem(steps: int = 100) -> ControlProblem:
    """Scalar x' = x + u, x0 = 0 -> x* = 1; the optimum decays like e^-t."""
    return ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, steps)


def flow2d_problem(steps: int = 100) -> ControlProblem:
    """2-D flow with A = [[1,0],[1,0]], control on the first coordinate only."""
    dyn = LinearDynamics([[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]])
    return ControlProblem(dyn, [0.5, 0.5], [1.0, -1.0], 1.0, steps)


def particle_problem(steps: int = 100) -> ControlProblem:
    """Moving particle: steer (position, velocity) from (0, 1) to (1, 1)."""
    return ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0], 1.0, steps)


def cell_seed(base_seed: int, i: int, j: int = 0) -> int:
    """Deterministic seed for grid cell (i, j) under base_seed."""
    h = (int(base_seed) + 1) * 2654435761 + (i + 1) * 40503 + (j + 1) * 69069
    return int(h % 2147483647)


@dataclass(frozen=True)
class Axis:
    """One linearly spaced grid axis."""

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"axis {self.name!r} needs count >= 2, got {self.count}")
        if not self.hi > self.lo:
            raise ValueError(f"axis {self.name!r} needs hi > lo")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    """A 2-D parameter grid: x varies along rows of the result, y along columns."""

    x: Axis
    y: Axis


# -- single-neuron initialization phase diagrams ------------------------------


@dataclass(frozen=True)
class PhaseResult:
    kind: str
    grid: GridSpec
    eta: float
    epochs: int
    horizon: float
    x0: float
    xstar: float
    method: str
    mse: np.ndarray  # shape (grid.x.count, grid.y.count)

    def to_csv(self) -> str:
        ws, bs = self.grid.x.values(), self.grid.y.values()
        lines = [f"{self.grid.x.name},{self.grid.y.name},mse"]
        for i, w in enumerate(ws):
            for j, b in enumerate(bs):
                lines.append(f"{float(w)!r},{float(b)!r},{float(self.mse[i, j])!r}")
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {
            "experiment": "phase_diagram",
            "kind": self.kind,
            "grid": {
                "x": {"name": self.grid.x.name, "lo": self.grid.x.lo,
                      "hi": self.grid.x.hi, "count": self.grid.x.count},
                "y": {"name": self.grid.y.name, "lo": self.grid.y.lo,
                      "hi": self.grid.y.hi, "count": self.grid.y.count},
            },
            "eta": self.eta,
            "epochs": self.epochs,
            "horizon": self.horizon,
            "x0": self.x0,
            "xstar": self.xstar,
            "method": self.method,
        }


def _phase_mse(kind: str, w: float, b: float, bstar: float) -> float:
    """Parameter-space MSE to the optimum; for relu, to the attractor set."""
    if kind == "relu":
        return 0.5 * (max(w, 0.0) ** 2 + (b - bstar) ** 2)
    return 0.5 * (w ** 2 + (b - bstar) ** 2)


def _phase_cell_train(kind: str, w0: float, b0: float, eta: float, epochs: int,
                      horizon: float, x0: float, xstar: float, steps: int,
                      optimizer: str = "adam") -> tuple[float, float]:
    """Train a single neuron through the simulator; returns final (w, b)."""
    act = RELU if kind == "relu" else Activation("linear")
    model = SingleNeuron(act)
    problem = ControlProblem(integrator(), [x0], [xstar], horizon, steps)
    opt = Adam(eta) if optimizer == "adam" else Sd(eta)
    res = train(problem, model, np.array([w0, b0]), opt, epochs)
    return float(res.theta_final[0]), float(res.theta_final[1])


def phase_diagram(
    kind: str,
    grid: GridSpec | None = None,
    eta: float = 0.1,
    epochs: int = 300,
    horizon: float = 1.0,
    x0: float = 0.0,
    xstar: float = -1.0,
    method: str = "map",
    steps: int = 100,
) -> PhaseResult:
    """Per-cell deviation of the trained single neuron from optimal control.

    kind "linear" measures MSE to (w*, b*) = (0, (x* - x0)/T); kind "relu"
    measures squared distance to the attractor set {w <= 0, b = b*}. method
    "map" iterates the exact gradient-descent maps; "train_adam" trains each
    cell through the simulator with Adam (the figure settings).
    """
    if kind not in ("linear", "relu"):
        raise ValueError(f"kind must be 'linear' or 'relu', got {kind!r}")
    if method not in ("map", "train_adam"):
        raise ValueError(f"method must be 'map' or 'train_adam', got {method!r}")
    if grid is None:
        grid = GridSpec(Axis("w0", -2.0, 2.0, 41), Axis("b0", -2.0, 2.0, 41))
    bstar = (xstar - x0) / horizon
    ws, bs = grid.x.values(), grid.y.values()
    out = np.empty((grid.x.count, grid.y.count))
    for i, w0 in enumerate(ws):
        for j, b0 in enumerate(bs):
            if method == "map":
                w, b = float(w0), float(b0)
                step = linear_neuron_map if kind == "linear" else relu_neuron_map
                for _ in range(epochs):
                    w, b = step(w, b, eta, horizon, x0, xstar)
            else:
                w, b = _phase_cell_train(kind, float(w0), float(b0), eta, epochs,
                                         horizon, x0, xstar, steps)
            out[i, j] = _phase_mse(kind, w, b, bstar)
    return PhaseResult(kind, grid, eta, epochs, horizon, x0, xstar, method, out)


def phase_spot_check(
    kind: str,
    n_cells: int = 10,
    eta: float = 0.1,
    epochs: int = 2000,
    horizon: float = 1.0,
    x0: float = 0.0,
    xstar: float = -1.0,
    steps: int = 2000,
    seed: int = 0,
    optimizer: str = "adam",
) -> list[dict]:
    """Train random cells through the simulator and compare against theory.

    Each entry reports the trained (w, b), its distance to the attractor set,
    and, for optimizer 'sd', the endpoint of the analytic map from the same
    start (the two follow the same flow up to O(1/steps) discretization).
    """
    rng = SeededRng(seed)
    bstar = (xstar - x0) / horizon
    rows = []
    for _ in range(n_cells):
        w0 = float(rng.uniform(-2.0, 2.0))
        b0 = float(rng.uniform(-2.0, 2.0))
        w, b = _phase_cell_train(kind, w0, b0, eta, epochs, horizon, x0, xstar,
                                 steps, optimizer=optimizer)
        if kind == "relu" and w <= 0.0:
            dist = abs(b - bstar)
        else:
            # fixed line of the gradient flow: T^2/2 w + T b + x0 - x* = 0
            r = 0.5 * horizon ** 2 * w + horizon * b + x0 - xstar
            dist = abs(r) / np.hypot(0.5 * horizon ** 2, horizon)
        row = {"w0": w0, "b0": b0, "w": w, "b": b, "attractor_dist": float(dist)}
        if optimizer == "sd":
            wm, bm = w0, b0
            step = linear_neuron_map if kind == "linear" else relu_neuron_map
            for _ in range(epochs):
                wm, bm = step(wm, bm, eta, horizon, x0, xstar)
            row["map_w"], row["map_b"] = wm, bm
        rows.append(row)
    return rows


# -- depth / width sweeps -----------------------------------------------------


@dataclass(frozen=True)
class SweepCellResult:
    """Metrics of one trained cell, evaluated on its best model."""

    layers: int
    max_neurons: int
    width: int
    seed: int
    energy: float
    loss: float
    mean_u: float
    var_u: float
    epochs_run: int
    diverged: bool = False


@dataclass(frozen=True)
class SweepConfig:
    problem: ControlProblem
    activation: Activation
    use_bias: bool
    epochs: int
    optimizer: Adam
    layers: tuple[int, ...]
    max_neurons: tuple[int, ...]
    init: InitScheme
    base_seed: int = 0
    name: str = "custom"


_SWEEP_PRESETS = {
    "constant": dict(
        problem=constant_problem,
        activation=TANH,
        use_bias=False,
        epochs=100,
        optimizer=Adam(1e-3),
        layers=tuple(range(1, 10)),
        max_neurons=tuple(110 * k for k in range(1, 11)),
    ),
    "time_dependent": dict(
        problem=time_dependent_problem,
        activation=elu(),
        use_bias=True,
        epochs=500,
        optimizer=Adam(3e-3),
        layers=tuple(range(1, 10)),
        max_neurons=tuple(9 * k for k in range(1, 11)),
    ),
    "flow2d": dict(
        problem=flow2d_problem,
        activation=leaky_relu(),
        use_bias=True,
        epochs=500,
        optimizer=Adam(3e-3),
        layers=tuple(range(1, 10)),
        max_neurons=tuple(9 * k for k in range(1, 11)),
    ),
}


def sweep_preset(
    name: str,
    layers: tuple[int, ...] | None = None,
    max_neurons: tuple[int, ...] | None = None,
    epochs: int | None = None,
    base_seed: int = 0,
    steps: int = 100,
) -> SweepConfig:
    """Named depth/width sweep setups; axes and epochs can be overridden."""
    if name not in _SWEEP_PRESETS:
        raise ValueError(f"unknown sweep preset {name!r}; have {sorted(_SWEEP_PRESETS)}")
    p = _SWEEP_PRESETS[name]
    return SweepConfig(
        problem=p["problem"](steps),
        activation=p["activation"],
        use_bias=p["use_bias"],
        epochs=p["epochs"] if epochs is None else int(epochs),
        optimizer=p["optimizer"],
        layers=p["layers"] if layers is None else tuple(int(v) for v in layers),
        max_neurons=p["max_neurons"] if max_neurons is None
        else tuple(int(v) for v in max_neurons),
        init=InitScheme.uniform(),
        base_seed=base_seed,
        name=name,
    )


def run_sweep_cell(cfg: SweepConfig, layers: int, max_neurons: int, seed: int) -> SweepCellResult:
    """Train one (layers, max_neurons) cell; standalone calls match the grid."""
    width = max_neurons // layers
    if width < 1:
        raise ValueError(
            f"cell ({layers}, {max_neurons}) yields width {width}; need >= 1"
        )
    model = MlpSpec(
        (width,) * layers,
        activation=cfg.activation,
        out_dim=cfg.problem.dynamics.m,
        use_bias=cfg.use_bias,
    )
    theta0 = init_params(model, cfg.init, SeededRng(seed))
    res = train(cfg.problem, model, theta0, cfg.optimizer, cfg.epochs)
    traj = rollout(cfg.problem, model, res.theta_best)
    u = traj.controls.ravel()
    energy = control_energy(traj)
    loss = terminal_loss(traj, cfg.problem.x_star)
    mean_u = float(np.mean(u))
    var_u = float(np.var(u))
    finite = all(np.isfinite(v) for v in (energy, loss, mean_u, var_u))
    return SweepCellResult(
        layers=layers,
        max_neurons=max_neurons,
        width=width,
        seed=seed,
        energy=energy,
        loss=loss,
        mean_u=mean_u,
        var_u=var_u,
        epochs_run=len(res.history.loss),
        diverged=res.diverged or not finite,
    )


def _sweep_cell_args(args) -> SweepCellResult:
    return run_sweep_cell(*args)


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[SweepCellResult, ...]  # row-major over (layers, max_neurons)

    def cell(self, layers: int, max_neurons: int) -> SweepCellResult:
        i = self.config.layers.index(layers)
        j = self.config.max_neurons.index(max_neurons)
        return self.cells[i * len(self.config.max_neurons) + j]

    def column(self, layers: int) -> list[SweepCellResult]:
        return [c for c in self.cells if c.layers == layers]

    def to_csv(self) -> str:
        lines = ["layers,max_neurons,width,seed,energy,loss,mean_u,var_u,epochs_run,diverged"]
        for c in self.cells:
            lines.append(
                f"{c.layers},{c.max_neurons},{c.width},{c.seed},{c.energy!r},"
                f"{c.loss!r},{c.mean_u!r},{c.var_u!r},{c.epochs_run},{int(c.diverged)}"
            )
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        cfg = self.config
        return {
            "experiment": "depth_width_sweep",
            "preset": cfg.name,
            "problem": _problem_manifest(cfg.problem),
            "activation": {"name": cfg.activation.kind,
                           "slope": cfg.activation.slope,
                           "alpha": cfg.activation.alpha},
            "use_bias": cfg.use_bias,
            "epochs": cfg.epochs,
            "optimizer": {"name": "adam", "eta": cfg.optimizer.eta},
            "layers": list(cfg.layers),
            "max_neurons": list(cfg.max_neurons),
            "init": {"kind": cfg.init.kind, "bound_rule": cfg.init.bound_rule,
                     "scale": cfg.init.scale, "bias_value": cfg.init.bias_value},
            "base_seed": cfg.base_seed,
            "cell_seeds": [
                [cell_seed(cfg.base_seed, i, j) for j in range(len(cfg.max_neurons))]
                for i in range(len(cfg.layers))
            ],
        }


def depth_width_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Train every (layers, max_neurons) cell of the grid.

    Cells are independent; workers > 1 runs them in a process pool. Results
    are stored row-major over (layers, max_neurons) regardless of completion
    order. A diverged cell is flagged and the sweep continues.
    """
    for L in cfg.layers:
        if min(cfg.max_neurons) // L < 1:
            raise ValueError(
                f"{L} layers with {min(cfg.max_neurons)} max neurons yields an empty layer"
            )
    tasks = [
        (cfg, L, N, cell_seed(cfg.base_seed, i, j))
        for i, L in enumerate(cfg.layers)
        for j, N in enumerate(cfg.max_neurons)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_sweep_cell_args, tasks, chunksize=1))
    else:
        cells = [_sweep_cell_args(t) for t in tasks]
    return SweepResult(config=cfg, cells=tuple(cells))


def _problem_manifest(problem: ControlProblem) -> dict:
    dyn = problem.dynamics
    return {
        "dynamics": dyn.name,
        "x0": list(np.asarray(problem.x0, dtype=float)),
        "x_star": list(np.asarray(problem.x_star, dtype=float)),
        "horizon": problem.T,
        "steps": problem.steps,
        "a": dyn.A.tolist(),
        "b": dyn.B.tolist(),
    }


# -- backprop protocol comparison ---------------------------------------------


@dataclass(frozen=True)
class ProtocolComparison:
    bptt: TrainResult
    tbptt: TrainResult
    bptt_trajectory: Trajectory
    tbptt_trajectory: Trajectory
    bptt_vjps_per_epoch: float
    tbptt_vjps_per_epoch: float
    bptt_seconds_per_epoch: float
    tbptt_seconds_per_epoch: float
    energy_star: float

    @property
    def bptt_loss(self) -> float:
        return self.bptt.loss_best

    @property
    def tbptt_loss(self) -> float:
        return self.tbptt.loss_best

    @property
    def bptt_energy(self) -> float:
        return control_energy(self.bptt_trajectory)

    @property
    def tbptt_energy(self) -> float:
        return control_energy(self.tbptt_trajectory)

    def summary(self) -> dict:
        return {
            "experiment": "protocol_comparison",
            "bptt": {"loss": self.bptt_loss, "energy": self.bptt_energy,
                     "vjps_per_epoch": self.bptt_vjps_per_epoch,
                     "seconds_per_epoch": self.bptt_seconds_per_epoch},
            "tbptt": {"loss": self.tbptt_loss, "energy": self.tbptt_energy,
                      "vjps_per_epoch": self.tbptt_vjps_per_epoch,
                      "seconds_per_epoch": self.tbptt_seconds_per_epoch},
            "energy_star": self.energy_star,
        }


def protocol_comparison(
    problem: ControlProblem | None = None,
    hidden: tuple[int, ...] = (14, 14),
    epochs: int = 1000,
    eta_bptt: float = 3e-3,
    eta_tbptt: float = 5e-3,
    seed: int = 0,
    timing_epochs: int = 200,
) -> ProtocolComparison:
    """Full-gradient vs truncated training on the 2-D benchmark.

    The truncated run draws a fresh evaluation step each epoch (the cyclic
    schedule stalls on this problem). vjp counts come from the module counter;
    the wall-clock figure is a separate short timing run per protocol.
    """
    if problem is None:
        problem = flow2d_problem()
    model = MlpSpec(hidden, activation=elu(), out_dim=problem.dynamics.m)
    theta0 = init_params(model, InitScheme.uniform(), SeededRng(seed))
    tbptt = Protocol("tbptt", "propagated", "random")

    reset_vjp_count()
    res_b = train(problem, model, theta0, Adam(eta_bptt), epochs)
    vjps_b = vjp_count() / epochs
    reset_vjp_count()
    res_t = train(problem, model, theta0, Adam(eta_tbptt), epochs,
                  protocol=tbptt, seed=seed)
    vjps_t = vjp_count() / epochs

    t0 = time.perf_counter()
    train(problem, model, theta0, Adam(eta_bptt), timing_epochs)
    sec_b = (time.perf_counter() - t0) / timing_epochs
    t0 = time.perf_counter()
    train(problem, model, theta0, Adam(eta_tbptt), timing_epochs,
          protocol=tbptt, seed=seed)
    sec_t = (time.perf_counter() - t0) / timing_epochs

    traj_b = rollout(problem, model, res_b.theta_best)
    traj_t = rollout(problem, model, res_t.theta_best)
    dyn = problem.dynamics
    estar = linear_nd_oc(dyn.A, dyn.B, problem.x0, problem.x_star,
                         problem.T).energy
    return ProtocolComparison(
        bptt=res_b,
        tbptt=res_t,
        bptt_trajectory=traj_b,
        tbptt_trajectory=traj_t,
        bptt_vjps_per_epoch=vjps_b,
        tbptt_vjps_per_epoch=vjps_t,
        bptt_seconds_per_epoch=sec_b,
        tbptt_seconds_per_epoch=sec_t,
        energy_star=estar,
    )


# -- work-multiplier sweep on the moving particle -----------------------------


@dataclass(frozen=True)
class MuSweepPoint:
    mu: float
    loss: float
    work: float
    energy: float
    diverged: bool = False


@dataclass(frozen=True)
class MuSweepResult:
    points: tuple[MuSweepPoint, ...]
    seed: int
    epochs: int
    eta: float

    def to_csv(self) -> str:
        lines = ["mu,loss,work,energy,diverged"]
        for p in self.points:
            lines.append(f"{p.mu!r},{p.loss!r},{p.work!r},{p.energy!r},{int(p.diverged)}")
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {
            "experiment": "mu_sweep",
            "mus": [p.mu for p in self.points],
            "seed": self.seed,
            "epochs": self.epochs,
            "optimizer": {"name": "adam", "eta": self.eta},
            "net": {"hidden": [6] * 8, "activation": "elu"},
            "init": {"kind": "uniform", "bound_rule": "inv_sqrt_k",
                     "scale": float(np.sqrt(6.0)), "bias_value": 1e-2},
        }


DEFAULT_MUS = (1e-4, 3e-4, 1e-3, 2e-3, 3e-3, 1e-2, 3e-2, 1e-1)


def mu_sweep(
    mus: tuple[float, ...] = DEFAULT_MUS,
    epochs: int = 100,
    eta: float = 0.1,
    seed: int = 0,
    steps: int = 100,
) -> MuSweepResult:
    """Train the particle benchmark once per work multiplier.

    mu = 0 (the unregularized reference) is prepended when absent. Each run
    uses the same Kaiming-uniform weights over 1e-2 biases and reports its
    best model's terminal loss, work, and energy.
    """
    mus = tuple(float(m) for m in mus)
    if not all(m >= 0.0 for m in mus):
        raise ValueError("work multipliers must be >= 0")
    if 0.0 not in mus:
        mus = (0.0,) + mus
    problem = particle_problem(steps)
    model = MlpSpec((6,) * 8, activation=elu(), out_dim=1)
    init = InitScheme.uniform(scale=float(np.sqrt(6.0)), bias_value=1e-2)
    theta0 = init_params(model, init, SeededRng(seed))
    points = []
    for mu in mus:
        loss_spec = LossSpec.terminal() if mu == 0.0 else LossSpec.work(mu)
        res = train(problem, model, theta0, Adam(eta), epochs, loss=loss_spec)
        traj = rollout(problem, model, res.theta_best)
        loss = terminal_loss(traj, problem.x_star)
        w = work_functional(traj)
        e = control_energy(traj)
        finite = all(np.isfinite(v) for v in (loss, w, e))
        points.append(MuSweepPoint(mu, loss, w, e, diverged=res.diverged or not finite))
    return MuSweepResult(tuple(points), seed=seed, epochs=epochs, eta=eta)


# -- depth scan on the moving particle ----------------------------------------


@dataclass(frozen=True)
class ScanPoint:
    depth: int
    activation: str
    loss: float
    mse_u: float
    diverged: bool = False


def architecture_scan(
    depths: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    activations: tuple[Activation, ...] = (elu(), RELU),
    width: int = 6,
    epochs: int = 100,
    eta: float = 0.5e-2,
    steps: int = 100,
) -> list[ScanPoint]:
    """Loss and control MSE of the particle benchmark across network depths.

    All parameters start at the constant 1e-2, so runs are seedless. The MSE
    compares the best model's control against the known constant optimum at
    the timestep grid.
    """
    problem = particle_problem(steps)
    sol = moving_particle_oc()
    out = []
    for act in activations:
        for depth in depths:
            model = MlpSpec((width,) * depth, activation=act, out_dim=1)
            theta0 = init_params(model, InitScheme.constant(1e-2))
            res = train(problem, model, theta0, Adam(eta), epochs)
            traj = rollout(problem, model, res.theta_best)
            loss = terminal_loss(traj, problem.x_star)
            # the grid mse_control samples: t_i = i*T/M, i = 1..M
            ts = np.arange(1, steps + 1) * (problem.T / steps)
            mse = mse_control(model.forward_batch(res.theta_best, ts),
                              sol.u_star, steps, problem.T)
            finite = np.isfinite(loss) and np.isfinite(mse)
            out.append(ScanPoint(depth, act.kind, loss, mse,
                                 diverged=res.diverged or not finite))
    return out


def scan_to_csv(points: list[ScanPoint]) -> str:
    lines = ["depth,activation,loss,mse_u,diverged"]
    for p in points:
        lines.append(f"{p.depth},{p.activation},{p.loss!r},{p.mse_u!r},{int(p.diverged)}")
    return "\n".join(lines) + "\n"
