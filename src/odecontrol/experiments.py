"""Figure-level studies built on the training loop: initialization phase
diagrams, depth/width sweeps, backprop-protocol comparison, work-multiplier
sweeps, and the depth scan on the particle benchmark.

Every sweep cell gets its own deterministic seed derived from the base seed
and the cell coordinates, so any cell can be rerun standalone and match the
grid bit for bit. Every trained run is scored one way, by best_metrics on
its best model; a run that diverged in epoch 0 has no best model and scores
NaN with its diverged flag set. Experiments return plain result objects
whose CSV text comes from csv_text and whose manifests are plain dicts;
file layout is the caller's business. Grids that may run in a process pool
go through pool.map_cells.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from .dynamics import (
    ControlProblem,
    LinearDynamics,
    MovingParticleDynamics,
    control_energy,
    integrator,
    mse_control,
    mse_times,
    scalar_linear,
    terminal_loss,
    work_functional,
)
from .gradients import LossSpec, reset_vjp_count, vjp_count
from .linalg import SeededRng, check_count, check_positive
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
from .pool import map_cells
from .training import Adam, Protocol, Sd, TrainResult, train, train_runs


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


def best_metrics(problem: ControlProblem, model, res: TrainResult, u_star=None) -> dict:
    """Scores of a run's best model: the terminal loss, energy, mean_u and
    var_u of res.trajectory_best, its work on the moving particle, and, when
    u_star is given, the control MSE of the model at res.theta_best on the
    problem's time grid. u_star is called once on that (K,) grid and returns
    its (K, m) controls, as an oracle's u_star does.

    With no best model (epoch 0 diverged) every score is NaN. diverged is
    set then, when the run diverged, or when a score is not finite.
    """
    traj = res.trajectory_best
    scores = {
        "loss": lambda: terminal_loss(traj, problem.x_star),
        "energy": lambda: control_energy(traj),
        "mean_u": lambda: float(np.mean(traj.controls.ravel())),
        "var_u": lambda: float(np.var(traj.controls.ravel())),
    }
    if isinstance(problem.dynamics, MovingParticleDynamics):
        scores["work"] = lambda: work_functional(traj)
    if u_star is not None:
        ts = mse_times(problem.steps, problem.T)
        scores["mse_u"] = lambda: mse_control(model.forward_batch(res.theta_best, ts),
                                              u_star(ts), problem.steps, problem.T)
    out = {name: float("nan") if traj is None else score() for name, score in scores.items()}
    out["diverged"] = bool(res.diverged or not all(np.isfinite(v) for v in out.values()))
    return out


def csv_text(header, rows) -> str:
    """CSV text of a header and rows: floats (np.float64 included) written as
    repr(float(v)), flags as 0/1, anything else by str."""
    def text(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)] + [",".join(map(text, row)) for row in rows]
    return "\n".join(lines) + "\n"


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

    def manifest(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "count": self.count}


@dataclass(frozen=True)
class GridSpec:
    """A 2-D parameter grid: x varies along rows of the result, y along columns."""

    x: Axis
    y: Axis


PHASE_GRID = GridSpec(Axis("w0", -2.0, 2.0, 41), Axis("b0", -2.0, 2.0, 41))


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
    steps: int  # simulator steps per run; read by train_adam only
    mse: np.ndarray  # shape (grid.x.count, grid.y.count)

    def to_csv(self) -> str:
        ws, bs = np.meshgrid(self.grid.x.values(), self.grid.y.values(), indexing="ij")
        return csv_text((self.grid.x.name, self.grid.y.name, "mse"),
                        zip(ws.ravel(), bs.ravel(), self.mse.ravel()))

    def manifest(self) -> dict:
        doc = {
            "experiment": "phase_diagram",
            "kind": self.kind,
            "grid": {"x": {"name": self.grid.x.name, **self.grid.x.manifest()},
                     "y": {"name": self.grid.y.name, **self.grid.y.manifest()}},
            "eta": self.eta,
            "epochs": self.epochs,
            "horizon": self.horizon,
            "x0": self.x0,
            "xstar": self.xstar,
            "method": self.method,
        }
        if self.method == "train_adam":
            doc["steps"] = self.steps
        return doc


def _phase_mse(kind: str, w: float, b: float, bstar: float) -> float:
    """Parameter-space MSE to the optimum; for relu, to the attractor set."""
    if kind == "relu":
        return 0.5 * (max(w, 0.0) ** 2 + (b - bstar) ** 2)
    return 0.5 * (w ** 2 + (b - bstar) ** 2)


def _map_final(kind: str, starts, eta: float, epochs: int, horizon: float, x0: float,
               xstar: float) -> list[tuple[float, float]]:
    """Iterate the exact gradient-descent map of the single neuron `epochs`
    times from each (w0, b0) start; returns each final (w, b)."""
    step = linear_neuron_map if kind == "linear" else relu_neuron_map
    finals = []
    for w, b in starts:
        for _ in range(epochs):
            w, b = step(w, b, eta, horizon, x0, xstar)
        finals.append((w, b))
    return finals


def _phase_train(kind: str, thetas: np.ndarray, eta: float, epochs: int, horizon: float,
                 x0: float, xstar: float, steps: int,
                 optimizer: str = "adam") -> list[tuple[float, float]]:
    """Train single neurons from the (w0, b0) rows of thetas through the
    simulator, as one population; returns each run's final (w, b)."""
    act = RELU if kind == "relu" else Activation("linear")
    problem = ControlProblem(integrator(), [x0], [xstar], horizon, steps)
    opt = Adam(eta) if optimizer == "adam" else Sd(eta)
    runs = train_runs(problem, SingleNeuron(act), thetas, opt, epochs)
    return [(float(res.theta_final[0]), float(res.theta_final[1])) for res in runs]


def phase_diagram(
    kind: str,
    grid: GridSpec = PHASE_GRID,
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
    check_positive("eta", eta)
    check_count("epochs", epochs)
    check_positive("horizon", horizon)
    bstar = (xstar - x0) / horizon
    # cells row-major over (w0, b0)
    starts = np.stack(np.meshgrid(grid.x.values(), grid.y.values(), indexing="ij"),
                      axis=-1).reshape(-1, 2)
    if method == "map":
        finals = _map_final(kind, starts.tolist(), eta, epochs, horizon, x0, xstar)
    else:
        finals = _phase_train(kind, starts, eta, epochs, horizon, x0, xstar, steps)
    out = np.array([_phase_mse(kind, w, b, bstar) for w, b in finals])
    out = out.reshape(grid.x.count, grid.y.count)
    return PhaseResult(kind, grid, eta, epochs, horizon, x0, xstar, method, steps, out)


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
    check_positive("horizon", horizon)
    rng = SeededRng(seed)
    bstar = (xstar - x0) / horizon
    starts = [(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
              for _ in range(n_cells)]
    finals = _phase_train(kind, np.reshape(starts, (-1, 2)), eta, epochs, horizon, x0,
                          xstar, steps, optimizer=optimizer)
    rows = []
    for (w0, b0), (w, b) in zip(starts, finals):
        if kind == "relu" and w <= 0.0:
            dist = abs(b - bstar)
        else:
            # fixed line of the gradient flow: T^2/2 w + T b + x0 - x* = 0
            r = 0.5 * horizon ** 2 * w + horizon * b + x0 - xstar
            dist = abs(r) / np.hypot(0.5 * horizon ** 2, horizon)
        rows.append({"w0": w0, "b0": b0, "w": w, "b": b, "attractor_dist": float(dist)})
    if optimizer == "sd":
        for row, (wm, bm) in zip(rows, _map_final(kind, starts, eta, epochs, horizon, x0, xstar)):
            row["map_w"], row["map_b"] = wm, bm
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

    def check(self) -> None:
        """Reject a grid in which some cell would have an empty hidden layer."""
        for L in self.layers:
            check_count("layers", L)
            if min(self.max_neurons) // L < 1:
                raise ValueError(
                    f"{L} layers with {min(self.max_neurons)} max neurons yields an empty layer"
                )


SWEEP_PRESETS = {
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
    if name not in SWEEP_PRESETS:
        raise ValueError(f"unknown sweep preset {name!r}; have {sorted(SWEEP_PRESETS)}")
    p = SWEEP_PRESETS[name]
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
    m = best_metrics(cfg.problem, model, res)
    return SweepCellResult(layers, max_neurons, width, seed, m["energy"], m["loss"],
                           m["mean_u"], m["var_u"], len(res.history.loss), m["diverged"])


def _grid_cell(cfg: SweepConfig, cell: tuple[int, int, int]) -> SweepCellResult:
    """run_sweep_cell on one (layers, max_neurons, seed) item of map_cells."""
    return run_sweep_cell(cfg, *cell)


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[SweepCellResult, ...]  # row-major over (layers, max_neurons)
    blas_threads: dict  # see pool.map_cells

    def cell(self, layers: int, max_neurons: int) -> SweepCellResult:
        i = self.config.layers.index(layers)
        j = self.config.max_neurons.index(max_neurons)
        return self.cells[i * len(self.config.max_neurons) + j]

    def column(self, layers: int) -> list[SweepCellResult]:
        return [c for c in self.cells if c.layers == layers]

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(SweepCellResult)], map(astuple, self.cells))

    def manifest(self) -> dict:
        cfg = self.config
        return {
            "experiment": "depth_width_sweep",
            "preset": cfg.name,
            "problem": problem_manifest(cfg.problem),
            "activation": {"name": cfg.activation.kind,
                           "slope": cfg.activation.slope,
                           "alpha": cfg.activation.alpha},
            "use_bias": cfg.use_bias,
            "epochs": cfg.epochs,
            "optimizer": {"name": "adam", "eta": cfg.optimizer.eta},
            "layers": list(cfg.layers),
            "max_neurons": list(cfg.max_neurons),
            "init": _init_manifest(cfg.init),
            "base_seed": cfg.base_seed,
            "cell_seeds": [
                [cell_seed(cfg.base_seed, i, j) for j in range(len(cfg.max_neurons))]
                for i in range(len(cfg.layers))
            ],
            "blas_threads": self.blas_threads,
        }


def depth_width_sweep(cfg: SweepConfig, workers: int = 1) -> SweepResult:
    """Train every (layers, max_neurons) cell of the grid.

    Cells are independent; workers > 1 runs them in a process pool whose
    workers run BLAS on one thread (see pool.map_cells). Results are stored
    row-major over (layers, max_neurons) regardless of completion order. A
    diverged cell is flagged and the sweep continues.
    """
    cfg.check()
    coords = [(L, N, cell_seed(cfg.base_seed, i, j))
              for i, L in enumerate(cfg.layers)
              for j, N in enumerate(cfg.max_neurons)]
    cells, threads = map_cells(partial(_grid_cell, cfg), coords, workers)
    return SweepResult(config=cfg, cells=tuple(cells), blas_threads=threads)


def _init_manifest(init: InitScheme) -> dict:
    return {"kind": init.kind, "bound_rule": init.bound_rule, "scale": init.scale,
            "bias_value": init.bias_value}


def problem_manifest(problem: ControlProblem) -> dict:
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
    problem: ControlProblem
    hidden: tuple[int, ...]
    epochs: int
    eta_bptt: float
    eta_tbptt: float
    seed: int
    timing_epochs: int
    bptt: TrainResult
    tbptt: TrainResult
    bptt_vjps_per_epoch: float
    tbptt_vjps_per_epoch: float
    bptt_seconds_per_epoch: float
    tbptt_seconds_per_epoch: float
    bptt_energy: float  # of the best model; NaN if epoch 0 diverged
    tbptt_energy: float
    energy_star: float

    @property
    def bptt_loss(self) -> float:
        return self.bptt.loss_best

    @property
    def tbptt_loss(self) -> float:
        return self.tbptt.loss_best

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

    def manifest(self) -> dict:
        return {
            **self.summary(),
            "hidden": list(self.hidden),
            "epochs": self.epochs,
            "eta_bptt": self.eta_bptt,
            "eta_tbptt": self.eta_tbptt,
            "seed": self.seed,
            "timing_epochs": self.timing_epochs,
            "steps": self.problem.steps,
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
    # every argument is checked before the first run starts
    opt_b, opt_t = Adam(eta_bptt), Adam(eta_tbptt)
    check_count("epochs", epochs)
    check_count("timing_epochs", timing_epochs)
    theta0 = init_params(model, InitScheme.uniform(), SeededRng(seed))
    tbptt = Protocol("tbptt", "propagated", "random")

    reset_vjp_count()
    res_b = train(problem, model, theta0, opt_b, epochs)
    vjps_b = vjp_count() / epochs
    reset_vjp_count()
    res_t = train(problem, model, theta0, opt_t, epochs, protocol=tbptt, seed=seed)
    vjps_t = vjp_count() / epochs

    t0 = time.perf_counter()
    train(problem, model, theta0, opt_b, timing_epochs)
    sec_b = (time.perf_counter() - t0) / timing_epochs
    t0 = time.perf_counter()
    train(problem, model, theta0, opt_t, timing_epochs, protocol=tbptt, seed=seed)
    sec_t = (time.perf_counter() - t0) / timing_epochs

    dyn = problem.dynamics
    estar = linear_nd_oc(dyn.A, dyn.B, problem.x0, problem.x_star,
                         problem.T).energy
    return ProtocolComparison(
        problem=problem,
        hidden=tuple(hidden),
        epochs=epochs,
        eta_bptt=eta_bptt,
        eta_tbptt=eta_tbptt,
        seed=seed,
        timing_epochs=timing_epochs,
        bptt=res_b,
        tbptt=res_t,
        bptt_vjps_per_epoch=vjps_b,
        tbptt_vjps_per_epoch=vjps_t,
        bptt_seconds_per_epoch=sec_b,
        tbptt_seconds_per_epoch=sec_t,
        bptt_energy=best_metrics(problem, model, res_b)["energy"],
        tbptt_energy=best_metrics(problem, model, res_t)["energy"],
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
    steps: int

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(MuSweepPoint)], map(astuple, self.points))

    def manifest(self) -> dict:
        return {
            "experiment": "mu_sweep",
            "mus": [p.mu for p in self.points],
            "seed": self.seed,
            "epochs": self.epochs,
            "steps": self.steps,
            "optimizer": {"name": "adam", "eta": self.eta},
            "net": {"hidden": list(MU_SWEEP_NET.hidden),
                    "activation": MU_SWEEP_NET.activation.kind},
            "init": _init_manifest(MU_SWEEP_INIT),
        }


DEFAULT_MUS = (1e-4, 3e-4, 1e-3, 2e-3, 3e-3, 1e-2, 3e-2, 1e-1)
MU_SWEEP_NET = MlpSpec((6,) * 8, activation=elu(), out_dim=1)
MU_SWEEP_INIT = InitScheme.uniform(scale=float(np.sqrt(6.0)), bias_value=1e-2)


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
    if 0.0 not in mus:
        mus = (0.0,) + mus
    # every argument is checked before the first run starts
    losses = [LossSpec.terminal() if mu == 0.0 else LossSpec.work(mu) for mu in mus]
    opt = Adam(eta)
    check_count("epochs", epochs)
    problem = particle_problem(steps)
    model = MU_SWEEP_NET
    theta0 = init_params(model, MU_SWEEP_INIT, SeededRng(seed))
    points = []
    for mu, loss_spec in zip(mus, losses):
        res = train(problem, model, theta0, opt, epochs, loss=loss_spec)
        m = best_metrics(problem, model, res)
        points.append(MuSweepPoint(mu, m["loss"], m["work"], m["energy"], m["diverged"]))
    return MuSweepResult(tuple(points), seed=seed, epochs=epochs, eta=eta, steps=steps)


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
            m = best_metrics(problem, model, res, sol.u_star)
            out.append(ScanPoint(depth, act.kind, m["loss"], m["mse_u"], m["diverged"]))
    return out


def scan_to_csv(points: list[ScanPoint]) -> str:
    return csv_text([f.name for f in fields(ScanPoint)], map(astuple, points))
