"""JSON run configurations for the command-line tools.

Configs are parsed strictly: every section is consumed key by key and any
leftover key raises a ConfigError naming its dotted path, so typos fail
before any computation starts; numbers must be finite. A key is read only
where it changes the run (network.bias for an mlp, training.mu for an
integrated cost, ...), so set elsewhere it is a leftover key too. Parsing
returns plain config dataclasses; build_* helpers turn them into live
problem / model / optimizer objects and report a value the library rejects
as a ConfigError naming the section. The flat experiment configs run the
library's checks on their values while parsing.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from .dynamics import ControlProblem, LinearDynamics, integrator, scalar_linear
from .experiments import SWEEP_PRESETS, flow2d_problem, particle_problem
from .gradients import LossSpec
from .linalg import check_count
from .nets import (
    ConstantControl,
    InitScheme,
    MlpSpec,
    SingleNeuron,
    activation_from_config,
)
from .training import Adam, Protocol, Sd, check_eta


class ConfigError(ValueError):
    """Invalid configuration; path is the dotted location of the offense."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@contextmanager
def section(path: str):
    """Report a ValueError the library raises inside the block as a
    ConfigError at path."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _check(path: str, check, *args) -> None:
    """Run a library check on parsed values, so that a value the library
    would reject fails at parse time, before any run starts."""
    with section(path):
        check(*args)


_MISSING = object()


def _take(d: dict, key: str, path: str, default=_MISSING):
    if key in d:
        return d.pop(key)
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}" if path else key, "required field is missing")
    return default


def _done(d: dict, path: str):
    if d:
        keys = ", ".join(sorted(d))
        where = path if path else "top level"
        raise ConfigError(where, f"unknown keys: {keys}")


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return dict(value)


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int beyond float range
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _float_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a non-empty list of numbers, got {value!r}")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _vector(value, path: str) -> tuple[float, ...]:
    """A state vector: a bare number is promoted to a length-1 vector."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (_as_float(value, path),)
    return _float_list(value, path)


def _matrix(value, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a non-empty list of rows, got {value!r}")
    return tuple(_float_list(row, f"{path}[{i}]") for i, row in enumerate(value))


def _int_list(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a non-empty list of integers, got {value!r}")
    return tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(value))


# -- sections -----------------------------------------------------------------

_PROBLEM_KINDS = ("integrator", "scalar_linear", "linear", "flow2d", "particle")
_BENCHMARKS = {"flow2d": flow2d_problem, "particle": particle_problem}


@dataclass(frozen=True)
class ProblemConfig:
    kind: str
    a: object = None  # scalar for scalar_linear, nested lists for linear
    b: object = None
    x0: tuple[float, ...] = (0.0,)
    x_star: tuple[float, ...] = (1.0,)
    horizon: float = 1.0
    steps: int = 100


def parse_problem(raw: dict, path: str = "problem") -> ProblemConfig:
    d = _as_dict(raw, path)
    kind = _as_str(_take(d, "kind", path), f"{path}.kind", _PROBLEM_KINDS)
    a = b = None
    if kind == "scalar_linear":
        a = _as_float(_take(d, "a", path), f"{path}.a")
        b = _as_float(_take(d, "b", path), f"{path}.b")
    elif kind == "linear":
        a = _matrix(_take(d, "a", path), f"{path}.a")
        b = _matrix(_take(d, "b", path), f"{path}.b")
    if kind in _BENCHMARKS:
        bench = _BENCHMARKS[kind]()
        dx0, dxs = bench.x0.tolist(), bench.x_star.tolist()
    else:
        dx0, dxs = (None, None) if kind == "linear" else ([0.0], [1.0])
    x0_raw = _take(d, "x0", path, dx0)
    xs_raw = _take(d, "x_star", path, dxs)
    if x0_raw is None or xs_raw is None:
        raise ConfigError(path, "linear problems need explicit x0 and x_star")
    x0 = _vector(x0_raw, f"{path}.x0")
    xs = _vector(xs_raw, f"{path}.x_star")
    horizon = _as_float(_take(d, "horizon", path, 1.0), f"{path}.horizon")
    steps = _as_int(_take(d, "steps", path, 100), f"{path}.steps")
    _done(d, path)
    return ProblemConfig(kind, a, b, x0, xs, horizon, steps)


def build_problem(cfg: ProblemConfig) -> ControlProblem:
    with section("problem"):
        if cfg.kind == "integrator":
            dyn = integrator()
        elif cfg.kind == "scalar_linear":
            dyn = scalar_linear(cfg.a, cfg.b)
        elif cfg.kind == "linear":
            dyn = LinearDynamics(cfg.a, cfg.b)
        else:
            dyn = _BENCHMARKS[cfg.kind]().dynamics
        return ControlProblem(dyn, list(cfg.x0), list(cfg.x_star), cfg.horizon, cfg.steps)


@dataclass(frozen=True)
class NetworkConfig:
    kind: str = "mlp"  # mlp | single_neuron | constant
    hidden: tuple[int, ...] = (6, 6)
    activation: object = "elu"  # None for a constant control
    use_bias: bool = True
    init: InitScheme = InitScheme.constant(0.1)


def parse_init(raw, path: str) -> InitScheme:
    d = _as_dict(raw, path)
    kind = _as_str(_take(d, "kind", path), f"{path}.kind", ("constant", "uniform"))
    if kind == "constant":
        value = _as_float(_take(d, "value", path, 0.0), f"{path}.value")
        bias_raw = _take(d, "bias_value", path, None)
        bias = None if bias_raw is None else _as_float(bias_raw, f"{path}.bias_value")
        _done(d, path)
        scheme = InitScheme("constant", value=value, bias_value=bias)
    else:
        rule = _as_str(
            _take(d, "bound_rule", path, "inv_sqrt_k"),
            f"{path}.bound_rule",
            ("inv_sqrt_k", "sqrt_k"),
        )
        scale = _as_float(_take(d, "scale", path, 1.0), f"{path}.scale")
        bias_raw = _take(d, "bias_value", path, None)
        bias = None if bias_raw is None else _as_float(bias_raw, f"{path}.bias_value")
        _done(d, path)
        scheme = InitScheme.uniform(bound_rule=rule, scale=scale, bias_value=bias)
    return scheme


def parse_network(raw: dict, path: str = "network") -> NetworkConfig:
    d = _as_dict(raw, path)
    kind = _as_str(
        _take(d, "kind", path, "mlp"), f"{path}.kind", ("mlp", "single_neuron", "constant")
    )
    # hidden and bias shape an mlp only, and a constant control has no activation
    hidden, activation, use_bias = (), None, True
    if kind == "mlp":
        hidden = _int_list(_take(d, "hidden", path), f"{path}.hidden")
        use_bias = _as_bool(_take(d, "bias", path, True), f"{path}.bias")
    if kind != "constant":
        act_raw = _take(d, "activation", path, "elu" if kind == "mlp" else "linear")
        with section(f"{path}.activation"):
            activation = activation_from_config(act_raw)
    init_raw = _take(d, "init", path, {"kind": "constant", "value": 0.1})
    init = parse_init(init_raw, f"{path}.init")
    _done(d, path)
    return NetworkConfig(kind, hidden, activation, use_bias, init)


def build_model(cfg: NetworkConfig, out_dim: int = 1):
    if cfg.kind == "single_neuron":
        if out_dim != 1:
            raise ConfigError("network.kind", "single_neuron drives scalar controls only")
        return SingleNeuron(cfg.activation)
    if cfg.kind == "constant":
        return ConstantControl(out_dim=out_dim)
    with section("network"):
        return MlpSpec(cfg.hidden, activation=cfg.activation, out_dim=out_dim,
                       use_bias=cfg.use_bias)


@dataclass(frozen=True)
class TrainingConfig:
    optimizer: str = "adam"
    eta: float = 1e-2
    epochs: int = 100
    seed: int = 0
    protocol: Protocol = Protocol()
    cost: str = "terminal"  # terminal | energy | work
    mu: float = 0.0
    record_delta_u: bool = False
    record_energy_identity: bool = False


def parse_training(raw: dict, path: str = "training") -> TrainingConfig:
    d = _as_dict(raw, path)
    optimizer = _as_str(_take(d, "optimizer", path, "adam"), f"{path}.optimizer",
                        ("adam", "sd"))
    eta = _as_float(_take(d, "eta", path, 1e-2), f"{path}.eta")
    epochs = _as_int(_take(d, "epochs", path, 100), f"{path}.epochs")
    seed = _as_int(_take(d, "seed", path, 0), f"{path}.seed")
    proto_raw = _take(d, "protocol", path, "bptt")
    pp = f"{path}.protocol"
    proto_d = {"kind": proto_raw} if isinstance(proto_raw, str) else _as_dict(proto_raw, pp)
    pk = _as_str(_take(proto_d, "kind", pp, "bptt"), f"{pp}.kind", ("bptt", "tbptt"))
    protocol = Protocol(pk)
    if pk == "tbptt":  # variant and schedule shape a truncated gradient only
        variant = _as_str(_take(proto_d, "variant", pp, "propagated"), f"{pp}.variant",
                          ("frozen", "propagated"))
        schedule = _as_str(_take(proto_d, "schedule", pp, "cyclic"), f"{pp}.schedule",
                           ("cyclic", "random"))
        protocol = Protocol(pk, variant, schedule)
    _done(proto_d, pp)
    cost = _as_str(_take(d, "cost", path, "terminal"), f"{path}.cost",
                   ("terminal", "energy", "work"))
    mu = 0.0
    if cost != "terminal":  # mu weighs an integrated cost
        mu = _as_float(_take(d, "mu", path, 0.0), f"{path}.mu")
    rec_du = _as_bool(_take(d, "record_delta_u", path, False), f"{path}.record_delta_u")
    rec_ei = _as_bool(_take(d, "record_energy_identity", path, False),
                      f"{path}.record_energy_identity")
    _done(d, path)
    return TrainingConfig(optimizer, eta, epochs, seed, protocol, cost, mu,
                          rec_du, rec_ei)


def build_optimizer(cfg: TrainingConfig):
    with section("training"):
        return Adam(cfg.eta) if cfg.optimizer == "adam" else Sd(cfg.eta)


def build_loss(cfg: TrainingConfig) -> LossSpec:
    with section("training"):
        if cfg.cost == "terminal":
            return LossSpec.terminal()
        if cfg.cost == "energy":
            return LossSpec.energy(cfg.mu)
        return LossSpec.work(cfg.mu)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    plot: bool = False


def parse_output(raw: dict, path: str = "output") -> OutputConfig:
    d = _as_dict(raw, path)
    directory = _as_str(_take(d, "directory", path, "out"), f"{path}.directory")
    plot = _as_bool(_take(d, "plot", path, False), f"{path}.plot")
    _done(d, path)
    return OutputConfig(directory, plot)


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    network: NetworkConfig
    training: TrainingConfig
    output: OutputConfig = field(default_factory=OutputConfig)
    raw: dict = field(default_factory=dict, compare=False)


def parse_run_config(doc: dict) -> RunConfig:
    d = _as_dict(doc, "")
    problem = parse_problem(_take(d, "problem", ""), "problem")
    network = parse_network(_take(d, "network", ""), "network")
    training = parse_training(_take(d, "training", "", {}), "training")
    output = parse_output(_take(d, "output", "", {}), "output")
    _done(d, "")
    return RunConfig(problem, network, training, output, raw=dict(doc))


def load_json(path: str) -> dict:
    """Read a JSON config file; syntax errors carry line/column positions."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            path, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(path, "config root must be a JSON object")
    return doc


# -- experiment-command configs -------------------------------------------------


def _axis_triple(raw, path: str, default_lo: float, default_hi: float,
                 default_count: int) -> tuple[float, float, int]:
    d = _as_dict(raw, path)
    lo = _as_float(_take(d, "lo", path, default_lo), f"{path}.lo")
    hi = _as_float(_take(d, "hi", path, default_hi), f"{path}.hi")
    count = _as_int(_take(d, "count", path, default_count), f"{path}.count")
    _done(d, path)
    return lo, hi, count


@dataclass(frozen=True)
class PhaseConfig:
    kind: str = "linear"
    w0: tuple[float, float, int] = (-2.0, 2.0, 41)
    b0: tuple[float, float, int] = (-2.0, 2.0, 41)
    eta: float = 0.1
    epochs: int = 300
    horizon: float = 1.0
    x0: float = 0.0
    x_star: float = -1.0
    method: str = "map"
    steps: int = 100
    plot: bool = False


def parse_phase_config(doc: dict) -> PhaseConfig:
    d = _as_dict(doc, "")
    kind = _as_str(_take(d, "kind", "", "linear"), "kind", ("linear", "relu"))
    w0 = _axis_triple(_take(d, "w0", "", {}), "w0", -2.0, 2.0, 41)
    b0 = _axis_triple(_take(d, "b0", "", {}), "b0", -2.0, 2.0, 41)
    eta = _as_float(_take(d, "eta", "", 0.1), "eta")
    _check("eta", check_eta, eta)
    epochs = _as_int(_take(d, "epochs", "", 300), "epochs")
    _check("epochs", check_count, "epochs", epochs)
    horizon = _as_float(_take(d, "horizon", "", 1.0), "horizon")
    x0 = _as_float(_take(d, "x0", "", 0.0), "x0")
    x_star = _as_float(_take(d, "x_star", "", -1.0), "x_star")
    method = _as_str(_take(d, "method", "", "map"), "method", ("map", "train_adam"))
    steps = PhaseConfig.steps
    if method == "train_adam":  # the map method never runs the simulator
        steps = _as_int(_take(d, "steps", "", steps), "steps")
        _check("steps", check_count, "steps", steps)
    plot = _as_bool(_take(d, "plot", "", False), "plot")
    _done(d, "")
    return PhaseConfig(kind, w0, b0, eta, epochs, horizon, x0, x_star, method,
                       steps, plot)


@dataclass(frozen=True)
class SweepCliConfig:
    preset: str
    layers: tuple[int, ...] | None = None
    max_neurons: tuple[int, ...] | None = None
    epochs: int | None = None
    base_seed: int = 0
    steps: int = 100
    plot: bool = False


def parse_sweep_config(doc: dict) -> SweepCliConfig:
    d = _as_dict(doc, "")
    preset = _as_str(_take(d, "preset", ""), "preset", tuple(SWEEP_PRESETS))
    layers_raw = _take(d, "layers", "", None)
    layers = None if layers_raw is None else _int_list(layers_raw, "layers")
    maxn_raw = _take(d, "max_neurons", "", None)
    max_neurons = None if maxn_raw is None else _int_list(maxn_raw, "max_neurons")
    epochs_raw = _take(d, "epochs", "", None)
    epochs = None if epochs_raw is None else _as_int(epochs_raw, "epochs")
    if epochs is not None:
        _check("epochs", check_count, "epochs", epochs)
    base_seed = _as_int(_take(d, "base_seed", "", 0), "base_seed")
    steps = _as_int(_take(d, "steps", "", 100), "steps")
    _check("steps", check_count, "steps", steps)
    plot = _as_bool(_take(d, "plot", "", False), "plot")
    _done(d, "")
    return SweepCliConfig(preset, layers, max_neurons, epochs, base_seed, steps, plot)


@dataclass(frozen=True)
class MuSweepConfig:
    mus: tuple[float, ...]
    epochs: int = 100
    eta: float = 0.1
    seed: int = 0
    steps: int = 100
    plot: bool = False


def parse_musweep_config(doc: dict) -> MuSweepConfig:
    d = _as_dict(doc, "")
    mus = _float_list(_take(d, "mus", ""), "mus")
    for i, mu in enumerate(mus):
        _check(f"mus[{i}]", LossSpec.work, mu)
    epochs = _as_int(_take(d, "epochs", "", 100), "epochs")
    _check("epochs", check_count, "epochs", epochs)
    eta = _as_float(_take(d, "eta", "", 0.1), "eta")
    _check("eta", check_eta, eta)
    seed = _as_int(_take(d, "seed", "", 0), "seed")
    steps = _as_int(_take(d, "steps", "", 100), "steps")
    _check("steps", check_count, "steps", steps)
    plot = _as_bool(_take(d, "plot", "", False), "plot")
    _done(d, "")
    return MuSweepConfig(mus, epochs, eta, seed, steps, plot)


@dataclass(frozen=True)
class ProjectionCliConfig:
    problem: ProblemConfig
    network: NetworkConfig
    training: TrainingConfig
    direction_seed: int = 0
    two_d: bool = False
    alpha: tuple[float, float, int] = (-0.4, 0.4, 101)
    beta: tuple[float, float, int] = (-0.4, 0.4, 101)
    samples: int = 100
    theta_file: str | None = None
    plot: bool = False


def parse_project_config(doc: dict) -> ProjectionCliConfig:
    d = _as_dict(doc, "")
    problem = parse_problem(_take(d, "problem", ""), "problem")
    network = parse_network(_take(d, "network", ""), "network")
    training = parse_training(_take(d, "training", "", {}), "training")
    pd = _as_dict(_take(d, "projection", "", {}), "projection")
    direction_seed = _as_int(_take(pd, "seed", "projection", 0), "projection.seed")
    two_d = _as_bool(_take(pd, "two_d", "projection", False), "projection.two_d")
    alpha = _axis_triple(_take(pd, "alpha", "projection", {}), "projection.alpha",
                         -0.4, 0.4, 101)
    beta = ProjectionCliConfig.beta
    if two_d:
        beta = _axis_triple(_take(pd, "beta", "projection", {}), "projection.beta",
                            -0.4, 0.4, 101)
    samples = _as_int(_take(pd, "samples", "projection", 100), "projection.samples")
    _check("projection.samples", check_count, "samples", samples)
    theta_raw = _take(pd, "theta_file", "projection", None)
    theta_file = None if theta_raw is None else _as_str(theta_raw, "projection.theta_file")
    _done(pd, "projection")
    plot = _as_bool(_take(d, "plot", "", False), "plot")
    _done(d, "")
    return ProjectionCliConfig(problem, network, training, direction_seed, two_d,
                               alpha, beta, samples, theta_file, plot)


@dataclass(frozen=True)
class CompareConfig:
    hidden: tuple[int, ...] = (14, 14)
    epochs: int = 1000
    eta_bptt: float = 3e-3
    eta_tbptt: float = 5e-3
    seed: int = 0
    timing_epochs: int = 200
    steps: int = 100
    plot: bool = False


def parse_compare_config(doc: dict) -> CompareConfig:
    d = _as_dict(doc, "")
    hidden_raw = _take(d, "hidden", "", None)
    hidden = (14, 14) if hidden_raw is None else _int_list(hidden_raw, "hidden")
    _check("hidden", MlpSpec, hidden)
    epochs = _as_int(_take(d, "epochs", "", 1000), "epochs")
    _check("epochs", check_count, "epochs", epochs)
    eta_bptt = _as_float(_take(d, "eta_bptt", "", 3e-3), "eta_bptt")
    _check("eta_bptt", check_eta, eta_bptt)
    eta_tbptt = _as_float(_take(d, "eta_tbptt", "", 5e-3), "eta_tbptt")
    _check("eta_tbptt", check_eta, eta_tbptt)
    seed = _as_int(_take(d, "seed", "", 0), "seed")
    timing_epochs = _as_int(_take(d, "timing_epochs", "", 200), "timing_epochs")
    _check("timing_epochs", check_count, "timing_epochs", timing_epochs)
    steps = _as_int(_take(d, "steps", "", 100), "steps")
    _check("steps", check_count, "steps", steps)
    plot = _as_bool(_take(d, "plot", "", False), "plot")
    _done(d, "")
    return CompareConfig(hidden, epochs, eta_bptt, eta_tbptt, seed, timing_epochs,
                         steps, plot)
