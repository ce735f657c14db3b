"""JSON run configurations for the command-line tools.

Configs are parsed strictly: every section is consumed key by key and any
leftover key raises a ConfigError naming its dotted path, so typos fail
before any computation starts; numbers must be finite. A key is read only
where it changes the run (network.bias for an mlp, training.mu for an
integrated cost, ...), so set elsewhere it is a leftover key too.

Each section parses straight into the library object it configures (a
ControlProblem, a controller and its InitScheme, an optimizer and LossSpec,
a SweepConfig, an Axis), built inside section() so that a value the library
rejects is a ConfigError naming the section. A flat experiment config
parses into the keyword arguments of its experiment function, holding only
the keys the file sets, so each default lives once, in the library.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .dynamics import ControlProblem, LinearDynamics, integrator, scalar_linear
from .experiments import (
    PHASE_GRID,
    SWEEP_PRESETS,
    Axis,
    GridSpec,
    SweepConfig,
    flow2d_problem,
    particle_problem,
    sweep_preset,
)
from .gradients import LossSpec
from .landscape import PROJECTION_AXIS
from .linalg import check_count, check_positive
from .nets import (
    ConstantControl,
    InitScheme,
    MlpSpec,
    SingleNeuron,
    activation_from_config,
)
from .training import Adam, Protocol, Sd


class ConfigError(ValueError):
    """Invalid configuration; path is the dotted location of the offense."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@contextmanager
def section(path: str):
    """Report a ValueError or OverflowError the library raises inside the
    block as a ConfigError at path."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    except OverflowError as exc:  # e.g. math.exp in a closed-form oracle
        raise ConfigError(path, f"a value overflows the float range: {exc}") from None


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


def _count(value, path: str) -> int:
    """A count the library needs >= 1: epochs, steps, timing_epochs."""
    n = _as_int(value, path)
    _check(path, check_count, path, n)
    return n


def _eta(value, path: str) -> float:
    eta = _as_float(value, path)
    _check(path, check_positive, "eta", eta)
    return eta


def _horizon(value, path: str) -> float:
    horizon = _as_float(value, path)
    _check(path, check_positive, path, horizon)
    return horizon


def _choice(*choices):
    return lambda value, path: _as_str(value, path, choices)


def _set_keys(d: dict, readers: dict, path: str = "") -> dict:
    """Read each key of d that readers names with its reader. A key the
    config leaves out stays out of the result, so the library's default
    applies."""
    return {key: read(d.pop(key), f"{path}.{key}" if path else key)
            for key, read in readers.items() if key in d}


def _plot(d: dict) -> bool:
    return _as_bool(_take(d, "plot", "", False), "plot")


# -- run-config sections ---------------------------------------------------------

_PROBLEM_KINDS = ("integrator", "scalar_linear", "linear", "flow2d", "particle")
_BENCHMARKS = {"flow2d": flow2d_problem, "particle": particle_problem}


def parse_problem(raw: dict, path: str = "problem") -> ControlProblem:
    d = _as_dict(raw, path)
    kind = _as_str(_take(d, "kind", path), f"{path}.kind", _PROBLEM_KINDS)
    bench = _BENCHMARKS[kind]() if kind in _BENCHMARKS else None
    if kind == "scalar_linear":
        a = _as_float(_take(d, "a", path), f"{path}.a")
        b = _as_float(_take(d, "b", path), f"{path}.b")
    elif kind == "linear":
        a = _matrix(_take(d, "a", path), f"{path}.a")
        b = _matrix(_take(d, "b", path), f"{path}.b")
    if bench is not None:
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
    with section(path):
        if bench is not None:
            dyn = bench.dynamics
        elif kind == "integrator":
            dyn = integrator()
        elif kind == "scalar_linear":
            dyn = scalar_linear(a, b)
        else:
            dyn = LinearDynamics(a, b)
        return ControlProblem(dyn, list(x0), list(xs), horizon, steps)


def _optional_float(value, path: str) -> float | None:
    return None if value is None else _as_float(value, path)


def parse_init(raw, path: str) -> InitScheme:
    d = _as_dict(raw, path)
    kind = _as_str(_take(d, "kind", path), f"{path}.kind", ("constant", "uniform"))
    if kind == "constant":
        readers = {"value": _as_float}
    else:
        readers = {"bound_rule": _choice("inv_sqrt_k", "sqrt_k"), "scale": _as_float}
    kw = _set_keys(d, readers | {"bias_value": _optional_float}, path)
    _done(d, path)
    return InitScheme(kind, **kw)


def parse_network(raw: dict, out_dim: int, path: str = "network", init: bool = True):
    """The controller for out_dim controls and its InitScheme; with init
    False (a center read from a file) network.init is an unknown key and the
    scheme is None."""
    d = _as_dict(raw, path)
    kind = _as_str(
        _take(d, "kind", path, "mlp"), f"{path}.kind", ("mlp", "single_neuron", "constant")
    )
    # hidden and bias shape an mlp only, and a constant control has no activation
    if kind == "mlp":
        hidden = _int_list(_take(d, "hidden", path), f"{path}.hidden")
        use_bias = _as_bool(_take(d, "bias", path, True), f"{path}.bias")
    if kind != "constant":
        act_raw = _take(d, "activation", path, "elu" if kind == "mlp" else "linear")
        with section(f"{path}.activation"):
            activation = activation_from_config(act_raw)
    scheme = None
    if init:
        init_raw = _take(d, "init", path, {"kind": "constant", "value": 0.1})
        scheme = parse_init(init_raw, f"{path}.init")
    _done(d, path)
    if kind == "single_neuron":
        if out_dim != 1:
            raise ConfigError(f"{path}.kind", "single_neuron drives scalar controls only")
        return SingleNeuron(activation), scheme
    if kind == "constant":
        return ConstantControl(out_dim=out_dim), scheme
    with section(path):
        return MlpSpec(hidden, activation=activation, out_dim=out_dim,
                       use_bias=use_bias), scheme


@dataclass(frozen=True)
class TrainingConfig:
    """The training section: what train takes besides the problem, the
    model and theta0."""

    optimizer: Adam | Sd
    epochs: int
    seed: int
    protocol: Protocol
    loss: LossSpec
    record_delta_u: bool = False
    record_energy_identity: bool = False


def parse_training(raw: dict, path: str = "training",
                   recorders: bool = True) -> TrainingConfig:
    """With recorders False (a run that writes no history) the recorder
    switches are unknown keys."""
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
    proto_kw = {}
    if pk == "tbptt":  # variant and schedule shape a truncated gradient only
        proto_kw = _set_keys(proto_d, {"variant": _choice("frozen", "propagated"),
                                       "schedule": _choice("cyclic", "random")}, pp)
    _done(proto_d, pp)
    cost = _as_str(_take(d, "cost", path, "terminal"), f"{path}.cost",
                   ("terminal", "energy", "work"))
    loss_kw = {}
    if cost != "terminal":  # mu weighs an integrated cost
        loss_kw = {"integrated": cost} | _set_keys(d, {"mu": _as_float}, path)
    record = {}
    if recorders:
        record = _set_keys(d, {"record_delta_u": _as_bool,
                               "record_energy_identity": _as_bool}, path)
    _done(d, path)
    with section(path):
        return TrainingConfig((Adam if optimizer == "adam" else Sd)(eta), epochs, seed,
                              Protocol(pk, **proto_kw), LossSpec(**loss_kw), **record)


@dataclass(frozen=True)
class RunConfig:
    problem: ControlProblem
    model: object
    init: InitScheme
    training: TrainingConfig
    directory: str
    plot: bool
    raw: dict


def parse_run_config(doc: dict) -> RunConfig:
    d = _as_dict(doc, "")
    problem = parse_problem(_take(d, "problem", ""))
    model, init = parse_network(_take(d, "network", ""), problem.dynamics.m)
    training = parse_training(_take(d, "training", "", {}))
    od = _as_dict(_take(d, "output", "", {}), "output")
    directory = _as_str(_take(od, "directory", "output", "out"), "output.directory")
    plot = _as_bool(_take(od, "plot", "output", False), "output.plot")
    _done(od, "output")
    _done(d, "")
    return RunConfig(problem, model, init, training, directory, plot, raw=dict(doc))


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


def _axis(raw, path: str, default: Axis) -> Axis:
    """An axis whose lo, hi and count default to those of default; the
    caller reports the Axis's own checks under its section."""
    d = _as_dict(raw, path)
    kw = _set_keys(d, {"lo": _as_float, "hi": _as_float, "count": _as_int}, path)
    _done(d, path)
    return replace(default, **kw)


def parse_phase_config(doc: dict) -> tuple[dict, bool]:
    """phase_diagram's keyword arguments and the plot flag."""
    d = _as_dict(doc, "")
    kw = {"kind": _as_str(_take(d, "kind", "", "linear"), "kind", ("linear", "relu"))}
    if "w0" in d or "b0" in d:
        with section("w0"):
            w0 = _axis(_take(d, "w0", "", {}), "w0", PHASE_GRID.x)
        with section("b0"):
            b0 = _axis(_take(d, "b0", "", {}), "b0", PHASE_GRID.y)
        kw["grid"] = GridSpec(w0, b0)
    kw |= _set_keys(d, {"eta": _eta, "epochs": _count, "horizon": _horizon,
                        "x0": _as_float, "x_star": _as_float,
                        "method": _choice("map", "train_adam")})
    if kw.get("method") == "train_adam":  # the map method never runs the simulator
        kw |= _set_keys(d, {"steps": _count})
    if "x_star" in kw:
        kw["xstar"] = kw.pop("x_star")
    plot = _plot(d)
    _done(d, "")
    return kw, plot


def parse_sweep_config(doc: dict) -> tuple[SweepConfig, bool]:
    """The SweepConfig sweep_preset builds and the plot flag."""
    d = _as_dict(doc, "")
    preset = _as_str(_take(d, "preset", ""), "preset", tuple(SWEEP_PRESETS))
    kw = _set_keys(d, {"layers": _int_list, "max_neurons": _int_list, "epochs": _count,
                       "base_seed": _as_int, "steps": _count})
    plot = _plot(d)
    _done(d, "")
    cfg = sweep_preset(preset, **kw)
    with section("layers"):  # the preset fills in the axes the config leaves out
        cfg.check()
    return cfg, plot


def parse_musweep_config(doc: dict) -> tuple[dict, bool]:
    """mu_sweep's keyword arguments and the plot flag."""
    d = _as_dict(doc, "")
    mus = _float_list(_take(d, "mus", ""), "mus")
    for i, mu in enumerate(mus):
        _check(f"mus[{i}]", LossSpec.work, mu)
    kw = {"mus": mus} | _set_keys(d, {"epochs": _count, "eta": _eta, "seed": _as_int,
                                      "steps": _count})
    plot = _plot(d)
    _done(d, "")
    return kw, plot


def _hidden(value, path: str) -> tuple[int, ...]:
    hidden = _int_list(value, path)
    _check(path, MlpSpec, hidden)
    return hidden


def parse_compare_config(doc: dict) -> tuple[dict, bool]:
    """protocol_comparison's keyword arguments and the plot flag."""
    d = _as_dict(doc, "")
    kw = _set_keys(d, {"hidden": _hidden, "epochs": _count, "eta_bptt": _eta,
                       "eta_tbptt": _eta, "seed": _as_int, "timing_epochs": _count,
                       "steps": _count})
    if "steps" in kw:
        kw["problem"] = flow2d_problem(kw.pop("steps"))
    plot = _plot(d)
    _done(d, "")
    return kw, plot


@dataclass(frozen=True)
class ProjectionCliConfig:
    """A projection around theta_file's θ or, without one, around the best θ
    of a training run from init."""

    problem: ControlProblem
    model: object
    init: InitScheme | None  # None with theta_file
    training: TrainingConfig | None  # None with theta_file
    direction_seed: int
    alpha: Axis
    beta: Axis | None  # None for a 1-D projection
    samples: int
    theta_file: str | None
    plot: bool


def parse_project_config(doc: dict) -> ProjectionCliConfig:
    d = _as_dict(doc, "")
    pp = "projection"
    pd = _as_dict(_take(d, pp, "", {}), pp)
    direction_seed = _as_int(_take(pd, "seed", pp, 0), "projection.seed")
    two_d = _as_bool(_take(pd, "two_d", pp, False), "projection.two_d")
    with section(pp):
        alpha = _axis(_take(pd, "alpha", pp, {}), "projection.alpha", PROJECTION_AXIS)
        beta = None
        if two_d:
            beta = _axis(_take(pd, "beta", pp, {}), "projection.beta",
                         replace(PROJECTION_AXIS, name="beta"))
    samples = _as_int(_take(pd, "samples", pp, 100), "projection.samples")
    _check("projection.samples", check_count, "samples", samples)
    theta_raw = _take(pd, "theta_file", pp, None)
    theta_file = None if theta_raw is None else _as_str(theta_raw, "projection.theta_file")
    _done(pd, pp)
    # a center read from a file is not trained, so it takes no init or training
    trained = theta_file is None
    problem = parse_problem(_take(d, "problem", ""))
    model, init = parse_network(_take(d, "network", ""), problem.dynamics.m, init=trained)
    training = None
    if trained:
        training = parse_training(_take(d, "training", "", {}), recorders=False)
    plot = _plot(d)
    _done(d, "")
    return ProjectionCliConfig(problem, model, init, training, direction_seed, alpha,
                               beta, samples, theta_file, plot)
