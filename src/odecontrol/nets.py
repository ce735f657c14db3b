"""Controller networks: small MLPs mapping scalar time to a control vector,
with explicit layer-tape reverse mode.

This is deliberately not a general autodiff engine. The controller depends
on t only, so every evaluation is one batched pass over a (K,) time array:
the tape stores each layer's inputs and pre-activations as (K, width)
arrays, and vjp replays it backwards for K cotangents at once, returning the
sum of the K pullbacks (a scalar t is the K = 1 case). All models expose the
same quartet (n_params, forward, forward_batch, vjp), so the gradient and
training code never cares which shape of controller it is driving.

Every method takes a run axis: a (..., P) theta holds one run per row,
forward gives (..., out_dim) controls, forward_batch (..., K, out_dim) and
vjp a (..., P) gradient from (..., K, out_dim) cotangents, each run bit-equal
to its own call with a (P,) theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionError, SeededRng


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity with an explicit derivative.

    kind is one of linear, relu, leaky_relu, elu, tanh. The relu derivative
    at exactly 0 is 0 (the inactive branch); leaky_relu takes `slope` there
    and elu takes alpha*exp(0) = alpha, so elu's derivative is continuous at
    0 only for alpha = 1, the default.
    """

    kind: str
    slope: float = 0.01  # leaky_relu only
    alpha: float = 1.0  # elu only

    _KINDS = ("linear", "relu", "leaky_relu", "elu", "tanh")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")

    def value(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "linear":
            return z
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z > 0.0, z, self.slope * z)
        if self.kind == "elu":
            # expm1 on the clipped argument avoids overflow warnings for z >> 0
            return np.where(z > 0.0, z, self.alpha * np.expm1(np.minimum(z, 0.0)))
        return np.tanh(z)

    def deriv(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "linear":
            return np.ones_like(z)
        if self.kind == "relu":
            return np.where(z > 0.0, 1.0, 0.0)
        if self.kind == "leaky_relu":
            return np.where(z > 0.0, 1.0, self.slope)
        if self.kind == "elu":
            return np.where(z > 0.0, 1.0, self.alpha * np.exp(np.minimum(z, 0.0)))
        return 1.0 / np.cosh(z) ** 2


LINEAR = Activation("linear")
RELU = Activation("relu")
TANH = Activation("tanh")


def leaky_relu(slope: float = 0.01) -> Activation:
    return Activation("leaky_relu", slope=slope)


def elu(alpha: float = 1.0) -> Activation:
    return Activation("elu", alpha=alpha)


# the parameters each activation kind takes
_PARAMS = {"linear": (), "relu": (), "tanh": (), "leaky_relu": ("slope",), "elu": ("alpha",)}
_SHARED = {"linear": LINEAR, "relu": RELU, "tanh": TANH}


def activation_from_config(cfg) -> Activation:
    """Build an Activation from a config value: a name or {name, params}.

    A parameter the kind does not take is rejected, not ignored.
    """
    if isinstance(cfg, Activation):
        return cfg
    if isinstance(cfg, str):
        name, params = cfg, {}
    elif isinstance(cfg, dict):
        params = dict(cfg)
        name = params.pop("name", None)
        if name is None:
            raise ValueError("activation config needs a 'name' field")
    else:
        raise ValueError(f"cannot parse activation from {cfg!r}")
    if name not in _PARAMS:
        raise ValueError(f"unknown activation {name!r}")
    extra = sorted(set(params) - set(_PARAMS[name]))
    if extra:
        takes = ", ".join(_PARAMS[name]) or "no parameters"
        raise ValueError(f"activation {name!r} takes {takes}; got {', '.join(extra)}")
    if name in _SHARED:
        return _SHARED[name]
    for key, v in params.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
            raise ValueError(f"activation {name!r} needs a finite number for {key}, got {v!r}")
    return Activation(name, **{key: float(v) for key, v in params.items()})


@dataclass(frozen=True)
class InitScheme:
    """Parameter initialization rule.

    kind "constant" fills every weight and bias with `value`. kind "uniform"
    draws weights from U(-bound, bound) with bound = scale/sqrt(fan_in)
    (bound_rule "inv_sqrt_k", the common fan-in rule) or scale*sqrt(fan_in)
    (bound_rule "sqrt_k"). bias_value, when set, pins all biases to that
    constant instead of the weight rule (used by the work-regularization
    sweep, which wants Kaiming weights over tiny fixed biases).
    """

    kind: str
    value: float = 0.0
    bound_rule: str = "inv_sqrt_k"
    scale: float = 1.0
    bias_value: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "uniform"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.bound_rule not in ("inv_sqrt_k", "sqrt_k"):
            raise ValueError(f"unknown bound rule {self.bound_rule!r}")

    @staticmethod
    def constant(value: float) -> "InitScheme":
        return InitScheme("constant", value=float(value))

    @staticmethod
    def uniform(
        bound_rule: str = "inv_sqrt_k",
        scale: float = 1.0,
        bias_value: float | None = None,
    ) -> "InitScheme":
        return InitScheme(
            "uniform", bound_rule=bound_rule, scale=float(scale), bias_value=bias_value
        )

    def bound(self, fan_in: int) -> float:
        if fan_in < 1:
            raise ValueError("uniform init needs fan_in >= 1")
        k = float(fan_in)
        return self.scale / np.sqrt(k) if self.bound_rule == "inv_sqrt_k" else self.scale * np.sqrt(k)


@dataclass(frozen=True)
class MlpSpec:
    """Fully connected controller u(t; theta): R -> R^out_dim.

    hidden lists the hidden-layer widths (may be empty for a bare affine
    readout). activation applies to every hidden layer. The output layer is
    linear, so controls are unconstrained in sign and scale.
    """

    hidden: tuple[int, ...]
    activation: Activation = TANH
    out_dim: int = 1
    use_bias: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.out_dim < 1:
            raise ValueError("out_dim must be >= 1")
        if not isinstance(self.activation, Activation):
            raise ValueError(f"activation must be an Activation, got {self.activation!r}")
        # freeze the layer structure up front; forward/vjp run at least once per
        # epoch and should not rebuild these lists every call
        widths = (1,) + self.hidden + (self.out_dim,)
        shapes = tuple(
            (widths[i], widths[i + 1], self.use_bias) for i in range(len(widths) - 1)
        )
        offs = []
        pos = 0
        for fi, fo, b in shapes:
            w0, w1 = pos, pos + fi * fo
            pos = w1
            if b:
                b0, b1 = pos, pos + fo
                pos = b1
            else:
                b0 = b1 = pos
            offs.append((w0, w1, b0, b1))
        object.__setattr__(self, "_shapes", shapes)
        object.__setattr__(self, "_offs", tuple(offs))
        object.__setattr__(self, "_acts", (self.activation,) * len(self.hidden) + (LINEAR,))
        object.__setattr__(self, "_n_params", pos)

    def layer_shapes(self) -> list[tuple[int, int, bool]]:
        """(fan_in, fan_out, has_bias) per layer, input to output."""
        return list(self._shapes)

    @property
    def n_params(self) -> int:
        return self._n_params

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        """theta as float64, a (..., P) array with one run per row."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape[-1:] != (self._n_params,):
            raise DimensionError(
                f"theta must have shape (..., P) with P = {self._n_params}, got {theta.shape}"
            )
        return theta

    def _tape(self, theta: np.ndarray, ts: np.ndarray):
        """Run the net on a (K,) time array, keeping inputs and pre-activations.

        A (..., P) theta gives (..., K, width) arrays: each run's layer is the
        stacked product np.matmul(a, W^T), one BLAS call per run with the
        arguments of the single run's a @ W^T, so every run equals its own
        call bit for bit.
        """
        runs = theta.shape[:-1]
        if runs:  # each run's bias row then broadcasts over its K rows
            theta = theta[..., None, :]
        tape = []
        a = ts[:, None]
        for (fi, fo, has_b), (w0, w1, b0, b1), act in zip(
            self._shapes, self._offs, self._acts
        ):
            w = theta[..., w0:w1].reshape(*runs, fo, fi)
            z = np.matmul(a, w.swapaxes(-1, -2))
            if has_b:
                z += theta[..., b0:b1]
            tape.append((a, z))
            a = act.value(z)
        return a, tape

    def forward(self, theta, t: float) -> np.ndarray:
        """Control vector (..., out_dim) at scalar time t."""
        return self.forward_batch(theta, [t])[..., 0, :]

    def forward_batch(self, theta, ts: np.ndarray) -> np.ndarray:
        """Controls (..., len(ts), out_dim) at a 1-D array of times."""
        y, _ = self._tape(self._check_theta(theta), np.asarray(ts, dtype=np.float64))
        return y

    def vjp(self, theta, t, ybar) -> np.ndarray:
        """J_u(t)^T ybar pulled back to parameter space; for a (K,) t and a
        (..., K, out_dim) ybar, each run's sum of its K pullbacks. Every layer
        product is stacked over the runs, as in _tape."""
        theta = self._check_theta(theta)
        runs = theta.shape[:-1]
        ts, g = _cotangents(t, ybar, self.out_dim, runs)
        _, tape = self._tape(theta, ts)
        shapes, offs, acts = self._shapes, self._offs, self._acts
        # offsets tile theta contiguously, so every slice below is written once
        grad = np.empty(theta.shape)
        for l in range(len(shapes) - 1, -1, -1):
            a_prev, z = tape[l]
            g = g * acts[l].deriv(z)
            fi, fo, has_b = shapes[l]
            w0, w1, b0, b1 = offs[l]
            grad[..., w0:w1] = np.matmul(g.swapaxes(-1, -2), a_prev).reshape(*runs, fi * fo)
            if has_b:
                grad[..., b0:b1] = g.sum(axis=-2)
            if l > 0:
                g = np.matmul(g, theta[..., w0:w1].reshape(*runs, fo, fi))
        return grad


def _cotangents(t, ybar, out_dim: int, runs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(ts, ybar) as (K,) and (*runs, K, out_dim) arrays; a scalar t is K = 1.
    runs is theta's leading (run) shape."""
    ts, ybar = np.asarray(t, dtype=np.float64), np.asarray(ybar, dtype=np.float64)
    want = tuple(runs) + ts.shape + (out_dim,)
    if ts.ndim > 1 or ybar.shape != want:
        raise DimensionError(f"ybar must have shape {want}, got {ybar.shape}")
    return ts.reshape(-1), ybar.reshape(tuple(runs) + (ts.size, out_dim))


@dataclass(frozen=True)
class SingleNeuron:
    """One-neuron controller u(t) = act(w t) + b with theta = (w, b).

    The bias sits outside the nonlinearity, which is what makes the relu
    variant's fixed-point structure interesting: for w < 0 the weight
    gradient vanishes on t > 0 and only b moves. theta is (..., 2), one row
    per run.
    """

    activation: Activation = LINEAR

    out_dim: int = 1

    @property
    def n_params(self) -> int:
        return 2

    def layer_shapes(self):
        return [(1, 1, True)]

    def forward(self, theta, t: float) -> np.ndarray:
        return self.forward_batch(theta, [t])[..., 0, :]

    def forward_batch(self, theta, ts: np.ndarray) -> np.ndarray:
        """Controls (..., len(ts), 1) at a 1-D array of times."""
        theta = np.asarray(theta, dtype=np.float64)
        ts = np.asarray(ts, dtype=np.float64)
        return (self.activation.value(theta[..., :1] * ts) + theta[..., 1:])[..., None]

    def vjp(self, theta, t, ybar) -> np.ndarray:
        """Pullback of ybar; a (K,) t with (..., K, 1) ybar sums the K pullbacks."""
        theta = np.asarray(theta, dtype=np.float64)
        ts, g = _cotangents(t, ybar, 1, theta.shape[:-1])
        g = g[..., 0]
        d = self.activation.deriv(theta[..., :1] * ts)
        return np.stack([np.sum(g * d * ts, axis=-1), np.sum(g, axis=-1)], axis=-1)


@dataclass(frozen=True)
class ConstantControl:
    """Bias-only controller u(t) = c, theta = c (one entry per control dim).

    theta is (..., out_dim), one row per run.
    """

    out_dim: int = 1

    @property
    def n_params(self) -> int:
        return self.out_dim

    def layer_shapes(self):
        return [(0, self.out_dim, True)]

    def forward(self, theta, t: float) -> np.ndarray:
        return self.forward_batch(theta, [t])[..., 0, :]

    def forward_batch(self, theta, ts: np.ndarray) -> np.ndarray:
        """Controls (..., len(ts), out_dim) at a 1-D array of times."""
        theta = np.asarray(theta, dtype=np.float64)
        return np.repeat(theta[..., None, :], len(ts), axis=-2)

    def vjp(self, theta, t, ybar) -> np.ndarray:
        """Pullback of ybar; a (K,) t with (..., K, out_dim) ybar sums the K rows."""
        return _cotangents(t, ybar, self.out_dim, np.shape(theta)[:-1])[1].sum(axis=-2)


def init_params(model, scheme: InitScheme, rng: SeededRng | None = None) -> np.ndarray:
    """Flat parameter vector for any controller exposing layer_shapes()."""
    blocks = []
    for fi, fo, has_b in model.layer_shapes():
        n_w = fi * fo
        if scheme.kind == "constant":
            blocks.append(np.full(n_w, scheme.value))
            if has_b:
                bias = scheme.value if scheme.bias_value is None else scheme.bias_value
                blocks.append(np.full(fo, bias))
        else:
            if rng is None:
                raise ValueError("uniform init needs a SeededRng")
            bound = scheme.bound(fi) if n_w > 0 else 0.0
            if n_w > 0:
                blocks.append(rng.uniform(-bound, bound, n_w))
            if has_b:
                if scheme.bias_value is not None:
                    blocks.append(np.full(fo, scheme.bias_value))
                else:
                    blocks.append(rng.uniform(-bound, bound, fo))
    if not blocks:
        return np.zeros(0)
    return np.concatenate(blocks)


def theta_to_json(model, theta) -> str:
    """Serialize a parameter vector with its layer layout."""
    theta = np.asarray(theta, dtype=np.float64)
    layout = [[fi, fo, int(b)] for fi, fo, b in model.layer_shapes()]
    expected = sum(fi * fo + (fo if b else 0) for fi, fo, b in model.layer_shapes())
    if theta.shape != (expected,):
        raise DimensionError(
            f"theta length {theta.shape} does not match layout size {expected}"
        )
    return json.dumps({"layout": layout, "theta": theta.tolist()})


def theta_from_json(doc: str, model=None) -> np.ndarray:
    """Parse a theta document, validating layout consistency and length.

    Every layout entry must be a JSON integer (true and 1.7 are not) and
    every theta entry a finite float; json reads NaN, Infinity and integers
    of any size, so all are checked here.
    """
    data = json.loads(doc)
    if not isinstance(data, dict) or "layout" not in data or "theta" not in data:
        raise ValueError("theta document needs 'layout' and 'theta' fields")
    for row in data["layout"]:
        if not all(type(v) is int for v in row):
            raise ValueError(f"layout entries must be integers, got {row}")
    layout = [tuple(row) for row in data["layout"]]
    try:
        theta = np.asarray(data["theta"], dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError("theta must be finite, got an integer beyond the float range") from None
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"theta must be finite, entry {bad[0]} is {theta.flat[bad[0]]}")
    expected = sum(fi * fo + (fo if b else 0) for fi, fo, b in layout)
    if theta.ndim != 1 or theta.shape[0] != expected:
        raise ValueError(
            f"theta length {theta.shape} inconsistent with layout size {expected}"
        )
    if model is not None:
        want = [(fi, fo, bool(b)) for fi, fo, b in model.layer_shapes()]
        have = [(fi, fo, bool(b)) for fi, fo, b in layout]
        if want != have:
            raise ValueError(f"layout {have} does not match model layout {want}")
    return theta
