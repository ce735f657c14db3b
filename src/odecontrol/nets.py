"""Controller networks: small MLPs mapping scalar time to a control vector,
with explicit layer-tape reverse mode.

This is deliberately not a general autodiff engine. The controller depends
on t only, so every evaluation is one batched pass over a (K,) time array:
the tape stores each layer's inputs and pre-activations as (K, width)
arrays, and vjp replays it backwards for K cotangents at once, returning the
sum of the K pullbacks (a scalar t is the K = 1 case). All models expose the
same quartet (n_params, forward, forward_batch, vjp), so the gradient and
training code never cares which shape of controller it is driving.
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
        # dispatch once; value/deriv sit on the hot path of every forward and vjp
        if self.kind == "linear":
            val = lambda z: z
            der = lambda z: np.ones_like(z)
        elif self.kind == "relu":
            val = lambda z: np.maximum(z, 0.0)
            der = lambda z: np.where(z > 0.0, 1.0, 0.0)
        elif self.kind == "leaky_relu":
            s = self.slope
            val = lambda z: np.where(z > 0.0, z, s * z)
            der = lambda z: np.where(z > 0.0, 1.0, s)
        elif self.kind == "elu":
            # expm1 on the clipped argument avoids overflow warnings for z >> 0
            al = self.alpha
            val = lambda z: np.where(z > 0.0, z, al * np.expm1(np.minimum(z, 0.0)))
            der = lambda z: np.where(z > 0.0, 1.0, al * np.exp(np.minimum(z, 0.0)))
        else:
            val = np.tanh
            der = lambda z: 1.0 / np.cosh(z) ** 2
        object.__setattr__(self, "_val", val)
        object.__setattr__(self, "_der", der)

    def __getstate__(self):
        return {"kind": self.kind, "slope": self.slope, "alpha": self.alpha}

    def __setstate__(self, state):
        object.__setattr__(self, "kind", state["kind"])
        object.__setattr__(self, "slope", state["slope"])
        object.__setattr__(self, "alpha", state["alpha"])
        self.__post_init__()

    def value(self, z: np.ndarray) -> np.ndarray:
        return self._val(np.asarray(z, dtype=np.float64))

    def deriv(self, z: np.ndarray) -> np.ndarray:
        return self._der(np.asarray(z, dtype=np.float64))


LINEAR = Activation("linear")
RELU = Activation("relu")
TANH = Activation("tanh")


def leaky_relu(slope: float = 0.01) -> Activation:
    return Activation("leaky_relu", slope=slope)


def elu(alpha: float = 1.0) -> Activation:
    return Activation("elu", alpha=alpha)


_BY_NAME = {
    "linear": lambda p: LINEAR,
    "relu": lambda p: RELU,
    "tanh": lambda p: TANH,
    "leaky_relu": lambda p: leaky_relu(float(p.get("slope", 0.01))),
    "elu": lambda p: elu(float(p.get("alpha", 1.0))),
}


def activation_from_config(cfg) -> Activation:
    """Build an Activation from a config value: a name or {name, params}."""
    if isinstance(cfg, Activation):
        return cfg
    if isinstance(cfg, str):
        name, params = cfg, {}
    elif isinstance(cfg, dict):
        cfg = dict(cfg)
        name = cfg.pop("name", None)
        params = cfg
        if name is None:
            raise ValueError("activation config needs a 'name' field")
    else:
        raise ValueError(f"cannot parse activation from {cfg!r}")
    if name not in _BY_NAME:
        raise ValueError(f"unknown activation {name!r}")
    return _BY_NAME[name](params)


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
    readout). activation applies to every hidden layer unless a tuple with
    one entry per hidden layer is given. The output layer defaults to Linear
    so controls are unconstrained in sign and scale.
    """

    hidden: tuple[int, ...]
    activation: Activation | tuple[Activation, ...] = TANH
    out_dim: int = 1
    out_activation: Activation = LINEAR
    use_bias: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.out_dim < 1:
            raise ValueError("out_dim must be >= 1")
        acts = self.activation
        if isinstance(acts, Activation):
            acts = (acts,) * len(self.hidden)
        else:
            acts = tuple(acts)
            if len(acts) != len(self.hidden):
                raise ValueError(
                    f"{len(acts)} activations given for {len(self.hidden)} hidden layers"
                )
        object.__setattr__(self, "activation", acts)
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
        object.__setattr__(self, "_acts", acts + (self.out_activation,))
        object.__setattr__(self, "_n_params", pos)

    def layer_shapes(self) -> list[tuple[int, int, bool]]:
        """(fan_in, fan_out, has_bias) per layer, input to output."""
        return list(self._shapes)

    def layer_activations(self) -> tuple[Activation, ...]:
        return self._acts

    @property
    def n_params(self) -> int:
        return self._n_params

    def _offsets(self):
        """[(w_start, w_end, b_start, b_end)] per layer into the flat theta."""
        return list(self._offs)

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self._n_params,):
            raise DimensionError(
                f"theta must have shape ({self._n_params},), got {theta.shape}"
            )
        return theta

    def _tape(self, theta: np.ndarray, ts: np.ndarray):
        """Run the net on a (K,) time array, keeping inputs and pre-activations."""
        tape = []
        a = ts[:, None]
        for (fi, fo, has_b), (w0, w1, b0, b1), act in zip(
            self._shapes, self._offs, self._acts
        ):
            z = a @ theta[w0:w1].reshape(fo, fi).T
            if has_b:
                z += theta[b0:b1]
            tape.append((a, z))
            a = act._val(z)
        return a, tape

    def forward(self, theta, t: float) -> np.ndarray:
        """Control vector at scalar time t, shape (out_dim,)."""
        y, _ = self._tape(self._check_theta(theta), np.array([t], dtype=np.float64))
        return y[0]

    def forward_batch(self, theta, ts: np.ndarray) -> np.ndarray:
        """Controls at a 1-D array of times, shape (len(ts), out_dim)."""
        y, _ = self._tape(self._check_theta(theta), np.asarray(ts, dtype=np.float64))
        return y

    def vjp(self, theta, t, ybar) -> np.ndarray:
        """J_u(t)^T ybar pulled back to parameter space; for a (K,) t and a
        (K, out_dim) ybar, the sum of the K pullbacks."""
        theta = self._check_theta(theta)
        ts, g = _cotangents(t, ybar, self.out_dim)
        _, tape = self._tape(theta, ts)
        shapes, offs, acts = self._shapes, self._offs, self._acts
        # offsets tile theta contiguously, so every slice below is written once
        grad = np.empty(self._n_params)
        for l in range(len(shapes) - 1, -1, -1):
            a_prev, z = tape[l]
            g = g * acts[l]._der(z)
            fi, fo, has_b = shapes[l]
            w0, w1, b0, b1 = offs[l]
            grad[w0:w1] = (g.T @ a_prev).reshape(fi * fo)
            if has_b:
                grad[b0:b1] = g.sum(axis=0)
            if l > 0:
                g = g @ theta[w0:w1].reshape(fo, fi)
        return grad


def _cotangents(t, ybar, out_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(ts, ybar) as (K,) and (K, out_dim) arrays; a scalar t is K = 1."""
    ts, ybar = np.asarray(t, dtype=np.float64), np.asarray(ybar, dtype=np.float64)
    if ts.ndim > 1 or ybar.shape != ts.shape + (out_dim,):
        raise DimensionError(f"ybar must have shape {ts.shape + (out_dim,)}, got {ybar.shape}")
    return ts.reshape(-1), ybar.reshape(-1, out_dim)


@dataclass(frozen=True)
class SingleNeuron:
    """One-neuron controller u(t) = act(w t) + b with theta = (w, b).

    The bias sits outside the nonlinearity, which is what makes the relu
    variant's fixed-point structure interesting: for w < 0 the weight
    gradient vanishes on t > 0 and only b moves.
    """

    activation: Activation = LINEAR

    out_dim: int = 1

    @property
    def n_params(self) -> int:
        return 2

    def layer_shapes(self):
        return [(1, 1, True)]

    def forward(self, theta, t: float) -> np.ndarray:
        return self.forward_batch(theta, [t])[0]

    def forward_batch(self, theta, ts: np.ndarray) -> np.ndarray:
        w, b = float(theta[0]), float(theta[1])
        ts = np.asarray(ts, dtype=np.float64)
        return (self.activation.value(w * ts) + b)[:, None]

    def vjp(self, theta, t, ybar) -> np.ndarray:
        """Pullback of ybar; a (K,) t with (K, 1) ybar sums the K pullbacks."""
        ts, g = _cotangents(t, ybar, 1)
        d = self.activation.deriv(float(theta[0]) * ts)
        return np.array([np.sum(g[:, 0] * d * ts), np.sum(g)])


@dataclass(frozen=True)
class ConstantControl:
    """Bias-only controller u(t) = c, theta = c (one entry per control dim)."""

    out_dim: int = 1

    @property
    def n_params(self) -> int:
        return self.out_dim

    def layer_shapes(self):
        return [(0, self.out_dim, True)]

    def forward(self, theta, t: float) -> np.ndarray:
        return np.asarray(theta, dtype=np.float64).copy()

    def forward_batch(self, theta, ts: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        return np.tile(theta, (len(ts), 1))

    def vjp(self, theta, t, ybar) -> np.ndarray:
        """Pullback of ybar; a (K,) t with (K, out_dim) ybar sums the K rows."""
        return _cotangents(t, ybar, self.out_dim)[1].sum(axis=0)


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
    """Parse a theta document, validating layout consistency and length."""
    data = json.loads(doc)
    if not isinstance(data, dict) or "layout" not in data or "theta" not in data:
        raise ValueError("theta document needs 'layout' and 'theta' fields")
    layout = [tuple(int(v) for v in row) for row in data["layout"]]
    theta = np.asarray(data["theta"], dtype=np.float64)
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
