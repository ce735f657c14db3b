"""Controller networks: forward evaluation, reverse-mode pullbacks against
finite differences, and initialization rules."""

import math
import pickle

import numpy as np
import pytest

from odecontrol.linalg import SeededRng
from odecontrol.nets import (
    Activation,
    ConstantControl,
    InitScheme,
    LINEAR,
    MlpSpec,
    RELU,
    SingleNeuron,
    TANH,
    activation_from_config,
    elu,
    init_params,
    leaky_relu,
    theta_from_json,
    theta_to_json,
)

ACTIVATIONS = [LINEAR, RELU, TANH, leaky_relu(0.1), elu()]


def fd_vjp(model, theta, t, ybar, h=1e-6):
    """<ybar, J dtheta_i> per coordinate via central differences."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = float(ybar @ (model.forward(up, t) - model.forward(dn, t))) / (2 * h)
    return out


def layer_offsets(model):
    """[(w_start, w_end, b_start, b_end)] per layer into the flat theta."""
    out, pos = [], 0
    for fi, fo, has_b in model.layer_shapes():
        w1 = pos + fi * fo
        pos = w1 + (fo if has_b else 0)
        out.append((w1 - fi * fo, w1, w1, pos))
    return out


class TestActivation:
    def test_values(self):
        z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(LINEAR.value(z), z)
        np.testing.assert_allclose(RELU.value(z), [0.0, 0.0, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(TANH.value(z), np.tanh(z))
        np.testing.assert_allclose(
            leaky_relu(0.1).value(z), [-0.2, -0.05, 0.0, 0.5, 2.0]
        )
        np.testing.assert_allclose(
            elu().value(z), [math.expm1(-2.0), math.expm1(-0.5), 0.0, 0.5, 2.0]
        )

    @pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
    def test_deriv_matches_fd(self, act):
        # avoid the relu family's kink at 0 where the fd stencil straddles it
        z = np.array([-1.7, -0.4, 0.3, 1.1, 2.6])
        h = 1e-7
        fd = (act.value(z + h) - act.value(z - h)) / (2 * h)
        np.testing.assert_allclose(act.deriv(z), fd, atol=1e-6)

    def test_elu_large_positive_no_overflow(self):
        z = np.array([800.0])
        assert float(elu().value(z)[0]) == 800.0
        assert float(elu().deriv(z)[0]) == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("swish")

    def test_from_config(self):
        assert activation_from_config("tanh") is TANH
        act = activation_from_config({"name": "leaky_relu", "slope": 0.2})
        assert act.kind == "leaky_relu" and act.slope == 0.2
        assert activation_from_config({"name": "relu"}) is RELU
        assert activation_from_config({"name": "elu", "alpha": 0.5}) == elu(0.5)
        with pytest.raises(ValueError):
            activation_from_config({"slope": 0.2})
        with pytest.raises(ValueError):
            activation_from_config("gelu")

    @pytest.mark.parametrize("cfg", [
        {"name": "elu", "alhpa": 0.5},
        {"name": "tanh", "slope": 0.1},
        {"name": "leaky_relu", "alpha": 0.1},
        {"name": "elu", "alpha": "0.5"},
        {"name": "elu", "alpha": float("nan")},
        {"name": "leaky_relu", "slope": None},
    ])
    def test_from_config_rejects_parameters_the_kind_does_not_take(self, cfg):
        with pytest.raises(ValueError, match="activation"):
            activation_from_config(cfg)

    def test_pickle_round_trip(self):
        act = pickle.loads(pickle.dumps(elu(0.7)))
        z = np.array([-1.0, 1.0])
        np.testing.assert_allclose(act.value(z), elu(0.7).value(z))


class TestMlpForward:
    def test_param_count(self):
        # 1 -> 3 -> 2 -> 1 with biases: (1*3+3) + (3*2+2) + (2*1+1) = 17
        assert MlpSpec((3, 2)).n_params == 17
        # without biases: 3 + 6 + 2 = 11
        assert MlpSpec((3, 2), use_bias=False).n_params == 11
        # affine readout only: 1*1 + 1
        assert MlpSpec(()).n_params == 2

    def test_affine_readout_by_hand(self):
        model = MlpSpec(())
        theta = np.array([2.0, -0.5])
        np.testing.assert_allclose(model.forward(theta, 1.5), [2.0 * 1.5 - 0.5])

    def test_one_hidden_layer_by_hand(self):
        # u(t) = w2 tanh(w1 t + b1) + b2
        model = MlpSpec((1,), activation=TANH)
        w1, b1, w2, b2 = 0.7, -0.2, 1.3, 0.4
        theta = np.array([w1, b1, w2, b2])
        t = 0.9
        want = w2 * math.tanh(w1 * t + b1) + b2
        np.testing.assert_allclose(model.forward(theta, t), [want], rtol=1e-12)

    def test_forward_batch_matches_scalar(self):
        model = MlpSpec((4, 3), activation=elu(), out_dim=2)
        theta = SeededRng(0).normal(model.n_params)
        ts = np.linspace(0.0, 1.0, 7)
        batch = model.forward_batch(theta, ts)
        assert batch.shape == (7, 2)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(batch[i], model.forward(theta, float(t)),
                                       rtol=1e-12)

    def test_continuity_in_t(self):
        model = MlpSpec((5,), activation=elu())
        theta = SeededRng(1).normal(model.n_params)
        u0 = model.forward(theta, 0.5)
        u1 = model.forward(theta, 0.5 + 1e-9)
        assert abs(float(u1[0] - u0[0])) < 1e-6

    def test_theta_shape_checked(self):
        model = MlpSpec((3,))
        with pytest.raises(Exception):
            model.forward(np.zeros(model.n_params + 1), 0.0)

    @pytest.mark.parametrize("act", [(TANH, TANH), "tanh", None],
                             ids=["per-layer-tuple", "name", "none"])
    def test_activation_must_be_one_activation(self, act):
        with pytest.raises(ValueError, match="activation must be an Activation"):
            MlpSpec((3, 3), activation=act)


class TestMlpVjp:
    @pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
    def test_matches_fd(self, act):
        model = MlpSpec((4, 3), activation=act, out_dim=2)
        rng = SeededRng(2)
        for trial in range(3):
            theta = rng.normal(model.n_params) * 0.7
            t = float(rng.uniform(0.05, 1.0))
            ybar = rng.normal(2)
            got = model.vjp(theta, t, ybar)
            want = fd_vjp(model, theta, t, ybar)
            np.testing.assert_allclose(got, want, rtol=2e-5, atol=1e-7)

    def test_no_bias_variant(self):
        model = MlpSpec((3, 3), activation=TANH, use_bias=False)
        rng = SeededRng(3)
        theta = rng.normal(model.n_params)
        ybar = np.array([1.0])
        np.testing.assert_allclose(
            model.vjp(theta, 0.4, ybar), fd_vjp(model, theta, 0.4, ybar),
            rtol=2e-5, atol=1e-7,
        )

    def test_linear_net_vjp_exact(self):
        # affine readout u = w t + b: d u / d(w, b) = (t, 1)
        model = MlpSpec(())
        theta = np.array([0.3, 0.8])
        got = model.vjp(theta, 2.0, np.array([1.0]))
        np.testing.assert_allclose(got, [2.0, 1.0], rtol=1e-14)


class TestSingleNeuron:
    def test_forward(self):
        m = SingleNeuron(TANH)
        theta = np.array([2.0, 0.25])
        np.testing.assert_allclose(m.forward(theta, 0.5), [math.tanh(1.0) + 0.25])

    def test_relu_negative_weight_is_bias_only(self):
        m = SingleNeuron(RELU)
        theta = np.array([-1.5, 0.7])
        for t in (0.1, 0.5, 1.0):
            np.testing.assert_allclose(m.forward(theta, t), [0.7])
        g = m.vjp(theta, 0.5, np.array([1.0]))
        np.testing.assert_allclose(g, [0.0, 1.0])

    def test_vjp_matches_fd(self):
        for act in (LINEAR, TANH, elu()):
            m = SingleNeuron(act)
            theta = np.array([0.9, -0.3])
            np.testing.assert_allclose(
                m.vjp(theta, 0.7, np.array([1.0])),
                fd_vjp(m, theta, 0.7, np.array([1.0])),
                rtol=1e-6, atol=1e-9,
            )

    def test_batch(self):
        m = SingleNeuron(LINEAR)
        theta = np.array([2.0, 1.0])
        ts = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(m.forward_batch(theta, ts),
                                   [[1.0], [2.0], [3.0]])


class TestConstantControl:
    def test_forward_and_vjp(self):
        m = ConstantControl(out_dim=2)
        theta = np.array([0.4, -1.2])
        np.testing.assert_allclose(m.forward(theta, 0.3), theta)
        np.testing.assert_allclose(m.vjp(theta, 0.3, np.array([1.0, 2.0])),
                                   [1.0, 2.0])
        assert m.forward_batch(theta, np.zeros(5)).shape == (5, 2)


class TestInit:
    def test_constant_fill(self):
        model = MlpSpec((2,))
        theta = init_params(model, InitScheme.constant(0.1))
        np.testing.assert_allclose(theta, np.full(model.n_params, 0.1))

    def test_constant_with_bias_override(self):
        model = MlpSpec((2,))
        theta = init_params(model, InitScheme("constant", value=0.5, bias_value=0.01))
        # layout: w1 (2), b1 (2), w2 (2), b2 (1)
        np.testing.assert_allclose(theta, [0.5, 0.5, 0.01, 0.01, 0.5, 0.5, 0.01])

    def test_uniform_bounds_fan_in(self):
        model = MlpSpec((50, 50))
        theta = init_params(model, InitScheme.uniform(), SeededRng(0))
        offs = layer_offsets(model)
        shapes = model.layer_shapes()
        for (fi, fo, _), (w0, w1, _, _) in zip(shapes, offs):
            bound = 1.0 / math.sqrt(fi)
            w = theta[w0:w1]
            assert np.max(np.abs(w)) <= bound
            # a 2500-sample uniform draw should get close to its bound
            if fi > 1:
                assert np.max(np.abs(w)) > 0.8 * bound

    def test_uniform_sqrt_k_rule(self):
        scheme = InitScheme.uniform(bound_rule="sqrt_k", scale=0.5)
        assert scheme.bound(16) == pytest.approx(2.0)
        inv = InitScheme.uniform(scale=0.5)
        assert inv.bound(16) == pytest.approx(0.125)

    def test_uniform_bias_override(self):
        model = MlpSpec((3,))
        scheme = InitScheme.uniform(bias_value=1e-2)
        theta = init_params(model, scheme, SeededRng(4))
        (w0, w1, b0, b1), _ = layer_offsets(model)
        np.testing.assert_allclose(theta[b0:b1], 1e-2)

    def test_uniform_needs_rng(self):
        with pytest.raises(ValueError):
            init_params(MlpSpec((2,)), InitScheme.uniform())

    def test_deterministic_under_seed(self):
        model = MlpSpec((8, 8))
        a = init_params(model, InitScheme.uniform(), SeededRng(7))
        b = init_params(model, InitScheme.uniform(), SeededRng(7))
        np.testing.assert_array_equal(a, b)


class TestThetaJson:
    def test_round_trip(self):
        model = MlpSpec((3, 2), activation=elu())
        theta = SeededRng(5).normal(model.n_params)
        doc = theta_to_json(model, theta)
        back = theta_from_json(doc, model)
        np.testing.assert_array_equal(back, theta)

    def test_layout_mismatch_rejected(self):
        doc = theta_to_json(MlpSpec((3,)), np.zeros(MlpSpec((3,)).n_params))
        with pytest.raises(ValueError):
            theta_from_json(doc, MlpSpec((4,)))

    def test_truncated_theta_rejected(self):
        with pytest.raises(ValueError):
            theta_from_json('{"layout": [[1, 2, 1]], "theta": [0.0]}')

    @pytest.mark.parametrize("layout, theta, match", [
        ("[[1, 1, 1], [1, 1, 1]]", "[NaN, 0, 0, 0]", "entry 0 is nan"),
        ("[[1, 1, 1], [1, 1, 1]]", "[1e308, Infinity, 0, 0]", "entry 1 is inf"),
        ("[[1, 1, 1], [1, 1, 1]]", "[0, 0, 0, -Infinity]", "entry 3 is -inf"),
        ("[[1, 1, 1], [1, 1, 1]]", f"[0, 0, 0, {10**400}]", "beyond the float range"),
        ("[[1.7, 1, 1], [1, 1, 1]]", "[0, 0, 0, 0]", "integers"),
        ("[[1, 1, true], [1, 1, 1]]", "[0, 0, 0, 0]", "integers"),
        ("[[1, 1, 1], [1, 1.0, 1]]", "[0, 0, 0, 0]", "integers"),
    ])
    def test_non_finite_theta_and_non_integer_layout_rejected(self, layout, theta, match):
        # json reads NaN, Infinity and integers of any size, and int() would
        # turn 1.7 and true into 1
        doc = f'{{"layout": {layout}, "theta": {theta}}}'
        with pytest.raises(ValueError, match=match):
            theta_from_json(doc, MlpSpec((1,)))

    def test_model_pickles(self):
        model = MlpSpec((4, 4), activation=elu())
        clone = pickle.loads(pickle.dumps(model))
        theta = SeededRng(6).normal(model.n_params)
        np.testing.assert_allclose(clone.forward(theta, 0.3),
                                   model.forward(theta, 0.3))
