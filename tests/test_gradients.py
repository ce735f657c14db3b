"""Exact adjoint gradients against finite differences, and the truncated
single-index decomposition."""

import zlib

import numpy as np
import pytest

from odecontrol.dynamics import (
    ControlProblem,
    LinearDynamics,
    MovingParticleDynamics,
    integrator,
    scalar_linear,
)
from odecontrol.gradients import (
    LossSpec,
    bptt_grad,
    fd_grad,
    reset_vjp_count,
    tbptt_grad,
    vjp_count,
)
from odecontrol.linalg import SeededRng
from odecontrol.nets import (
    LINEAR,
    MlpSpec,
    RELU,
    SingleNeuron,
    TANH,
    elu,
    leaky_relu,
)

PROBLEMS = {
    "integrator": ControlProblem(integrator(), [0.0], [-1.0], 1.0, 20),
    "scalar_linear": ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 20),
    "flow2d": ControlProblem(
        LinearDynamics([[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]]),
        [0.5, 0.5], [1.0, -1.0], 1.0, 20,
    ),
    "particle": ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0],
                               1.0, 20),
}

SMOOTH_ACTS = [LINEAR, TANH, elu(), leaky_relu(0.1)]


def rel_err(got, want):
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(got - want)) / denom


class TestBpttVsFd:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("act", SMOOTH_ACTS, ids=lambda a: a.kind)
    def test_terminal_loss_gradient(self, name, act):
        problem = PROBLEMS[name]
        model = MlpSpec((5, 4), activation=act)
        # crc32, unlike the per-process salted str hash, replays across runs
        rng = SeededRng(zlib.crc32(f"{name}/{act.kind}".encode()))
        for _ in range(3):
            theta = rng.normal(model.n_params) * 0.6
            got = bptt_grad(problem, model, theta).grad
            want = fd_grad(problem, model, theta)
            assert rel_err(got, want) < 1e-6

    def test_relu_gradient_off_kink(self):
        # relu is fine for fd as long as no preactivation sits at 0
        problem = PROBLEMS["integrator"]
        model = MlpSpec((4,), activation=RELU)
        theta = SeededRng(10).normal(model.n_params) + 0.3
        got = bptt_grad(problem, model, theta).grad
        want = fd_grad(problem, model, theta)
        assert rel_err(got, want) < 1e-5

    def test_energy_regularized_gradient(self):
        problem = PROBLEMS["scalar_linear"]
        model = MlpSpec((4,), activation=elu())
        theta = SeededRng(11).normal(model.n_params) * 0.5
        loss = LossSpec.energy(0.3)
        got = bptt_grad(problem, model, theta, loss)
        want = fd_grad(problem, model, theta, loss)
        assert rel_err(got.grad, want) < 1e-6

    def test_work_regularized_gradient(self):
        problem = PROBLEMS["particle"]
        model = MlpSpec((4,), activation=elu())
        theta = SeededRng(12).normal(model.n_params) * 0.5
        loss = LossSpec.work(0.1)
        got = bptt_grad(problem, model, theta, loss)
        want = fd_grad(problem, model, theta, loss)
        assert rel_err(got.grad, want) < 1e-6

    def test_single_neuron_closed_form(self):
        # x' = u, u = w t + b: x_K = x0 + dt sum (w t_k + b), so
        # dL/dw = (x_K - x*) dt sum t_k, dL/db = (x_K - x*) T
        problem = ControlProblem(integrator(), [0.0], [-1.0], 1.0, 10)
        model = SingleNeuron(LINEAR)
        theta = np.array([0.7, -0.4])
        res = bptt_grad(problem, model, theta)
        dt = problem.dt
        t_sum = dt * sum(k * dt for k in range(10))
        x_k = 0.7 * t_sum + (-0.4) * 1.0
        err = x_k - (-1.0)
        np.testing.assert_allclose(res.grad, [err * t_sum, err * 1.0], rtol=1e-12)
        assert res.loss == pytest.approx(0.5 * err * err, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_fd_grad_takes_the_run_axis(self, name):
        problem = PROBLEMS[name]
        model = MlpSpec((4,), activation=elu())
        thetas = SeededRng(15).normal((3, model.n_params)) * 0.5
        losses = [LossSpec.terminal(), LossSpec.energy(0.3)]
        if name == "particle":
            losses.append(LossSpec.work(0.1))
        for loss in losses:
            got = fd_grad(problem, model, thetas, loss)
            assert got.shape == thetas.shape
            for r, theta in enumerate(thetas):
                assert got[r].tobytes() == fd_grad(problem, model, theta, loss).tobytes()

    def test_loss_value_reported(self):
        problem = PROBLEMS["integrator"]
        model = MlpSpec((3,))
        theta = np.zeros(model.n_params)
        res = bptt_grad(problem, model, theta)
        # u = 0 everywhere: x stays at 0, loss = 1/2 * 1
        assert res.loss == pytest.approx(0.5)


class TestTbptt:
    def test_propagated_terms_sum_to_bptt(self):
        problem = PROBLEMS["flow2d"]
        model = MlpSpec((6,), activation=elu())
        theta = SeededRng(13).normal(model.n_params) * 0.5
        full = bptt_grad(problem, model, theta).grad
        acc = np.zeros_like(full)
        for k in range(problem.steps):
            acc += tbptt_grad(problem, model, theta, k, "propagated").grad
        assert rel_err(acc, full) < 1e-12

    def test_frozen_equals_propagated_for_driftless_flow(self):
        # x' = u has no state feedback, so truncation loses nothing
        problem = PROBLEMS["integrator"]
        model = MlpSpec((4,), activation=TANH)
        theta = SeededRng(14).normal(model.n_params)
        for k in (0, 7, 19):
            a = tbptt_grad(problem, model, theta, k, "frozen").grad
            b = tbptt_grad(problem, model, theta, k, "propagated").grad
            np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_frozen_differs_under_drift(self):
        problem = PROBLEMS["scalar_linear"]
        model = MlpSpec((4,), activation=TANH)
        theta = SeededRng(15).normal(model.n_params)
        a = tbptt_grad(problem, model, theta, 0, "frozen").grad
        b = tbptt_grad(problem, model, theta, 0, "propagated").grad
        assert rel_err(a, b) > 1e-3

    def test_index_validation(self):
        problem = PROBLEMS["integrator"]
        model = MlpSpec((3,))
        theta = np.zeros(model.n_params)
        with pytest.raises(ValueError):
            tbptt_grad(problem, model, theta, problem.steps)
        with pytest.raises(ValueError):
            tbptt_grad(problem, model, theta, -1)
        with pytest.raises(ValueError):
            tbptt_grad(problem, model, theta, 0, variant="half")


class TestVjpCounting:
    def test_bptt_counts_k_calls(self):
        problem = PROBLEMS["integrator"]
        model = MlpSpec((3,))
        theta = np.zeros(model.n_params)
        reset_vjp_count()
        bptt_grad(problem, model, theta)
        assert vjp_count() == problem.steps

    def test_tbptt_counts_one_call(self):
        problem = PROBLEMS["integrator"]
        model = MlpSpec((3,))
        theta = np.zeros(model.n_params)
        reset_vjp_count()
        tbptt_grad(problem, model, theta, 5)
        assert vjp_count() == 1
        tbptt_grad(problem, model, theta, 6)
        assert vjp_count() == 2


class TestLossSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec("quadratic")
        with pytest.raises(ValueError):
            LossSpec.energy(-0.1)

    @pytest.mark.parametrize("cost", [LossSpec.energy, LossSpec.work])
    def test_mu_must_be_finite(self, cost):
        with pytest.raises(ValueError, match="mu must be finite, got inf"):
            cost(np.inf)
        for bad in (np.nan, -np.inf, -0.1):
            with pytest.raises(ValueError, match="mu must be >= 0"):
                cost(bad)
        assert cost(0.0).mu == 0.0 and cost(2.5).mu == 2.5

    def test_terminal_plus_energy_value(self):
        problem = PROBLEMS["integrator"]
        model = SingleNeuron(LINEAR)
        theta = np.array([0.0, 2.0])  # u = 2 constant
        res = bptt_grad(problem, model, theta, LossSpec.energy(0.5))
        # x_K = 2, loss = 1/2 (2 + 1)^2 + 0.5 * (1/2 * 4) = 4.5 + 1 = 5.5
        assert res.loss == pytest.approx(5.5, rel=1e-12)
