"""Property tests of the time-batched evaluation path against a tiny scalar
reference kept here only.

The package evaluates controllers on a whole (K,) time grid at once and
pulls K cotangents back in one batched vjp. The reference below runs the
same nets one time point at a time (W @ a per layer, np.outer per pullback),
the way a per-step loop would, and every check compares the two with
||a - b|| <= 1e-12 * ||b||. Hypothesis draws the structure (activation,
depth, widths, output size, K); the numbers come from a numpy generator
seeded by hypothesis, so shrinking never walks theta onto a relu kink.
Runs are derandomized, so a pass or a failure repeats exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odecontrol.dynamics import DivergenceError, integrate_euler, rollout
from odecontrol.experiments import (
    constant_problem,
    flow2d_problem,
    particle_problem,
    time_dependent_problem,
)
from odecontrol.gradients import LossSpec, bptt_grad, tbptt_grad
from odecontrol.linalg import DimensionError
from odecontrol.nets import (
    LINEAR,
    RELU,
    TANH,
    ConstantControl,
    MlpSpec,
    SingleNeuron,
    elu,
    leaky_relu,
)

RTOL = 1e-12
ACTIVATIONS = [LINEAR, RELU, TANH, leaky_relu(0.1), elu()]
PROBLEMS = {
    "constant": constant_problem,
    "time_dependent": time_dependent_problem,
    "flow2d": flow2d_problem,
    "particle": particle_problem,
}
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


# -- the scalar reference -----------------------------------------------------


def ref_layers(model, theta):
    """(W, b, activation) per MlpSpec layer, read off the flat theta."""
    out, pos = [], 0
    for (fi, fo, has_b), act in zip(model.layer_shapes(), model.layer_activations()):
        w = theta[pos:pos + fi * fo].reshape(fo, fi)
        pos += fi * fo
        b = theta[pos:pos + fo] if has_b else None
        pos += fo if has_b else 0
        out.append((w, b, act))
    return out


def ref_forward(model, theta, t):
    """Control at one scalar time, and the per-layer (input, pre-activation)."""
    a, tape = np.full(model.in_dim, float(t)), []
    for w, b, act in ref_layers(model, theta):
        z = w @ a if b is None else w @ a + b
        tape.append((a, z))
        a = act.value(z)
    return a, tape


def ref_vjp(model, theta, t, ybar):
    """One pullback J_u(t)^T ybar, one time point at a time."""
    if isinstance(model, ConstantControl):
        return np.array(ybar, dtype=np.float64)
    if isinstance(model, SingleNeuron):
        d = float(model.activation.deriv(np.float64(theta[0] * t)))
        return np.array([ybar[0] * d * t, ybar[0]])
    _, tape = ref_forward(model, theta, t)
    layers = ref_layers(model, theta)
    blocks, g = [], np.asarray(ybar, dtype=np.float64)
    for (w, b, act), (a_prev, z) in reversed(list(zip(layers, tape))):
        g = g * act.deriv(z)
        blocks.append([np.outer(g, a_prev).ravel()] + ([] if b is None else [g]))
        g = w.T @ g
    return np.concatenate([x for blk in reversed(blocks) for x in blk])


def ref_bptt(problem, model, theta, loss):
    """The per-step discrete adjoint: K scalar forwards and K scalar pullbacks."""
    traj = integrate_euler(problem, lambda t: ref_forward(model, theta, t)[0])
    dyn, dt, mu = problem.dynamics, problem.dt, loss.mu
    xs, us, ts = traj.states, traj.controls, traj.times
    lam = xs[-1] - problem.x_star
    grad = np.zeros(theta.shape[0])
    for k in reversed(range(problem.steps)):
        g_u = dt * (dyn.dfdu(xs[k], us[k], ts[k]).T @ lam)
        if loss.integrated == "energy":
            g_u = g_u + mu * dt * us[k]
        elif loss.integrated == "work":
            g_u = g_u + mu * dt * np.array([xs[k][1]])
        grad += ref_vjp(model, theta, ts[k], g_u)
        lam = lam + dt * (dyn.dfdx(xs[k], us[k], ts[k]).T @ lam)
        if loss.integrated == "work":
            lam = lam + mu * dt * np.array([0.0, us[k][0]])
    return grad


# -- strategies ---------------------------------------------------------------

activations = st.sampled_from(ACTIVATIONS)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def mlps(draw, max_out=3):
    depth = draw(st.integers(0, 3))
    hidden = tuple(draw(st.lists(st.integers(1, 16), min_size=depth, max_size=depth)))
    return MlpSpec(hidden, activation=draw(activations),
                   out_dim=draw(st.integers(1, max_out)), use_bias=draw(st.booleans()))


def draw_inputs(model, seed, k):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=model.n_params)
    ts = rng.uniform(0.0, 2.0, size=k)
    ybar = rng.normal(size=(k, model.out_dim))
    return theta, ts, ybar


def check_batched_vjp(model, theta, ts, ybar):
    want = sum(ref_vjp(model, theta, t, y) for t, y in zip(ts, ybar))
    assert_close(model.vjp(theta, ts, ybar), want)
    assert_close(model.vjp(theta, ts[0], ybar[0]), ref_vjp(model, theta, ts[0], ybar[0]))


def check_forward_rows(model, theta, ts):
    batch = model.forward_batch(theta, ts)
    assert batch.shape == (ts.shape[0], model.out_dim)
    for k, t in enumerate(ts):
        assert_close(model.forward(theta, t), batch[k])


# -- controllers --------------------------------------------------------------


class TestMlpBatched:
    @SETTINGS
    @given(mlps(), seeds, st.integers(1, 20))
    def test_vjp_is_sum_of_scalar_pullbacks(self, model, seed, k):
        check_batched_vjp(model, *draw_inputs(model, seed, k))

    @SETTINGS
    @given(mlps(), seeds, st.integers(1, 20))
    def test_forward_is_row_of_forward_batch(self, model, seed, k):
        theta, ts, _ = draw_inputs(model, seed, k)
        check_forward_rows(model, theta, ts)
        for t in ts:
            assert_close(model.forward(theta, t), ref_forward(model, theta, t)[0])

    def test_cotangent_shape_checked(self):
        model = MlpSpec((3,), out_dim=2)
        theta = np.zeros(model.n_params)
        with pytest.raises(DimensionError):
            model.vjp(theta, np.zeros(4), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            model.vjp(theta, 0.5, np.zeros((1, 2)))


class TestSmallControllersBatched:
    @SETTINGS
    @given(activations, seeds, st.integers(1, 20))
    def test_single_neuron(self, act, seed, k):
        model = SingleNeuron(act)
        theta, ts, ybar = draw_inputs(model, seed, k)
        check_batched_vjp(model, theta, ts, ybar)
        check_forward_rows(model, theta, ts)

    @SETTINGS
    @given(st.integers(1, 3), seeds, st.integers(1, 20))
    def test_constant_control(self, out_dim, seed, k):
        model = ConstantControl(out_dim=out_dim)
        theta, ts, ybar = draw_inputs(model, seed, k)
        check_batched_vjp(model, theta, ts, ybar)
        check_forward_rows(model, theta, ts)


# -- the Euler scan -----------------------------------------------------------


class TestEulerOnSampledControls:
    @SETTINGS
    @given(st.sampled_from(sorted(PROBLEMS)), st.integers(1, 40), seeds)
    def test_array_path_is_bit_identical(self, name, steps, seed):
        problem = PROBLEMS[name](steps)
        u = np.random.default_rng(seed).normal(size=(steps, problem.dynamics.m))
        rows = iter(u)
        via_callable = integrate_euler(problem, lambda t: next(rows))
        via_array = integrate_euler(problem, u)
        assert np.array_equal(via_array.states, via_callable.states)
        assert np.array_equal(via_array.controls, via_callable.controls)
        assert np.array_equal(via_array.times, via_callable.times)

    def test_divergence_step_matches(self):
        problem = time_dependent_problem(20)
        u = np.ones((20, 1))
        u[7] = np.inf
        for controller in (u, lambda t: u[int(round(t / problem.dt))]):
            with pytest.raises(DivergenceError) as info:
                integrate_euler(problem, controller)
            assert info.value.step == 7

    def test_control_shape_checked(self):
        with pytest.raises(DimensionError):
            integrate_euler(flow2d_problem(10), np.zeros((9, 1)))

    def test_rollout_samples_the_grid(self):
        problem = flow2d_problem(15)
        model = MlpSpec((4,), activation=TANH)
        theta = np.random.default_rng(3).normal(size=model.n_params)
        traj = rollout(problem, model, theta)
        assert np.array_equal(traj.controls,
                              model.forward_batch(theta, problem.times()[:-1]))


# -- gradients ----------------------------------------------------------------


@st.composite
def gradient_cases(draw):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = PROBLEMS[name](draw(st.integers(2, 30)))
    model = draw(mlps(max_out=1))  # every problem has a scalar control
    rng = np.random.default_rng(draw(seeds))
    return problem, model, 0.5 * rng.normal(size=model.n_params)


class TestBatchedGradients:
    @SETTINGS
    @given(gradient_cases())
    def test_bptt_is_sum_of_propagated_tbptt(self, case):
        problem, model, theta = case
        want = sum(tbptt_grad(problem, model, theta, k, "propagated").grad
                   for k in range(problem.steps))
        assert_close(bptt_grad(problem, model, theta).grad, want)

    @SETTINGS
    @given(gradient_cases(), st.sampled_from(["terminal", "energy", "work"]),
           st.floats(0.0, 2.0))
    def test_bptt_matches_scalar_reference(self, case, kind, mu):
        problem, model, theta = case
        if kind == "work":  # the work functional is defined for the particle only
            problem = particle_problem(problem.steps)
        loss = {"terminal": LossSpec.terminal(), "energy": LossSpec.energy(mu),
                "work": LossSpec.work(mu)}[kind]
        assert_close(bptt_grad(problem, model, theta, loss).grad,
                     ref_bptt(problem, model, theta, loss))
