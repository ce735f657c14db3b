"""Property tests of the time-batched evaluation path against a tiny scalar
reference kept here only.

The package evaluates controllers on a whole (K,) time grid at once and
pulls K cotangents back in one batched vjp. The reference below runs the
same nets one time point at a time (W @ a per layer, np.outer per pullback),
the way a per-step loop would, and every check compares the two with
||a - b|| <= 1e-12 * ||b||. Hypothesis draws the structure (activation,
depth, widths, output size, K); the numbers come from a numpy generator
seeded by hypothesis, so shrinking never walks theta onto a relu kink.
The Euler scan is checked against a per-step scan that tests finiteness
after every step: the divergence step must match, and the states bit for
bit with one control input (at 1e-12 with more).

The population path (train_runs, a leading run axis through the nets, the
scan, bptt_grad and tbptt_grad) must equal one train call per row bit for
bit, and train, its one-run case, must equal a loop that passes one run's
1-D theta through every layer. It rests on one invariant of numpy's stacked
matvec, checked here by name: row r of np.matmul(A, X[..., None]) is
A @ X[r], and for n >= 2 also np.dot(A, X[r][:, None]), the product a
single run's scans step with; and block j of the adjoint's one gemv with a
flattened (J n, n) stack of matrices is the gemv with matrix j alone. The
adjoint is checked against the per-step loop at 1e-12, and the propagated
TBPTT adjoint against BPTT's row bit for bit. Every controller's forward,
forward_batch and vjp over an (..., P) theta must equal one call per run
bit for bit, for every activation and for MLP layers up to 122 wide. Runs
are derandomized, so a pass or a failure repeats exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odecontrol import dynamics, training
from odecontrol.dynamics import (
    ControlProblem,
    LinearDynamics,
    MovingParticleDynamics,
    euler_states,
    first_nonfinite,
    integrate_euler,
    rollout,
    run_major,
)
from odecontrol.experiments import (
    constant_problem,
    flow2d_problem,
    particle_problem,
    time_dependent_problem,
)
from odecontrol.gradients import LossSpec, bptt_grad, reset_vjp_count, tbptt_grad, vjp_count
from odecontrol.linalg import DimensionError, row_dot
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
from odecontrol.linalg import SeededRng
from odecontrol.training import (
    Adam,
    AdamState,
    Protocol,
    Sd,
    adam_step,
    sd_step,
    train,
    train_runs,
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
    for (fi, fo, has_b), act in zip(model.layer_shapes(),
                                     (model.activation,) * len(model.hidden) + (LINEAR,)):
        w = theta[pos:pos + fi * fo].reshape(fo, fi)
        pos += fi * fo
        b = theta[pos:pos + fo] if has_b else None
        pos += fo if has_b else 0
        out.append((w, b, act))
    return out


def ref_forward(model, theta, t):
    """Control at one scalar time, and the per-layer (input, pre-activation)."""
    a, tape = np.full(1, float(t)), []
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
        g_u = dt * (dyn.B.T @ lam)
        if loss.integrated == "energy":
            g_u = g_u + mu * dt * us[k]
        elif loss.integrated == "work":
            g_u = g_u + mu * dt * np.array([xs[k][1]])
        grad += ref_vjp(model, theta, ts[k], g_u)
        lam = lam + dt * (dyn.A.T @ lam)
        if loss.integrated == "work":
            lam = lam + mu * dt * np.array([0.0, us[k][0]])
    return grad


def ref_euler(problem, controls):
    """The per-step scan x + dt * (A x + B u), checking finiteness every step.

    Returns the states before the first non-finite one and that step, or all
    K+1 states and None.
    """
    dyn, dt = problem.dynamics, problem.dt
    x = problem.x0
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, u in enumerate(controls):
            x = x + dt * (dyn.A @ x + dyn.B @ u)
            if not np.all(np.isfinite(x)):
                return np.array(states), k
            states.append(x)
    return np.array(states), None


# -- strategies ---------------------------------------------------------------

activations = st.sampled_from(ACTIVATIONS)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def mlps(draw, max_out=3):
    depth = draw(st.integers(0, 3))
    hidden = tuple(draw(st.lists(st.integers(1, 16), min_size=depth, max_size=depth)))
    return MlpSpec(hidden, activation=draw(activations),
                   out_dim=draw(st.integers(1, max_out)), use_bias=draw(st.booleans()))


scales = st.sampled_from([1e-3, 1.0, 1e3, 1e150, 1e300])  # the last two can overflow


def signed_zeros(rng, a):
    """a with about half its finite entries replaced by +0 or -0."""
    zero = (rng.random(a.shape) < 0.5) & np.isfinite(a)
    return np.where(zero, rng.choice([0.0, -0.0], a.shape), a)


@st.composite
def linear_runs(draw, driftless=False):
    """A random x' = A x + B u problem and K controls, maybe one inf or NaN.

    driftless draws A = +0 or -0 with signed zeros in x0 and the controls,
    where the scan is a prefix sum of (+0 + B u_k) dt.
    """
    n, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 40))
    a_scale, b_scale, x_scale, u_scale = (draw(scales) for _ in range(4))
    rng = np.random.default_rng(draw(seeds))
    a, b = a_scale * rng.normal(size=(n, n)), b_scale * rng.normal(size=(n, m))
    x0, horizon = x_scale * rng.normal(size=n), rng.uniform(0.1, 5.0)
    u = u_scale * rng.normal(size=(k, m))
    if draw(st.booleans()):
        row, col = draw(st.integers(0, k - 1)), draw(st.integers(0, m - 1))
        u[row, col] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    if driftless:
        a = np.full((n, n), draw(st.sampled_from([0.0, -0.0])))
        x0, u = signed_zeros(rng, x0), signed_zeros(rng, u)
    problem = ControlProblem(LinearDynamics(a, b), x0, np.zeros(n), horizon, k)
    return problem, u


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


@st.composite
def mlp_populations(draw):
    """An MlpSpec with layers up to 122 wide, an (R, P) theta of up to 40
    runs, and K times."""
    depth = draw(st.integers(0, 3))
    hidden = tuple(draw(st.lists(st.integers(1, 122), min_size=depth, max_size=depth)))
    model = MlpSpec(hidden, activation=draw(activations), out_dim=draw(st.integers(1, 2)),
                    use_bias=draw(st.booleans()))
    rng = np.random.default_rng(draw(seeds))
    thetas = rng.normal(size=(draw(st.integers(1, 40)), model.n_params))
    return model, thetas, rng.uniform(0.0, 2.0, size=draw(st.integers(1, 100)))


def check_population_forward(model, thetas, ts):
    """forward_batch over (..., P) thetas against one call per run, bit for bit."""
    batch = model.forward_batch(thetas, ts)
    assert batch.shape == thetas.shape[:-1] + (ts.shape[0], model.out_dim)
    for r in np.ndindex(thetas.shape[:-1]):
        assert np.array_equal(batch[r], model.forward_batch(thetas[r], ts))


def check_population_vjp(model, thetas, ts):
    """vjp over (..., P) thetas and (..., K, out) cotangents against one call
    per run, bit for bit, for the K times and for the first alone."""
    ybar = np.random.default_rng(ts.size).normal(
        size=thetas.shape[:-1] + (ts.shape[0], model.out_dim))
    grad = model.vjp(thetas, ts, ybar)
    first = model.vjp(thetas, ts[0], ybar[..., 0, :])
    assert grad.shape == first.shape == thetas.shape
    for r in np.ndindex(thetas.shape[:-1]):
        assert grad[r].tobytes() == model.vjp(thetas[r], ts, ybar[r]).tobytes()
        assert first[r].tobytes() == model.vjp(thetas[r], ts[0], ybar[r][0]).tobytes()


class TestMlpPopulationForward:
    @SETTINGS
    @given(mlp_populations())
    def test_rows_are_single_calls(self, case):
        check_population_forward(*case)

    @SETTINGS
    @given(mlp_populations())
    def test_vjp_rows_are_single_calls(self, case):
        check_population_vjp(*case)

    @pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
    @pytest.mark.parametrize("use_bias", [True, False], ids=["bias", "no_bias"])
    def test_widest_nets(self, act, use_bias):
        model = MlpSpec((122, 122), activation=act, out_dim=2, use_bias=use_bias)
        rng = np.random.default_rng(4)
        thetas, ts = rng.normal(size=(40, model.n_params)), rng.uniform(0.0, 2.0, 100)
        for check in (check_population_forward, check_population_vjp):
            check(model, thetas, ts)
            check(model, thetas[:6].reshape(2, 3, -1), ts)

    def test_theta_width_checked(self):
        model = MlpSpec((3,), out_dim=2)
        thetas = np.zeros((2, model.n_params + 1))
        with pytest.raises(DimensionError, match=r"\(\.\.\., P\) with P = 14"):
            model.forward_batch(thetas, np.zeros(4))
        with pytest.raises(DimensionError):
            model.forward(thetas, 0.5)
        with pytest.raises(DimensionError):
            model.vjp(thetas, np.zeros(4), np.zeros((2, 4, 2)))


@st.composite
def any_models(draw):
    """An MlpSpec, a SingleNeuron or a ConstantControl."""
    kind = draw(st.sampled_from(["mlp", "neuron", "constant"]))
    if kind == "mlp":
        return draw(mlps())
    if kind == "neuron":
        return SingleNeuron(draw(activations))
    return ConstantControl(out_dim=draw(st.integers(1, 3)))


class TestForwardRunAxis:
    @SETTINGS
    @given(any_models(), st.one_of(st.just(()), st.tuples(st.integers(1, 6)), st.just((2, 3))),
           seeds)
    def test_forward_is_forward_batch_at_one_time(self, model, runs, seed):
        # forward(theta, t) is forward_batch(theta, [t])[..., 0, :] for every
        # run shape, and each run's row is its own 1-D call
        rng = np.random.default_rng(seed)
        thetas, t = rng.normal(size=runs + (model.n_params,)), rng.uniform(0.0, 2.0)
        got = model.forward(thetas, t)
        assert got.shape == runs + (model.out_dim,)
        assert got.tobytes() == model.forward_batch(thetas, [t])[..., 0, :].tobytes()
        for r in np.ndindex(runs):
            assert got[r].tobytes() == model.forward(thetas[r], t).tobytes()

    def test_single_neuron_gives_every_run(self):
        thetas = np.array([[2.0, 1.5], [1.0, 0.0], [-4.0, 1.0]])
        assert SingleNeuron().forward(thetas, 0.5).tolist() == [[2.5], [0.5], [-1.0]]


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


def check_scan_against_reference(problem, u):
    """integrate_euler and first_nonfinite against ref_euler: the same first
    bad step, and the same bytes at m = 1 up to it."""
    want, step = ref_euler(problem, u)
    assert first_nonfinite(euler_states(problem, u)) == (-1 if step is None else step)
    got = integrate_euler(problem, u).states
    assert first_nonfinite(got) == (-1 if step is None else step)
    got = got[:len(want)]
    if u.shape[1] == 1:  # bytes, so that -0 and +0 differ
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:  # B u_k is one row of U B^T, not a per-step B @ u_k
        scale = np.abs(want).max() or 1.0  # keeps the norms finite
        assert_close(got / scale, want / scale)


@st.composite
def euler_populations(draw):
    """A linear_runs problem and a run axis of controls, one row of which
    has an inf or NaN entry."""
    problem, _ = draw(linear_runs(driftless=draw(st.booleans())))
    k, m = problem.steps, problem.dynamics.m
    lead = draw(st.sampled_from([(2,), (5,), (2, 3)]))
    u = draw(scales) * np.random.default_rng(draw(seeds)).normal(size=lead + (k, m))
    bad = tuple(draw(st.integers(0, n - 1)) for n in lead)
    u[bad + (draw(st.integers(0, k - 1)), draw(st.integers(0, m - 1)))] = \
        draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return problem, u


class TestEulerOnSampledControls:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(euler_populations())
    def test_runs_are_single_calls(self, case):
        # each row of a run-axis call is its own call's values, the finite
        # ones bit for bit, and first_nonfinite gives each row the per-step
        # reference's step; a NaN's sign bit may differ, as the stacked and
        # the single BLAS call may make it from different operations
        problem, u = case
        traj = integrate_euler(problem, u)
        steps = first_nonfinite(traj.states)
        assert traj.states.shape == u.shape[:-2] + (problem.steps + 1, problem.dynamics.n)
        assert steps.shape == u.shape[:-2] and (steps >= 0).any()
        for r in np.ndindex(u.shape[:-2]):
            one = integrate_euler(problem, u[r])
            assert traj.controls[r].tobytes() == one.controls.tobytes()
            step = ref_euler(problem, u[r])[1]
            assert steps[r] == first_nonfinite(one.states) == (-1 if step is None else step)
            finite = problem.steps + 1 if step is None else step + 1
            assert traj.states[r][:finite].tobytes() == one.states[:finite].tobytes()
            assert np.array_equal(traj.states[r], one.states, equal_nan=True)

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
        # the loop (A = 1) and the driftless prefix sum (A = 0)
        u = np.ones((20, 1))
        u[7] = np.inf
        for problem in (time_dependent_problem(20), constant_problem(20)):
            for controller in (u, lambda t: u[int(round(t / problem.dt))]):
                traj = integrate_euler(problem, controller)
                assert first_nonfinite(traj.states) == 7

    def test_prefix_sum_step_starts_from_plus_zero(self, monkeypatch):
        # numpy's U B^T sums from +0, so it never returns -0; a product that
        # kept an exact zero's sign would, and the loop's step would still be
        # (A x_k + B u_k) dt = (+0 - 0) dt = +0, so x0 = -0 plus it is +0
        orig = dynamics.time_major
        monkeypatch.setattr(dynamics, "time_major",
                            lambda a: np.where(orig(a) == 0.0, -0.0, orig(a)))
        problem = ControlProblem(LinearDynamics([[-0.0]], [[1.0]]), [-0.0], [1.0], 1.0, 5)
        got = integrate_euler(problem, np.zeros((5, 1))).states
        assert got.tobytes() == np.array([[-0.0]] + [[0.0]] * 5).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(linear_runs())
    def test_scan_matches_per_step_reference(self, run):
        check_scan_against_reference(*run)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(linear_runs(driftless=True))
    def test_prefix_sum_matches_per_step_reference(self, run):
        check_scan_against_reference(*run)

    @SETTINGS
    @given(seeds, st.integers(1, 40))
    def test_particle_matrices_are_the_hand_written_field(self, seed, k):
        rng = np.random.default_rng(seed)
        dyn = MovingParticleDynamics()
        x, u = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=2), rng.normal(size=1)
        assert np.array_equal(dyn.A @ x + dyn.B @ u, [x[1], -x[1] + u[0]])
        problem = ControlProblem(dyn, x, [1.0, 1.0], rng.uniform(0.1, 5.0), k)
        us = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=(k, 1))
        want = [x]
        for uk in us:
            x = x + problem.dt * np.array([x[1], -x[1] + uk[0]])
            want.append(x)
        assert np.array_equal(integrate_euler(problem, us).states, want)

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


def loop_bptt(problem, model, theta, loss):
    """bptt_grad's adjoint as the K - 1 step loop lambda + dt A^T lambda, on
    the package's rollout, for terminal and energy losses; the package takes
    the first step and applies the propagator stack to its result."""
    traj = rollout(problem, model, theta)
    a_t, dt, k_steps = problem.dynamics.A.T, problem.dt, problem.steps
    runs = traj.controls.shape[:-2]
    lams = np.empty((k_steps,) + runs + (problem.dynamics.n, 1))
    lams[-1] = (traj.states[..., k_steps, :] - problem.x_star)[..., None]
    step = np.empty(runs + (problem.dynamics.n, 1))
    for lam, lam_prev in zip(lams[:0:-1], lams[-2::-1]):
        np.matmul(a_t, lam, step)
        step *= dt
        np.add(lam, step, lam_prev)
    g_us = dt * np.matmul(run_major(lams[..., 0]), problem.dynamics.B)
    if loss.integrated == "energy":
        g_us += loss.mu * dt * traj.controls
    return model.vjp(theta, traj.times[:-1], g_us), loss.value(traj, problem.x_star)


@st.composite
def driftless_cases(draw):
    """x' = B u with A = +0 or -0, n and m up to 3, K up to 30, and a model
    with one theta or a population of four. x* is random, equal to the first
    run's x_K (lambda_K = +0), or such that lambda_K overflows to inf."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        model = draw(st.sampled_from(SMALL_MODELS))
        theta = rng.normal(size=(4, model.n_params))
    else:
        model = draw(mlps())
        theta = rng.normal(size=model.n_params)
    a = np.full((n, n), draw(st.sampled_from([0.0, -0.0])))
    b = rng.normal(size=(n, getattr(model, "out_dim", 1)))
    target = draw(st.sampled_from(["random", "reached", "overflow"]))
    x0 = np.full(n, 1e308) if target == "overflow" else rng.normal(size=n)
    problem = ControlProblem(LinearDynamics(a, b), x0, np.zeros(n), rng.uniform(0.1, 5.0), k)
    if target == "reached":
        x_star = rollout(problem, model, theta).states[(0,) * (theta.ndim - 1) + (-1,)]
    else:
        x_star = -x0 if target == "overflow" else rng.normal(size=n)
    return dataclasses.replace(problem, x_star=x_star), model, theta


class TestDriftlessAdjoint:
    """With A = 0 the adjoint step maps lambda to itself (+0 for +-0, NaN for
    +-inf) and every propagator power is the identity exactly, so the first
    step and one product equal the loop byte for byte."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(driftless_cases(), st.sampled_from([None, 0.0, 0.7]))
    def test_bptt_equals_loop(self, case, mu):
        problem, model, theta = case
        loss = LossSpec.terminal() if mu is None else LossSpec.energy(mu)
        with np.errstate(over="ignore", invalid="ignore"):
            got = bptt_grad(problem, model, theta, loss)
            want_grad, want_loss = loop_bptt(problem, model, theta, loss)
        assert got.grad.tobytes() == want_grad.tobytes()
        assert np.asarray(got.loss).tobytes() == np.asarray(want_loss).tobytes()

    @pytest.mark.parametrize("runs", [(), (4,)], ids=["single", "population"])
    def test_zero_and_overflowing_lambda(self, runs):
        # u = -1 over 8 steps of 1/8 lands exactly on x* = x0 - 1, so
        # lambda_K = +0; x_K - x* = 2e308 overflows to inf, which the one
        # real step turns into NaN
        model = ConstantControl()
        theta = np.full(runs + (1,), -1.0)
        for x0, nan in ((0.0, False), (1e308, True)):
            x_star = -x0 if nan else x0 - 1.0
            problem = ControlProblem(LinearDynamics([[0.0]], [[1.0]]), [x0], [x_star], 1.0, 8)
            with np.errstate(over="ignore", invalid="ignore"):
                for loss in (LossSpec.terminal(), LossSpec.energy(0.5)):
                    got = bptt_grad(problem, model, theta, loss).grad
                    assert got.tobytes() == loop_bptt(problem, model, theta, loss)[0].tobytes()
                    if loss.integrated is None:  # NaN everywhere, or +0 everywhere
                        assert np.isnan(got).all() if nan else (
                            got.tobytes() == np.zeros_like(got).tobytes())


@st.composite
def drift_cases(draw):
    """x' = A x + B u with a random A != 0, n up to 3 and K up to 300, and a
    model with one theta or a population (four runs of a small controller or
    three of an MLP)."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(seeds))
    population = draw(st.booleans())
    if population and draw(st.booleans()):
        model = draw(st.sampled_from(SMALL_MODELS))
        theta = rng.normal(size=(4, model.n_params))
    else:
        model = draw(mlps())
        theta = rng.normal(size=(3, model.n_params) if population else model.n_params)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, getattr(model, "out_dim", 1)))
    problem = ControlProblem(LinearDynamics(a, b), rng.normal(size=n), rng.normal(size=n),
                             rng.uniform(0.1, 5.0), k)
    return problem, model, theta


class CotangentRecorder:
    """A model whose pullback records the cotangents it is handed."""

    def __init__(self, model):
        self.model, self.seen = model, []

    def forward_batch(self, theta, ts):
        return self.model.forward_batch(theta, ts)

    def vjp(self, theta, ts, ybar):
        self.seen.append(np.array(ybar))
        return self.model.vjp(theta, ts, ybar)


class TestPropagatorStack:
    """Without a work cost the adjoint is the first step, then one product
    with the problem's cached stack of powers (I + dt A^T)^j."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(drift_cases(), st.sampled_from([None, 0.0, 0.7]))
    def test_bptt_matches_per_step_loop(self, case, mu):
        problem, model, theta = case
        loss = LossSpec.terminal() if mu is None else LossSpec.energy(mu)
        want_grad, want_loss = loop_bptt(problem, model, theta, loss)
        got = bptt_grad(problem, model, theta, loss)
        assert_close(got.grad, want_grad)
        assert np.asarray(got.loss).tobytes() == np.asarray(want_loss).tobytes()

    @SETTINGS
    @given(gradient_cases(), st.booleans())
    def test_propagated_tbptt_is_bptt_row(self, case, population):
        # every shipped B has entries 0 and 1, so a cotangent is dt times
        # one adjoint entry, exactly, and equal cotangents mean equal adjoints
        problem, model, theta = case
        if population:
            theta = np.stack([theta, -theta, 2.0 * theta])
        full = CotangentRecorder(model)
        bptt_grad(problem, full, theta)
        (rows,) = full.seen
        for k in range(problem.steps):
            one = CotangentRecorder(model)
            tbptt_grad(problem, one, theta, k, "propagated")
            assert one.seen[0].tobytes() == rows[..., k, :].tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("runs", [(), (4,)], ids=["single", "population"])
    def test_short_horizons(self, steps, runs):
        # K = 1 takes no step and K = 2 only the first one, so both are the
        # loop's bits; K = 3 applies P_1 = I + dt A^T once
        problem = dataclasses.replace(flow2d_problem(), steps=steps)
        model = SingleNeuron(TANH)
        theta = np.random.default_rng(steps).normal(size=runs + (model.n_params,))
        powers = problem.adjoint_powers
        assert powers.shape == (steps - 1, 2, 2)
        if steps > 1:
            assert np.array_equal(powers[-1], np.eye(2))
        if steps == 3:
            assert np.array_equal(powers[0], np.eye(2) + problem.dt * problem.dynamics.A.T)
        for loss in (LossSpec.terminal(), LossSpec.energy(0.5)):
            got = bptt_grad(problem, model, theta, loss).grad
            want = loop_bptt(problem, model, theta, loss)[0]
            if steps < 3:
                assert got.tobytes() == want.tobytes()
            else:
                assert_close(got, want)
        total = sum(tbptt_grad(problem, model, theta, k).grad for k in range(steps))
        assert_close(total, bptt_grad(problem, model, theta).grad)

    def test_stack_is_cached_read_only(self):
        problem = flow2d_problem(50)
        powers = problem.adjoint_powers
        assert powers is problem.adjoint_powers
        assert not powers.flags.writeable and powers.flags.c_contiguous
        with pytest.raises(ValueError):
            powers[0, 0, 0] = 1.0
        # row k maps lambda_{K-1} to lambda_{k+1}: (I + dt A^T)^(K-2-k)
        step = np.eye(2) + problem.dt * problem.dynamics.A.T
        assert np.array_equal(powers[-2], step)
        assert_close(powers[0], np.linalg.matrix_power(step, 48))
        shorter = dataclasses.replace(problem, steps=20)
        assert shorter.adjoint_powers is not powers
        assert shorter.adjoint_powers.shape == (19, 2, 2)
        same = dataclasses.replace(problem)
        assert same.adjoint_powers is not powers
        assert same.adjoint_powers.tobytes() == powers.tobytes()


# -- the population axis ------------------------------------------------------


def same_bits(got, want):
    """Equal bytes, every NaN counted as the same value."""
    got, want = (np.where(np.isnan(v), np.nan, v) for v in (got, want))
    return got.tobytes() == want.tobytes()


class TestStackedMatvecInvariant:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 64), scales, scales, seeds, st.booleans())
    def test_stacked_matvec_rows_are_single_matvecs(self, n, runs, a_scale, x_scale, seed,
                                                    poison):
        rng = np.random.default_rng(seed)
        a = a_scale * rng.normal(size=(n, n))
        x = x_scale * rng.normal(size=(runs, n))
        if poison:  # one inf or NaN entry in A or in some row
            target = a if rng.random() < 0.5 else x
            target.flat[rng.integers(target.size)] = rng.choice([np.inf, -np.inf, np.nan])
        one = np.empty((n, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for mat in (a, a.T):  # the scan multiplies by A, the adjoint by A^T
                stacked = np.matmul(mat, x[..., None])[..., 0]
                for r in range(runs):
                    assert np.array_equal(stacked[r], mat @ x[r], equal_nan=True)
                    if n >= 2:  # a single run's scan steps its column with np.dot
                        np.dot(mat, x[r][:, None], one)
                        assert same_bits(one[:, 0], stacked[r])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 8), scales, scales, seeds)
    def test_flattened_stack_blocks_are_single_matvecs(self, n, count, runs, p_scale,
                                                       x_scale, seed):
        # bptt_grad applies the whole propagator stack in one gemv per run,
        # tbptt_grad one matrix of it: block j must be the same product
        rng = np.random.default_rng(seed)
        powers = p_scale * rng.normal(size=(count, n, n))
        x = x_scale * rng.normal(size=(runs, n, 1))
        flat = powers.reshape(-1, n)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = np.matmul(flat, x).reshape(runs, count, n, 1)
            for r in range(runs):
                single = np.dot(flat, x[r]) if n >= 2 else np.matmul(flat, x[r])
                assert same_bits(single, stacked[r].reshape(-1, 1))
                for j in range(count):
                    one = np.dot(powers[j], x[r]) if n >= 2 else np.matmul(powers[j], x[r])
                    assert same_bits(one, stacked[r, j])

    def test_one_by_one_dot_keeps_the_sign_of_zero(self):
        # why a single run with n = 1 keeps np.matmul: np.dot skips BLAS there
        a, x = np.array([[0.0]]), np.array([[-1.0]])
        assert not np.signbit(np.matmul(a, x)[0, 0])
        assert np.signbit(np.dot(a, x)[0, 0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40), st.integers(1, 64),
           scales, seeds)
    def test_time_major_products_are_single_products(self, n, m, k, runs, scale, seed):
        # the adjoint's cotangents: run r's (K, n) rows, read from the
        # (K, runs, n) buffer, times B, against the single run's lams @ B
        rng = np.random.default_rng(seed)
        lams, b = scale * rng.normal(size=(k, runs, n)), rng.normal(size=(n, m))
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = np.matmul(run_major(lams), b)
            for r in range(runs):
                assert np.array_equal(stacked[r], lams[:, r].copy() @ b, equal_nan=True)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(1, 64), st.integers(1, 3), scales, seeds)
    def test_row_dot_rows_are_single_dots(self, size, runs, stride, scale, seed):
        # d @ d of the loss, grad @ grad of the history and the strided v @ u
        # of the work functional, one BLAS dot per run
        rng = np.random.default_rng(seed)
        a, b = scale * rng.normal(size=(2, runs, size, stride))
        with np.errstate(over="ignore", invalid="ignore"):
            got = row_dot(a[..., 0], b[..., -1])
            for r in range(runs):
                assert np.array_equal(got[r], a[r, :, 0] @ b[r, :, -1], equal_nan=True)


SMALL_MODELS = [SingleNeuron(act) for act in ACTIVATIONS] + [ConstantControl()]
# thetas whose runs under Sd(60) stop at different epochs while others finish
DIVERGE_ALONE = np.array([[1.0, 0.5], [1e100, 1.0], [1e200, -1e150], [0.3, 0.2],
                          [1e250, 1e250]])
EPOCHS_DIFFER = np.array([[1.0, 0.5], [1e100, 1.0], [1e200, -1e150], [1e250, 1e250]])


def model_id(model):
    return getattr(getattr(model, "activation", None), "kind", "constant")


def assert_same_result(got, want):
    """Every field of two TrainResults equal: arrays bit for bit, NaN where NaN."""
    for name in ("epochs", "loss", "energy", "grad_norm", "delta_u_direct",
                 "delta_u_pred", "e_dot_l", "cos_angle"):
        assert np.array_equal(getattr(got.history, name), getattr(want.history, name),
                              equal_nan=True), name
    for name in ("theta_best", "theta_final"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    for name in ("loss_best", "best_epoch", "diverged", "diverged_at", "diverged_step"):
        assert getattr(got, name) == getattr(want, name), name
    if want.trajectory_best is None:
        assert got.trajectory_best is None
    else:
        for name in ("times", "states", "controls"):
            assert np.array_equal(getattr(got.trajectory_best, name),
                                  getattr(want.trajectory_best, name)), name


def check_population(problem, model, thetas, optimizer, epochs, loss=LossSpec(),
                     protocol=Protocol(), seed=0, **recorders):
    """train_runs against one train call per row, vjp counts included;
    recorders are train's record_* flags."""
    kw = dict(loss=loss, protocol=protocol, seed=seed, **recorders)
    with np.errstate(over="ignore", invalid="ignore"):
        reset_vjp_count()
        got = train_runs(problem, model, thetas, optimizer, epochs, **kw)
        vjps = vjp_count()
        want, want_vjps = [], 0
        for theta in thetas:
            reset_vjp_count()
            want.append(train(problem, model, theta, optimizer, epochs, **kw))
            want_vjps += vjp_count()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_result(g, w)
    assert vjps == want_vjps
    return want


# under Sd(1e6) rows from 1e100 up overflow within 30 epochs, each at an epoch set
# by its scale, while rows near 1 go on
theta_scales = st.sampled_from([1e-3, 1.0, 1e3, 1e100, 1e150, 1e200, 1e250, 1e300])


PROTOCOLS = [Protocol()] + [Protocol("tbptt", variant, schedule)
                             for variant in ("propagated", "frozen")
                             for schedule in ("cyclic", "random")]


@st.composite
def populations(draw):
    """A shipped problem, a small controller or MLP, up to six theta rows of
    mixed scale (the large ones overflow at different epochs), an optimizer,
    bptt or a tbptt protocol with the seed its runs share, and the
    recorders (delta-u on the scalar linear flows only)."""
    problem = PROBLEMS[draw(st.sampled_from(sorted(PROBLEMS)))](draw(st.integers(2, 30)))
    model = draw(st.one_of(st.sampled_from(SMALL_MODELS), mlps(max_out=1)))
    runs = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    row_scales = [draw(theta_scales) for _ in range(runs)]
    thetas = np.array(row_scales)[:, None] * rng.normal(size=(runs, model.n_params))
    optimizer = draw(st.sampled_from([Adam(0.1), Sd(0.1), Sd(1e6), Sd(1e6)]))
    recorders = dict(record_delta_u=problem.dynamics.n == 1 and draw(st.booleans()),
                     record_energy_identity=draw(st.booleans()))
    return (problem, model, thetas, optimizer, draw(st.sampled_from(PROTOCOLS)),
            draw(st.integers(0, 2**16)), recorders)


class TestPopulationTraining:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(populations())
    def test_each_run_equals_its_own_train(self, case):
        problem, model, thetas, optimizer, protocol, seed, recorders = case
        check_population(problem, model, thetas, optimizer, 30, protocol=protocol, seed=seed,
                         **recorders)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("model", SMALL_MODELS, ids=model_id)
    def test_runs_diverge_alone(self, name, model):
        thetas = DIVERGE_ALONE[:, :model.n_params]
        want = check_population(PROBLEMS[name](20), model, thetas, Sd(60.0), 60)
        stops = {w.diverged_at for w in want if w.diverged}
        assert len(stops) >= 1 and any(not w.diverged for w in want)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("model", SMALL_MODELS, ids=model_id)
    def test_diverged_rows_are_returned(self, name, model):
        # the iterates at which test_runs_diverge_alone's runs stopped (or
        # finished): rollout and bptt_grad return the diverged rows as
        # non-finite states, and every finite row is that run's own call
        problem = PROBLEMS[name](20)
        with np.errstate(over="ignore", invalid="ignore"):
            runs = train_runs(problem, model, DIVERGE_ALONE[:, :model.n_params], Sd(60.0), 60)
            thetas = np.array([r.theta_final for r in runs])
            traj = rollout(problem, model, thetas)
            res = bptt_grad(problem, model, thetas)
            steps = first_nonfinite(traj.states)
            assert steps.tolist() == [-1 if r.diverged_step is None else r.diverged_step
                                      for r in runs]
            assert (steps >= 0).any() and (steps < 0).any()
            assert np.array_equal(first_nonfinite(res.trajectory.states), steps)
            for r in np.flatnonzero(steps < 0):
                one = rollout(problem, model, thetas[r])
                one_res = bptt_grad(problem, model, thetas[r])
                assert traj.states[r].tobytes() == one.states.tobytes()
                assert traj.controls[r].tobytes() == one.controls.tobytes()
                assert res.grad[r].tobytes() == one_res.grad.tobytes()
                assert res.loss[r] == one_res.loss

    def test_divergence_epochs_differ(self):
        want = check_population(flow2d_problem(25), SingleNeuron(RELU), EPOCHS_DIFFER,
                                Sd(60.0), 60)
        assert [w.diverged_at for w in want] == [None, None, 48, 26]

    def test_one_gradient_call_per_epoch(self, monkeypatch):
        # the runs of test_divergence_epochs_differ stop at epochs 48 and 26,
        # and each epoch, those two included, is one bptt_grad call
        calls = []

        def counted(*args):
            calls.append(args)
            return bptt_grad(*args)

        monkeypatch.setattr(training, "bptt_grad", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            got = train_runs(flow2d_problem(25), SingleNeuron(RELU), EPOCHS_DIFFER, Sd(60.0), 60)
        assert [g.diverged_at for g in got] == [None, None, 48, 26]
        assert len(calls) == 60

    @pytest.mark.parametrize("loss", [LossSpec.energy(0.5), LossSpec.work(0.2)])
    def test_integrated_costs(self, loss):
        rng = np.random.default_rng(5)
        check_population(particle_problem(25), SingleNeuron(elu()), rng.normal(size=(4, 2)),
                         Adam(0.05), 20, loss=loss)

    @pytest.mark.parametrize("protocol", PROTOCOLS,
                             ids=lambda p: f"{p.kind}-{p.variant}-{p.schedule}")
    def test_mlp_run_diverges_alone(self, protocol):
        # one row of four overflows at an epoch after 0 while the others go on
        model = MlpSpec((5, 4), activation=elu())
        thetas = 0.5 * np.random.default_rng(8).normal(size=(4, model.n_params))
        thetas[2] *= 30.0
        want = check_population(flow2d_problem(20), model, thetas, Sd(0.05), 40,
                                protocol=protocol, seed=3)
        assert [w.diverged for w in want] == [False, False, True, False]
        assert want[2].diverged_at > 0
        # rows 1-2: row 1 finishes alone, on the one-run path of the scans
        pair = check_population(flow2d_problem(20), model, thetas[1:3], Sd(0.05), 40,
                                protocol=protocol, seed=3)
        assert_same_result(pair[0], want[1])
        assert_same_result(pair[1], want[2])

    @pytest.mark.parametrize("name", ["constant", "time_dependent"])
    @pytest.mark.parametrize("optimizer, scale", [(Sd(0.05), 30.0), (Adam(0.05), 1e100)],
                             ids=["sd", "adam"])
    def test_recorded_run_diverges_alone(self, name, optimizer, scale):
        # both recorders on four MLP runs of a scalar linear flow, one of
        # which overflows after epoch 0 while the others record every epoch
        model = MlpSpec((5, 4), activation=elu())
        thetas = 0.5 * np.random.default_rng(8).normal(size=(4, model.n_params))
        thetas[2] *= scale
        want = check_population(PROBLEMS[name](20), model, thetas, optimizer, 40,
                                record_delta_u=True, record_energy_identity=True)
        assert [w.diverged for w in want] == [False, False, True, False]
        assert want[2].diverged_at > 0
        for w in want[:2] + want[3:]:
            assert np.isfinite(w.history.delta_u_direct).all()
            assert np.isfinite(w.history.e_dot_l).all()

    def test_more_than_one_run_rejects_what_it_does_not_batch(self):
        problem, thetas = constant_problem(10), np.zeros((2, 2))
        model = SingleNeuron(RELU)
        with pytest.raises(ValueError, match="unknown optimizer"):
            train_runs(problem, model, thetas, [Sd(0.1), Sd(0.2)], 3)
        with pytest.raises(ValueError, match="one LossSpec"):
            train_runs(problem, model, thetas, Sd(0.1), 3, loss=[LossSpec(), LossSpec()])

    def test_one_run_may_use_tbptt_and_recorders(self):
        problem = constant_problem(10)
        got = train_runs(problem, SingleNeuron(), np.array([[0.3, 0.2]]), Sd(0.1), 5,
                         protocol=Protocol("tbptt"), record_delta_u=True)
        want = train(problem, SingleNeuron(), np.array([0.3, 0.2]), Sd(0.1), 5,
                     protocol=Protocol("tbptt"), record_delta_u=True)
        assert_same_result(got[0], want)


# -- train against a loop without the run axis --------------------------------


def loop_train(problem, model, theta0, optimizer, epochs, protocol, seed):
    """train's epoch loop for one run, passing its 1-D theta through
    bptt_grad or tbptt_grad and sd_step or adam_step, so that no layer sees
    a run axis. Returns the fields of the TrainResult it should equal."""
    rng = SeededRng(seed)
    theta = np.asarray(theta0, dtype=np.float64)
    state = AdamState.zeros(theta.shape)
    history = {"loss": [], "energy": [], "grad_norm": []}
    loss_best, best_epoch, theta_best, traj_best = np.inf, -1, theta, None
    diverged_at = diverged_step = None
    for epoch in range(epochs):
        if protocol.kind == "tbptt" and protocol.schedule == "random":
            k_index = rng.integers(0, problem.steps)
        else:
            k_index = epoch % problem.steps
        with np.errstate(over="ignore", invalid="ignore"):
            if protocol.kind == "bptt":
                grad, loss, traj = bptt_grad(problem, model, theta)
            else:
                grad, loss, traj = tbptt_grad(problem, model, theta, k_index, protocol.variant)
            step = int(first_nonfinite(traj.states))
            if step >= 0:
                diverged_at, diverged_step = epoch, step
                break
            if epoch == 0:
                traj_best = traj
            if loss < loss_best:
                loss_best, best_epoch, theta_best, traj_best = loss, epoch, theta, traj
            history["loss"].append(loss)
            history["energy"].append(dynamics.control_energy(traj))
            history["grad_norm"].append(float(np.sqrt(grad @ grad)))
            if isinstance(optimizer, Sd):
                theta = sd_step(theta, grad, optimizer.eta)
            else:
                state, theta = adam_step(state, theta, grad, optimizer)
    return dict(history=history, theta_best=theta_best, loss_best=loss_best,
                best_epoch=best_epoch, theta_final=theta, trajectory_best=traj_best,
                diverged_at=diverged_at, diverged_step=diverged_step)


def check_against_loop(problem, model, theta0, optimizer, epochs, protocol, seed=5):
    """Every field of train's result against loop_train's, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = train(problem, model, theta0, optimizer, epochs, protocol=protocol, seed=seed)
    want = loop_train(problem, model, theta0, optimizer, epochs, protocol, seed)
    for name, series in want["history"].items():
        assert np.asarray(getattr(got.history, name)).tobytes() == \
            np.asarray(series, dtype=np.float64).tobytes(), name
    assert got.history.epochs == list(range(len(want["history"]["loss"])))
    for name in ("theta_best", "theta_final"):
        assert getattr(got, name).tobytes() == want[name].tobytes(), name
    for name in ("loss_best", "best_epoch", "diverged_at", "diverged_step"):
        assert getattr(got, name) == want[name], name
    assert got.diverged == (want["diverged_at"] is not None)
    if want["trajectory_best"] is None:
        assert got.trajectory_best is None
    else:
        for name in ("states", "controls"):
            assert getattr(got.trajectory_best, name).tobytes() == \
                getattr(want["trajectory_best"], name).tobytes(), name
    return got


class TestTrainAgainstOneRunLoop:
    """train is train_runs at R = 1, so its run-axis path is checked against
    a loop that never builds a run axis."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("protocol", PROTOCOLS[:1] + PROTOCOLS[2:4],
                             ids=lambda p: f"{p.kind}-{p.variant}-{p.schedule}")
    @pytest.mark.parametrize("optimizer", [Sd(2e-3), Adam(5e-3)], ids=["sd", "adam"])
    def test_mlp_equals_loop(self, name, protocol, optimizer):
        model = MlpSpec((6, 5), activation=TANH)
        theta0 = 0.5 * np.random.default_rng(len(name)).normal(size=model.n_params)
        got = check_against_loop(PROBLEMS[name](30), model, theta0, optimizer, 25, protocol)
        assert not got.diverged and got.best_epoch > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS,
                             ids=lambda p: f"{p.kind}-{p.variant}-{p.schedule}")
    def test_diverging_mlp_equals_loop(self, protocol):
        # the diverging row of test_mlp_run_diverges_alone, trained alone
        model = MlpSpec((5, 4), activation=elu())
        theta0 = 15.0 * np.random.default_rng(8).normal(size=(4, model.n_params))[2]
        got = check_against_loop(flow2d_problem(20), model, theta0, Sd(0.05), 40, protocol,
                                 seed=3)
        assert got.diverged_at > 0 and got.diverged_step >= 0
