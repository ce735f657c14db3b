"""Projections of the loss surface around a parameter vector. The center of
the grid must reproduce the plain evaluation of that vector exactly, grids
must be bit-reproducible from their seed, and worker pools must not change
a single value. project evaluates blocks of cells as populations; every
cell must equal the one-cell-at-a-time evaluation kept here as a reference,
bit for bit, NaN where it is NaN."""

import json

import numpy as np
import pytest

from odecontrol import landscape
from odecontrol.dynamics import (
    ControlProblem,
    control_energy,
    euler_states,
    first_nonfinite,
    integrate_euler,
    mse_control,
    mse_times,
    sample_control,
    scalar_linear,
    terminal_loss,
)
from odecontrol.experiments import Axis, constant_problem, flow2d_problem
from odecontrol.linalg import SeededRng
from odecontrol.landscape import (
    ProjectionSpec,
    make_projection,
    project,
    sharpness_1d,
)
from odecontrol.nets import (
    RELU,
    TANH,
    Activation,
    ConstantControl,
    InitScheme,
    MlpSpec,
    SingleNeuron,
    elu,
    init_params,
)
from odecontrol.oracles import constant_oc, oc_for_problem
from odecontrol.pool import blas_threads

# the exact optimum of the constant problem for a linear neuron u = w t + b
THETA_STAR = np.array([0.0, -1.0])


def neuron_setup():
    problem = constant_problem(steps=50)
    model = SingleNeuron(Activation("linear"))
    sol = constant_oc(0.0, -1.0, 1.0)
    return problem, model, sol


class TestProjectionSpec:
    def test_theta_at_combines_directions(self):
        spec = make_projection(THETA_STAR, seed=0, two_d=True, alpha_count=5,
                               beta_count=5)
        expect = THETA_STAR + 0.25 * spec.delta - 0.1 * spec.d2
        np.testing.assert_array_equal(spec.theta_at(0.25, -0.1), expect)

    def test_seed_reproduces_directions(self):
        a = make_projection(THETA_STAR, seed=11, two_d=True)
        b = make_projection(THETA_STAR, seed=11, two_d=True)
        np.testing.assert_array_equal(a.delta, b.delta)
        np.testing.assert_array_equal(a.d2, b.d2)

    def test_seeds_differ(self):
        a = make_projection(THETA_STAR, seed=1)
        b = make_projection(THETA_STAR, seed=2)
        assert not np.array_equal(a.delta, b.delta)

    def test_one_d_has_no_second_direction(self):
        spec = make_projection(THETA_STAR, seed=0)
        assert spec.d2 is None
        assert not spec.two_d
        np.testing.assert_array_equal(spec.betas(), [0.0])

    def test_delta_shape_validation(self):
        with pytest.raises(ValueError, match="delta shape"):
            ProjectionSpec(THETA_STAR, np.zeros(3))

    def test_flat_theta_validation(self):
        with pytest.raises(ValueError, match="flat"):
            ProjectionSpec(np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("alpha_range", [(0.1, 0.1), (0.4, -0.4)],
                             ids=["empty", "reversed"])
    def test_alpha_range_must_increase(self, alpha_range):
        with pytest.raises(ValueError, match="hi > lo"):
            make_projection(THETA_STAR, seed=0, alpha_range=alpha_range)

    def test_beta_range_is_read_for_2d_only(self):
        spec = make_projection(THETA_STAR, seed=0, beta_range=(0.4, -0.4))
        assert spec.beta is None
        with pytest.raises(ValueError, match="hi > lo"):
            make_projection(THETA_STAR, seed=0, two_d=True, beta_range=(0.4, -0.4))

    def test_beta_axis_goes_with_second_direction(self):
        with pytest.raises(ValueError, match="both d2 and a beta axis"):
            ProjectionSpec(THETA_STAR, np.ones(2), d2=np.ones(2))
        with pytest.raises(ValueError, match="both d2 and a beta axis"):
            ProjectionSpec(THETA_STAR, np.ones(2), beta=Axis("beta", -0.4, 0.4, 3))

    def test_grid_size_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            ProjectionSpec(THETA_STAR, np.ones(2), alpha=Axis("alpha", -0.4, 0.4, 2))


class TestProject:
    def test_center_reproduces_plain_evaluation(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=4, alpha_count=5,
                               alpha_range=(-0.2, 0.2))
        res = project(spec, problem, model, sol.u_star, samples=40)
        ia, ib = res.center_index()
        traj = integrate_euler(problem, lambda t: model.forward(THETA_STAR, t))
        assert res.loss[ia, ib] == pytest.approx(
            terminal_loss(traj, problem.x_star), abs=1e-15)
        assert res.energy[ia, ib] == pytest.approx(
            control_energy(traj), abs=1e-15)
        mse = mse_control(lambda t: model.forward(THETA_STAR, t),
                          sol.u_star, 40, problem.T)
        assert res.mse_u[ia, ib] == pytest.approx(mse, rel=1e-12)

    def test_center_is_local_minimum_1d(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=4, alpha_count=5,
                               alpha_range=(-0.2, 0.2))
        res = project(spec, problem, model, sol.u_star, samples=40)
        ia, _ = res.center_index()
        assert res.loss[ia, 0] < 1e-30
        assert res.loss[ia - 1, 0] > res.loss[ia, 0]
        assert res.loss[ia + 1, 0] > res.loss[ia, 0]

    def test_center_is_local_minimum_2d(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=4, two_d=True, alpha_count=5,
                               beta_count=5, alpha_range=(-0.2, 0.2),
                               beta_range=(-0.2, 0.2))
        res = project(spec, problem, model, sol.u_star, samples=40)
        ia, ib = res.center_index()
        assert res.loss.shape == (5, 5)
        center = res.loss[ia, ib]
        for i, j in ((ia - 1, ib), (ia + 1, ib), (ia, ib - 1), (ia, ib + 1)):
            assert res.loss[i, j] > center

    def test_grid_reproducible_from_seed(self):
        problem, model, sol = neuron_setup()
        runs = []
        for _ in range(2):
            spec = make_projection(THETA_STAR, seed=8, alpha_count=5)
            runs.append(project(spec, problem, model, sol.u_star, samples=20))
        np.testing.assert_array_equal(runs[0].loss, runs[1].loss)
        np.testing.assert_array_equal(runs[0].mse_u, runs[1].mse_u)
        np.testing.assert_array_equal(runs[0].energy, runs[1].energy)

    def test_pool_matches_serial(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=8, two_d=True, alpha_count=4,
                               beta_count=3)
        serial = project(spec, problem, model, sol.u_star, samples=20)
        pooled = project(spec, problem, model, sol.u_star, samples=20,
                         workers=2)
        np.testing.assert_array_equal(serial.loss, pooled.loss)
        np.testing.assert_array_equal(serial.mse_u, pooled.mse_u)
        np.testing.assert_array_equal(serial.energy, pooled.energy)
        assert serial.manifest()["blas_threads"] == {"parent": blas_threads(), "workers": None}
        assert pooled.manifest()["blas_threads"] == {"parent": blas_threads(), "workers": 1}

    def test_divergent_cells_become_nan(self):
        # stiff drift blows up forward Euler long before the horizon
        problem = ControlProblem(scalar_linear(2e5, 1.0), [1.0], [0.0], 1.0, 200)
        model = SingleNeuron(Activation("linear"))
        spec = make_projection(THETA_STAR, seed=0, alpha_count=3)
        res = project(spec, problem, model, lambda t: np.zeros(np.shape(t) + (1,)), samples=10)
        assert np.isnan(res.loss).all()
        assert np.isnan(res.mse_u).all()
        assert np.isnan(res.energy).all()


def eval_theta(problem, model, theta, ts, us) -> tuple[float, float, float]:
    """One cell on its own: the single-run simulator on the cell's sampled
    controls and a single-run forward on the MSE grid, NaN in all three when
    any value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate_euler(problem, model.forward_batch(theta, problem.times()[:-1]))
        loss = terminal_loss(traj, problem.x_star)
        energy = control_energy(traj)
    mse = mse_control(model.forward_batch(theta, ts), us, ts.shape[0], problem.T)
    if not (np.isfinite(loss) and np.isfinite(mse) and np.isfinite(energy)):
        return np.nan, np.nan, np.nan
    return loss, mse, energy


def per_cell(spec, problem, model, u_star, samples):
    """The (alpha, beta, 3) grid of eval_theta, one cell at a time."""
    ts = mse_times(samples, problem.T)
    us = sample_control(u_star, ts, "u_star")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([[eval_theta(problem, model, spec.theta_at(float(a), float(b)), ts, us)
                          for b in spec.betas()] for a in spec.alphas()])


def assert_matches_per_cell(res, spec, problem, model, u_star, samples):
    want = per_cell(spec, problem, model, u_star, samples)
    got = np.stack([res.loss, res.mse_u, res.energy], axis=-1)
    assert np.array_equal(got, want, equal_nan=True)
    return want


def mlp_setup():
    """The shipped projection shape: a 5x5 elu net on the scalar problem, K = 100."""
    problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 100)
    model = MlpSpec((5, 5), activation=elu())
    theta = init_params(model, InitScheme.uniform(), SeededRng(2))
    return problem, model, theta, oc_for_problem(problem).u_star


def flow2d_setup(model):
    problem = flow2d_problem(40)
    theta = np.random.default_rng(6).normal(size=model.n_params)
    return problem, model, theta, oc_for_problem(problem).u_star


SETUPS = {
    "mlp": mlp_setup,
    "neuron": lambda: flow2d_setup(SingleNeuron(TANH)),
    "constant": lambda: flow2d_setup(ConstantControl()),
}


def partial_divergence():
    """A relu neuron u = relu(w t) + b on x' = 10 x + u. alpha sets w = -alpha
    and b = alpha * 1e-306, so the cells with alpha < 0 (w > 0) blow up, each
    at a step set by its w, while those with alpha >= 0 (u = b) stay finite
    and differ from row to row; beta moves b."""
    problem = ControlProblem(scalar_linear(10.0, 1.0), [1.0], [0.0], 1.0, 50)
    spec = ProjectionSpec([0.0, 0.0], [-1.0, 1e-306], Axis("alpha", -1e306, 1e306, 9),
                          [0.0, 1.0], Axis("beta", -0.4, 0.4, 5))
    return problem, SingleNeuron(RELU), spec


class TestBlocksMatchPerCell:
    """project's blocks of cells against the one-cell-at-a-time reference."""

    # the default budget, and one that cuts the grids into blocks of a few
    # cells with a short last block
    @pytest.fixture(params=[None, 2**9], ids=["default_blocks", "small_blocks"])
    def budget(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(landscape, "_BLOCK_FLOATS", request.param)
        return request.param

    @pytest.mark.parametrize("name", sorted(SETUPS))
    @pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
    def test_grid(self, budget, name, two_d):
        problem, model, theta, u_star = SETUPS[name]()
        spec = make_projection(theta, seed=3, two_d=two_d, alpha_count=9, beta_count=7,
                               alpha_range=(-2.0, 2.0), beta_range=(-2.0, 2.0))
        res = project(spec, problem, model, u_star, samples=30)
        assert_matches_per_cell(res, spec, problem, model, u_star, 30)

    def test_block_sizes(self):
        assert landscape._block_cells(MlpSpec((14, 14), out_dim=1), 100, 100) == 11
        assert landscape._block_cells(MlpSpec((5, 5)), 100, 100) == 32
        assert landscape._block_cells(MlpSpec((122, 122, 122)), 100, 100) == 1
        assert landscape._block_cells(SingleNeuron(), 100, 10) == 163
        assert landscape._block_cells(MlpSpec((5,)), 10, 400) == 8

    def test_pool_matches_serial(self, budget):
        problem, model, theta, u_star = mlp_setup()
        spec = make_projection(theta, seed=9, two_d=True, alpha_count=5, beta_count=7)
        serial = project(spec, problem, model, u_star, samples=20)
        pooled = project(spec, problem, model, u_star, samples=20, workers=2)
        for name in ("loss", "mse_u", "energy"):
            assert np.array_equal(getattr(serial, name), getattr(pooled, name))
        assert_matches_per_cell(pooled, spec, problem, model, u_star, 20)

    def test_some_cells_diverge(self, budget):
        problem, model, spec = partial_divergence()
        cells = np.stack(np.meshgrid(spec.alphas(), spec.betas(), indexing="ij"), -1)
        thetas = spec.theta_at(cells[..., 0].ravel(), cells[..., 1].ravel())
        with np.errstate(over="ignore", invalid="ignore"):
            steps = first_nonfinite(
                euler_states(problem, model.forward_batch(thetas, problem.times()[:-1])))
        assert len(set(steps[steps >= 0])) >= 3  # runs stop at different steps
        u_star = lambda t: np.zeros(np.shape(t) + (1,))
        res = project(spec, problem, model, u_star, samples=20)
        want = assert_matches_per_cell(res, spec, problem, model, u_star, 20)
        finite = np.isfinite(want).all(axis=-1)
        assert np.array_equal(finite, (steps < 0).reshape(finite.shape))
        assert not finite[:4].any() and finite[4:].all()  # w > 0 diverges, w <= 0 not
        assert len(set(want[4:, 0, 0])) == 5
        pooled = project(spec, problem, model, u_star, samples=20, workers=2)
        assert np.array_equal(pooled.loss, res.loss, equal_nan=True)

    def test_a_cell_with_one_overflowing_value_is_nan(self):
        # u = c on x' = u over T = 0.5 in one step: loss c^2/8 and energy
        # c^2/4 stay finite at |c| = 1e154, while the MSE's sum of two c^2
        # overflows there (and not at |c| = 5e153)
        problem = ControlProblem(scalar_linear(0.0, 1.0), [0.0], [0.0], 0.5, 1)
        spec = ProjectionSpec([0.0], [1.0], Axis("alpha", -1e154, 1e154, 5))
        model, u_star = ConstantControl(), lambda t: np.zeros(np.shape(t) + (1,))
        res = project(spec, problem, model, u_star, samples=2)
        want = assert_matches_per_cell(res, spec, problem, model, u_star, 2)
        assert np.isnan(want[[0, -1]]).all() and np.isfinite(want[1:-1]).all()


# a 3x3 projection's CSV text as written before ProjectionResult shared
# experiments.csv_text
PROJECTION_CSV = (
    'alpha,beta,loss,mse_u,energy\n'
    '-0.4,-0.4,0.07687552576877679,0.18690370752774965,0.9758105349519663\n'
    '-0.4,0.0,0.019530386130967293,0.05109655090692657,0.3247234817817\n'
    '-0.4,0.4,0.30998913214281093,0.7813537203412773,0.05833191864139132\n'
    '0.0,-0.4,0.17390194282482674,0.43303216302758696,1.2820967472605558\n'
    '0.0,0.0,9.860761315262648e-32,0.0,0.5\n'
    '0.0,0.4,0.1739019428248266,0.43303216302758685,0.10259874276940222\n'
    '0.4,-0.4,0.3099891321428108,0.7813537203412773,1.633105888816949\n'
    '0.4,0.0,0.019530386130967203,0.051096550906926566,0.7199994474661042\n'
    '0.4,0.4,0.07687552576877679,0.18690370752774962,0.19158849614521736\n'
)


class TestProjectionCsvManifest:
    def test_csv_text_of_a_3x3_grid(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=4, two_d=True, alpha_count=3,
                               beta_count=3)
        res = project(spec, problem, model, sol.u_star, samples=10)
        assert res.to_csv() == PROJECTION_CSV

    def test_csv_round_trip(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=4, alpha_count=3)
        res = project(spec, problem, model, sol.u_star, samples=10)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "alpha,beta,loss,mse_u,energy"
        assert len(lines) == 1 + 3
        alpha, beta, loss, mse, energy = (float(v) for v in lines[1].split(","))
        assert alpha == spec.alphas()[0]
        assert beta == 0.0
        assert loss == res.loss[0, 0]

    def test_manifest_serializable(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=13, two_d=True, alpha_count=3,
                               beta_count=4)
        res = project(spec, problem, model, sol.u_star, samples=10)
        doc = json.loads(json.dumps(res.manifest()))
        assert doc["experiment"] == "projection"
        assert doc["direction_seed"] == 13
        assert doc["alpha"]["count"] == 3
        assert doc["beta"]["count"] == 4
        assert doc["samples"] == 10
        np.testing.assert_array_equal(doc["delta"], spec.delta)

    def test_manifest_one_d_beta_is_null(self):
        problem, model, sol = neuron_setup()
        spec = make_projection(THETA_STAR, seed=0, alpha_count=3)
        res = project(spec, problem, model, sol.u_star, samples=10)
        assert res.manifest()["beta"] is None


class TestSharpness:
    def test_quadratic_curvature(self):
        alphas = np.linspace(-0.4, 0.4, 81)
        assert sharpness_1d(alphas, alphas ** 2) == pytest.approx(2.0)

    def test_flat_curve(self):
        alphas = np.linspace(-0.1, 0.1, 11)
        assert sharpness_1d(alphas, np.ones(11)) == 0.0

    def test_needs_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            sharpness_1d(np.array([-1.0, 0.0, 2.0]), np.zeros(3))

    def test_needs_interior_zero(self):
        with pytest.raises(ValueError, match="interior"):
            sharpness_1d(np.array([0.0, 1.0, 2.0]), np.zeros(3))

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match=">= 3"):
            sharpness_1d(np.array([-1.0, 1.0]), np.zeros(2))
