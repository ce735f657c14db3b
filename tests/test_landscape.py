"""Projections of the loss surface around a parameter vector. The center of
the grid must reproduce the plain evaluation of that vector exactly, grids
must be bit-reproducible from their seed, and worker pools must not change
a single value."""

import json

import numpy as np
import pytest

from odecontrol.dynamics import (
    ControlProblem,
    control_energy,
    integrate_euler,
    mse_control,
    scalar_linear,
    terminal_loss,
)
from odecontrol.experiments import Axis, constant_problem
from odecontrol.landscape import (
    ProjectionSpec,
    make_projection,
    project,
    sharpness_1d,
)
from odecontrol.nets import Activation, SingleNeuron
from odecontrol.oracles import constant_oc
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
        res = project(spec, problem, model, lambda t: np.zeros(1), samples=10)
        assert np.isnan(res.loss).all()
        assert np.isnan(res.mse_u).all()
        assert np.isnan(res.energy).all()


class TestProjectionCsvManifest:
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
