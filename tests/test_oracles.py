"""Closed-form optimal controls, the constant baseline, and the exact
single-neuron learning maps. Every oracle is double-checked by simulation:
its control must actually reach the target and realize the claimed cost."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odecontrol.dynamics import (
    ControlProblem,
    LinearDynamics,
    MovingParticleDynamics,
    control_energy,
    integrate_euler,
    integrator,
    scalar_linear,
    terminal_loss,
    work_functional,
)
from odecontrol.experiments import flow2d_problem
from odecontrol.oracles import (
    GRAMIAN_STEPS,
    baseline_energy_recursion,
    constant_baseline,
    constant_oc,
    linear_nd_oc,
    linear_neuron_map,
    moving_particle_oc,
    oc_for_problem,
    relu_neuron_map,
    scalar_linear_oc,
)
from odecontrol.linalg import gramian, mat_exp, solve_spd

E = math.e


def simulate(sol, problem):
    return integrate_euler(problem, sol.u_star)


class TestConstantOc:
    def test_integrator_to_minus_one(self):
        sol = constant_oc(0.0, -1.0, 1.0)
        assert sol.value == 0.5
        np.testing.assert_allclose(sol.u_star(0.3), [-1.0])
        np.testing.assert_allclose(sol.x_star(0.25), [-0.25])

    def test_scaling_with_horizon(self):
        # u* = (x*-x0)/T, E* = (x*-x0)^2 / (2T)
        sol = constant_oc(1.0, 4.0, 2.0)
        np.testing.assert_allclose(sol.u_star(0.0), [1.5])
        assert sol.value == pytest.approx(9.0 / (2.0 * 2.0))

    def test_simulation_confirms(self):
        problem = ControlProblem(integrator(), [0.0], [-1.0], 1.0, 10_000)
        sol = constant_oc(0.0, -1.0, 1.0)
        traj = simulate(sol, problem)
        assert terminal_loss(traj, problem.x_star) < 1e-12
        assert control_energy(traj) == pytest.approx(sol.value, rel=1e-3)


class TestScalarLinearOc:
    def test_time_dependent_value(self):
        # x' = x + u, 0 -> 1 over T = 1: E* = 1 / (e^2 - 1)
        sol = scalar_linear_oc(1.0, 1.0, 0.0, 1.0, 1.0)
        assert sol.value == pytest.approx(1.0 / (E * E - 1.0), abs=1e-12)

    def test_control_shape(self):
        # u*(t) proportional to e^{-t} for a = 1
        sol = scalar_linear_oc(1.0, 1.0, 0.0, 1.0, 1.0)
        u0 = float(sol.u_star(0.0)[0])
        u1 = float(sol.u_star(1.0)[0])
        assert u0 / u1 == pytest.approx(E, rel=1e-12)

    def test_simulation_reaches_target(self):
        sol = scalar_linear_oc(1.0, 1.0, 0.0, 1.0, 1.0)
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 10_000)
        traj = simulate(sol, problem)
        assert terminal_loss(traj, problem.x_star) < 1e-6
        assert control_energy(traj) == pytest.approx(sol.value, rel=1e-3)

    def test_x_star_endpoint_conditions(self):
        sol = scalar_linear_oc(0.7, 1.3, 0.2, -0.9, 1.5)
        np.testing.assert_allclose(sol.x_star(0.0), [0.2], atol=1e-12)
        np.testing.assert_allclose(sol.x_star(1.5), [-0.9], atol=1e-10)

    def test_degenerate_a_zero_rejected(self):
        with pytest.raises(ValueError):
            scalar_linear_oc(0.0, 1.0, 0.0, 1.0, 1.0)


class TestLinearNdOc:
    def test_reduces_to_scalar_formula(self):
        got = linear_nd_oc([[1.0]], [[1.0]], [0.0], [1.0], 1.0)
        want = scalar_linear_oc(1.0, 1.0, 0.0, 1.0, 1.0)
        assert got.value == pytest.approx(want.value, rel=1e-6)
        np.testing.assert_allclose(got.u_star(0.4), want.u_star(0.4), rtol=1e-5)

    def test_flow2d_benchmark_value(self):
        # A = [[1,0],[1,0]], B = (1,0): E* = 1/2 v^T W^{-1} v
        sol = linear_nd_oc([[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]],
                           [0.5, 0.5], [1.0, -1.0], 1.0)
        assert sol.value == pytest.approx(31.762904233503146, rel=1e-6)

    def test_flow2d_simulation(self):
        # Sampling u* point by point costs one mat_exp (about 20 small
        # matmuls) per step, 20 000 in all, so tabulate e^{A^T (T - t_k)}
        # with one backward semigroup sweep (one matmul per step) and tie
        # the table to the oracle's own closure at a few spot checks.
        dyn = LinearDynamics([[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]])
        problem = ControlProblem(dyn, [0.5, 0.5], [1.0, -1.0], 1.0, 20_000)
        sol = linear_nd_oc(dyn.A, dyn.B, problem.x0, problem.x_star, 1.0)

        w = gramian(dyn.A, dyn.B, 1.0, 2000)
        v = problem.x_star - mat_exp(dyn.A, 1.0) @ problem.x0
        z = solve_spd(w, v)
        dt = problem.dt
        step_exp = mat_exp(dyn.A.T, dt)
        u_tab = np.empty((problem.steps, 1))
        y = np.eye(2)
        for k in range(problem.steps - 1, -1, -1):
            y = step_exp @ y
            u_tab[k] = dyn.B.T @ (y @ z)
        for k in (0, 1, 4999, 10_000, 19_999):
            np.testing.assert_allclose(
                u_tab[k], sol.u_star(problem.times()[k]), rtol=1e-8)

        traj = integrate_euler(problem, lambda t: u_tab[int(round(t / dt))])
        assert terminal_loss(traj, problem.x_star) < 1e-4
        assert control_energy(traj) == pytest.approx(sol.value, rel=1e-3)

    def test_flow2d_matches_panel_loop_bit_for_bit(self, loop_gramian):
        # The value and the 11-point u*/x* table that `oc --flow2d` prints and
        # the benchmark checks at 1e-12 relative (already a few 1e-13 off on
        # some BLAS builds) must be the per-panel loop's bits, so neither the
        # stacked Gramian nor the oracle's shared prefix stack may change a
        # single rounding. The reference builds W(T) and each W(t) from the
        # loop; 1e-3, 0.3 and 0.6 miss the prefix grid and 1.5 lies past T.
        problem = flow2d_problem()
        got = oc_for_problem(problem)
        a, b, x0, T = problem.dynamics.A, problem.dynamics.B, problem.x0, problem.T
        v = problem.x_star - mat_exp(a, T) @ x0
        z = solve_spd(loop_gramian(a, b, T, GRAMIAN_STEPS), v)
        assert got.value == 0.5 * float(v @ z)
        for t in list(np.linspace(0.0, T, 11)) + [1e-3, 0.3, 0.6, 1.5]:
            assert np.array_equal(got.u_star(t), b.T @ (mat_exp(a.T, T - t) @ z))
            if t <= 0.0:
                want = x0
            else:
                steps = max(100, int(round(GRAMIAN_STEPS * t / T)))
                want = (mat_exp(a, t) @ x0
                        + loop_gramian(a, b, t, steps) @ (mat_exp(a.T, T - t) @ z))
            assert np.array_equal(got.x_star(t), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_b_rejected(self, bad):
        with pytest.raises(ValueError, match="B must be finite"):
            linear_nd_oc([[1.0, 0.0], [1.0, 0.0]], [[1.0], [bad]],
                         [0.5, 0.5], [1.0, -1.0], 1.0)

    def test_endpoint_interpolation(self):
        sol = linear_nd_oc([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                           [0.0, 0.0], [1.0, 0.0], 1.0)
        np.testing.assert_allclose(sol.x_star(0.0), [0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(sol.x_star(1.0), [1.0, 0.0], atol=1e-6)

    def test_uncontrollable_pair_rejected(self):
        # B in the kernel direction of an uncontrollable mode
        from odecontrol.linalg import NotPositiveDefiniteError

        with pytest.raises(NotPositiveDefiniteError):
            linear_nd_oc([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]],
                         [0.0, 0.0], [1.0, 1.0], 1.0)


class TestUStarOnArrays:
    """u_star(ts) samples a whole time grid in one call: row k equals
    u_star(ts[k]) bit for bit, for every oracle."""

    @staticmethod
    def solutions(rng: np.random.Generator) -> list:
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        a = rng.uniform(0.1, 2.0) * rng.normal(size=(n, n))
        b = rng.normal(size=(n, m)) + np.eye(n, m)
        x0, xs = rng.normal(size=2)
        T = float(rng.uniform(0.2, 2.0))
        driftless = ControlProblem(scalar_linear(0.0, float(rng.uniform(0.5, 2.0))),
                                   [x0], [xs], T, 10)
        return [
            constant_oc(x0, xs, T),
            scalar_linear_oc(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.5, 2.0)),
                             x0, xs, T),
            linear_nd_oc(a, b, rng.normal(size=n), rng.normal(size=n), T),
            moving_particle_oc(),
            oc_for_problem(driftless),  # the x' = b u wrapper
            oc_for_problem(flow2d_problem()),
        ]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=20))
    def test_rows_match_scalar_calls(self, seed, times):
        ts = np.array(times + [0.0, -0.0, 1.0])
        for sol in self.solutions(np.random.default_rng(seed)):
            us = sol.u_star(ts)
            m = sol.u_star(0.5).shape[0]
            assert us.shape == (ts.shape[0], m), sol.name
            for k, t in enumerate(ts):
                assert np.array_equal(us[k], sol.u_star(t)), (sol.name, t)
                assert np.array_equal(us[k], sol.u_star(float(t))), (sol.name, t)


class TestMovingParticleOc:
    def test_value_and_stationarity(self):
        sol = moving_particle_oc()
        assert sol.value == 1.0
        assert sol.functional_kind == "work"
        problem = ControlProblem(MovingParticleDynamics(), [0.0, 1.0],
                                 [1.0, 1.0], 1.0, 100)
        traj = simulate(sol, problem)
        assert terminal_loss(traj, problem.x_star) < 1e-20
        assert work_functional(traj) == pytest.approx(1.0, rel=1e-12)


class TestConstantBaseline:
    def test_time_dependent_instance(self):
        # c* = 1/(e-1), E = 1/2 (e-1)^{-2}
        c, energy = constant_baseline(1.0, 1.0, 0.0, 1.0, 1.0)
        assert c == pytest.approx(1.0 / (E - 1.0), abs=1e-13)
        assert energy == pytest.approx(0.5 / (E - 1.0) ** 2, abs=1e-13)

    def test_ratio_to_optimum(self):
        c, energy = constant_baseline(1.0, 1.0, 0.0, 1.0, 1.0)
        e_star = scalar_linear_oc(1.0, 1.0, 0.0, 1.0, 1.0).value
        assert energy / e_star == pytest.approx(1.08198, abs=1e-4)

    def test_driftless_case(self):
        c, energy = constant_baseline(0.0, 1.0, 0.0, -1.0, 1.0)
        assert c == pytest.approx(-1.0)
        assert energy == pytest.approx(0.5)

    def test_constant_reaches_target(self):
        c, _ = constant_baseline(1.0, 1.0, 0.0, 1.0, 1.0)
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 20_000)
        traj = integrate_euler(problem, lambda t: np.array([c]))
        assert terminal_loss(traj, problem.x_star) < 1e-7

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            constant_baseline(1.0, 0.0, 0.0, 1.0, 1.0)


class TestHorizonChecked:
    """Every oracle checks its horizon as ControlProblem checks T: a finite
    number above 0."""

    ORACLES = {
        "constant_oc": lambda T: constant_oc(0.0, 1.0, T),
        "scalar_linear_oc": lambda T: scalar_linear_oc(1.0, 1.0, 0.0, 1.0, T),
        "linear_nd_oc": lambda T: linear_nd_oc([[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]],
                                               [0.5, 0.5], [1.0, -1.0], T),
        "constant_baseline": lambda T: constant_baseline(1.0, 1.0, 0.0, 1.0, T),
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("horizon, match", [
        (math.nan, "horizon must be positive, got nan"),
        (math.inf, "horizon must be finite, got inf"),
        (0.0, "horizon must be positive, got 0.0"),
        (-1.0, "horizon must be positive, got -1.0"),
    ], ids=["nan", "inf", "zero", "negative"])
    def test_bad_horizon_rejected(self, name, horizon, match):
        with pytest.raises(ValueError, match=match):
            self.ORACLES[name](horizon)


class TestLinearNeuronMap:
    def test_fixed_line(self):
        # any (w, b) with w = -2(1 + b) is a fixed point for T=1, x0=0, x*=-1
        for b in (-2.0, -1.0, 0.0, 1.5):
            w = -2.0 * (1.0 + b)
            w2, b2 = linear_neuron_map(w, b, 0.1, 1.0, 0.0, -1.0)
            assert (w2, b2) == (w, b)

    def test_iteration_reaches_line(self):
        w, b = 1.7, -0.3
        for _ in range(3000):
            w, b = linear_neuron_map(w, b, 0.1, 1.0, 0.0, -1.0)
        r = 0.5 * w + b + 1.0
        assert abs(r) < 1e-12

    def test_flow_direction_is_fixed(self):
        # updates move along (T^2/2, T): b-displacement / w-displacement = 2/T
        w0, b0 = 1.0, 1.0
        w1, b1 = linear_neuron_map(w0, b0, 0.05, 1.0, 0.0, -1.0)
        assert (b1 - b0) / (w1 - w0) == pytest.approx(2.0, rel=1e-12)

    def test_matches_trained_single_neuron(self):
        # the map IS one SD step of the exact discrete loss in the K -> inf
        # limit; check against autodiff on a fine grid
        from odecontrol.gradients import bptt_grad
        from odecontrol.nets import LINEAR, SingleNeuron
        from odecontrol.training import sd_step

        problem = ControlProblem(integrator(), [0.0], [-1.0], 1.0, 20_000)
        model = SingleNeuron(LINEAR)
        theta = np.array([0.8, 0.4])
        res = bptt_grad(problem, model, theta)
        stepped = sd_step(theta, res.grad, 0.1)
        w2, b2 = linear_neuron_map(0.8, 0.4, 0.1, 1.0, 0.0, -1.0)
        np.testing.assert_allclose(stepped, [w2, b2], atol=2e-4)


class TestReluNeuronMap:
    def test_positive_weight_matches_linear(self):
        a = relu_neuron_map(0.5, 0.2, 0.1, 1.0, 0.0, -1.0)
        b = linear_neuron_map(0.5, 0.2, 0.1, 1.0, 0.0, -1.0)
        assert a == b

    def test_negative_weight_bias_attractor(self):
        w, b = -0.8, 1.2
        for _ in range(2000):
            w, b = relu_neuron_map(w, b, 0.1, 1.0, 0.0, -1.0)
        assert w == -0.8  # weight never moves on the dead branch
        assert abs(b + 1.0) < 1e-12

    def test_map_agrees_with_trained_relu_neuron(self):
        from odecontrol.gradients import bptt_grad
        from odecontrol.nets import RELU, SingleNeuron
        from odecontrol.training import sd_step

        problem = ControlProblem(integrator(), [0.0], [-1.0], 1.0, 20_000)
        model = SingleNeuron(RELU)
        for theta0 in (np.array([0.6, 0.1]), np.array([-0.6, 0.1])):
            res = bptt_grad(problem, model, theta0)
            stepped = sd_step(theta0, res.grad, 0.1)
            want = relu_neuron_map(theta0[0], theta0[1], 0.1, 1.0, 0.0, -1.0)
            np.testing.assert_allclose(stepped, want, atol=2e-4)


class TestBaselineRecursion:
    def test_fixed_point(self):
        c_star = 1.0 / (E - 1.0)
        c_next, de = baseline_energy_recursion(c_star, 0.01)
        assert c_next == pytest.approx(c_star, abs=1e-15)
        assert de == pytest.approx(0.0, abs=1e-15)

    def test_converges_to_c_star(self):
        c = 0.0
        for _ in range(5000):
            c, _ = baseline_energy_recursion(c, 0.01)
        assert c == pytest.approx(1.0 / (E - 1.0), abs=1e-12)

    def test_energy_series_limit_undershoots_exact(self):
        # summing the first-order increments is itself an O(eta) approximation:
        # at eta = 0.01 the series limit sits ~2.5e-3 below 1/2 (e-1)^{-2}
        c, total = 0.0, 0.0
        for _ in range(20_000):
            c, de = baseline_energy_recursion(c, 0.01)
            total += de
        exact = 0.5 / (E - 1.0) ** 2
        assert exact - total == pytest.approx(2.54e-3, abs=2e-4)


class TestOcForProblem:
    def test_routing(self):
        cases = [
            (ControlProblem(integrator(), [0.0], [-1.0], 1.0, 10), "constant_oc"),
            (ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 10),
             "scalar_linear_oc"),
            (ControlProblem(LinearDynamics([[1.0, 0.0], [1.0, 0.0]],
                                           [[1.0], [0.0]]),
                            [0.5, 0.5], [1.0, -1.0], 1.0, 10), "linear_nd_oc"),
            (ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0],
                            1.0, 10), "moving_particle_oc"),
        ]
        for problem, name in cases:
            assert oc_for_problem(problem).name == name

    def test_scaled_driftless_flow(self):
        # x' = 2u from 0 to 1: u* = 1/2, E* = 1/8
        problem = ControlProblem(scalar_linear(0.0, 2.0), [0.0], [1.0], 1.0, 100)
        sol = oc_for_problem(problem)
        assert sol.value == pytest.approx(0.125)
        np.testing.assert_allclose(sol.u_star(0.5), [0.5])
        np.testing.assert_allclose(sol.x_star(1.0), [1.0], atol=1e-12)

    def test_every_solution_steers_its_problem(self):
        problems = [
            ControlProblem(integrator(), [0.0], [-1.0], 1.0, 5000),
            ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 5000),
            ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0],
                           1.0, 5000),
        ]
        for problem in problems:
            sol = oc_for_problem(problem)
            traj = simulate(sol, problem)
            assert terminal_loss(traj, problem.x_star) < 1e-5
