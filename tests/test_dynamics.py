"""Simulator and trajectory functionals against closed-form solutions."""

import io
import math

import numpy as np
import pytest

from odecontrol.dynamics import (
    ControlProblem,
    DivergenceError,
    LinearDynamics,
    MovingParticleDynamics,
    Trajectory,
    control_energy,
    integrate_euler,
    integrator,
    mse_control,
    scalar_linear,
    terminal_loss,
    validate_particle_constraints,
    work_functional,
)
from odecontrol.linalg import DimensionError

E = math.e


def zero_control(t):
    return np.array([0.0])


class TestProblemSetup:
    def test_grid(self):
        p = ControlProblem(integrator(), [0.0], [1.0], 2.0, 4)
        assert p.dt == 0.5
        np.testing.assert_allclose(p.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            ControlProblem(integrator(), [0.0, 0.0], [1.0], 1.0, 10)
        with pytest.raises(ValueError):
            ControlProblem(integrator(), [0.0], [1.0], -1.0, 10)
        with pytest.raises(ValueError):
            ControlProblem(integrator(), [0.0], [1.0], 1.0, 0)

    def test_dynamics_must_be_linear(self):
        with pytest.raises(TypeError):
            ControlProblem(object(), [0.0], [1.0], 1.0, 10)

    def test_linear_dynamics_validation(self):
        with pytest.raises(DimensionError):
            LinearDynamics([[1.0, 0.0]], [[1.0]])
        with pytest.raises(DimensionError):
            LinearDynamics([[1.0]], [[1.0], [0.0]])


class TestEuler:
    def test_uncontrolled_exponential_recursion(self):
        # x' = x, u = 0: Euler gives exactly (1 + dt)^K
        k_steps = 64
        p = ControlProblem(scalar_linear(1.0, 1.0), [1.0], [0.0], 1.0, k_steps)
        traj = integrate_euler(p, zero_control)
        want = (1.0 + 1.0 / k_steps) ** np.arange(k_steps + 1)
        np.testing.assert_allclose(traj.states[:, 0], want, rtol=1e-13)

    def test_ten_step_hand_unroll(self):
        # x' = x + u with u(t) = t, left-endpoint sampling
        p = ControlProblem(scalar_linear(1.0, 1.0), [0.5], [0.0], 1.0, 10)
        traj = integrate_euler(p, lambda t: np.array([t]))
        x = 0.5
        dt = 0.1
        for k in range(10):
            t = k * dt
            x = x + dt * (x + t)
            assert traj.states[k + 1, 0] == pytest.approx(x, rel=1e-15)
        np.testing.assert_allclose(traj.controls[:, 0], np.arange(10) * dt)

    def test_first_order_error_ratio(self):
        # global Euler error for x' = x halves when the step count doubles
        def err(k):
            p = ControlProblem(scalar_linear(1.0, 1.0), [1.0], [0.0], 1.0, k)
            return abs(integrate_euler(p, zero_control).final_state()[0] - E)

        ratio = err(1000) / err(2000)
        assert 1.9 < ratio < 2.1

    def test_controlled_exact_steering_refines(self):
        # u*(t) for x' = x + u steering 0 -> 1; Euler tracks it to O(dt)
        w = (E * E - 1.0) / 2.0

        def u_star(t):
            return np.array([math.exp(1.0 - t) / w])

        losses = []
        for k in (100, 200, 400):
            p = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, k)
            traj = integrate_euler(p, u_star)
            losses.append(abs(traj.final_state()[0] - 1.0))
        assert losses[0] / losses[1] == pytest.approx(2.0, abs=0.3)
        assert losses[1] / losses[2] == pytest.approx(2.0, abs=0.3)

    def test_two_dimensional_flow(self):
        # A = [[1,0],[1,0]]: x2 integrates x1, control feeds x1 only
        dyn = LinearDynamics([[1.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]])
        p = ControlProblem(dyn, [0.5, 0.5], [1.0, -1.0], 1.0, 3)
        traj = integrate_euler(p, lambda t: np.array([2.0]))
        dt = p.dt
        x = np.array([0.5, 0.5])
        for k in range(3):
            x = x + dt * np.array([x[0] + 2.0, x[0]])
            np.testing.assert_allclose(traj.states[k + 1], x, rtol=1e-15)

    def test_divergence_raises_with_step(self):
        p = ControlProblem(scalar_linear(1e6, 1.0), [1.0], [0.0], 1.0, 200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                integrate_euler(p, zero_control)
        assert 0 < info.value.step < 200

    def test_moving_particle_stationary_solution(self):
        # u = 1 keeps v = 1 exactly in the discrete recursion too
        p = ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0], 1.0, 50)
        traj = integrate_euler(p, lambda t: np.array([1.0]))
        np.testing.assert_allclose(traj.states[:, 1], 1.0, rtol=1e-14)
        np.testing.assert_allclose(traj.final_state(), [1.0, 1.0], rtol=1e-14)


class TestFunctionals:
    def test_terminal_loss(self):
        p = ControlProblem(integrator(), [0.0], [1.0], 1.0, 10)
        traj = integrate_euler(p, zero_control)
        assert terminal_loss(traj, p.x_star) == pytest.approx(0.5)

    def test_energy_constant_control_exact(self):
        # E = 1/2 dt sum c^2 = 1/2 c^2 T for constant c
        p = ControlProblem(integrator(), [0.0], [1.0], 2.0, 37)
        traj = integrate_euler(p, lambda t: np.array([-1.5]))
        assert control_energy(traj) == pytest.approx(0.5 * 1.5**2 * 2.0, rel=1e-12)

    def test_energy_left_riemann_convergence(self):
        # u(t) = t: E -> 1/2 * 1/3 with O(dt) left-sum error
        def energy_at(k):
            p = ControlProblem(integrator(), [0.0], [1.0], 1.0, k)
            traj = integrate_euler(p, lambda t: np.array([t]))
            return control_energy(traj)

        e1 = abs(energy_at(1000) - 1.0 / 6.0)
        e2 = abs(energy_at(2000) - 1.0 / 6.0)
        assert e1 / e2 == pytest.approx(2.0, abs=0.2)

    def test_work_constant_two_closed_form(self):
        # v' = -v + 2 from v(0) = 1: v(t) = 2 - e^{-t}; W = 2(1 + 1/e)
        p = ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0],
                           1.0, 10_000)
        traj = integrate_euler(p, lambda t: np.array([2.0]))
        want = 2.0 * (1.0 + 1.0 / E)
        assert work_functional(traj) == pytest.approx(want, rel=1e-3)

    def test_work_optimal_control_exactly_one(self):
        p = ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0], 1.0, 100)
        traj = integrate_euler(p, lambda t: np.array([1.0]))
        assert work_functional(traj) == pytest.approx(1.0, rel=1e-12)

    def test_work_needs_particle_trajectory(self):
        p = ControlProblem(integrator(), [0.0], [1.0], 1.0, 10)
        traj = integrate_euler(p, zero_control)
        with pytest.raises(ValueError):
            work_functional(traj)


class TestMseControl:
    def test_zero_for_identical(self):
        u = lambda t: np.array([math.sin(t)])
        assert mse_control(u, u, 50, 1.0) == 0.0

    def test_constant_gap(self):
        u_hat = lambda t: np.array([2.0])
        u_star = lambda t: np.array([1.0])
        assert mse_control(u_hat, u_star, 33, 1.0) == pytest.approx(1.0)

    def test_presampled_matches_callable(self):
        u_hat = lambda t: np.array([t * t])
        u_star = lambda t: np.array([1.0])
        ts = np.arange(1, 21) * (1.0 / 20)
        pre = np.stack([u_hat(t) for t in ts])
        assert mse_control(pre, u_star, 20, 1.0) == pytest.approx(
            mse_control(u_hat, u_star, 20, 1.0)
        )

    def test_against_closed_form_integral(self):
        # int_0^1 (u*(t) - c*)^2 dt = (3 - e) / ((e^2 - 1)(e - 1)) where
        # u* drives x' = x + u from 0 to 1 and c* is the best constant
        w = (E * E - 1.0) / 2.0
        u_star = lambda t: np.array([math.exp(1.0 - t) / w])
        c = 1.0 / (E - 1.0)
        u_hat = lambda t: np.array([c])
        want = (3.0 - E) / ((E * E - 1.0) * (E - 1.0))
        got = mse_control(u_hat, u_star, 20_000, 1.0)
        assert got == pytest.approx(want, rel=1e-3)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            mse_control(lambda t: np.array([0.0]), lambda t: np.array([0.0]), 0, 1.0)
        with pytest.raises(DimensionError):
            mse_control(np.zeros((5, 1)), lambda t: np.array([0.0]), 6, 1.0)


class TestTrajectoryCsv:
    def test_round_trip_values(self):
        p = ControlProblem(integrator(), [0.25], [1.0], 1.0, 4)
        traj = integrate_euler(p, lambda t: np.array([t + 0.1]))
        text = traj.to_csv_string()
        lines = text.strip().splitlines()
        assert lines[0] == "t,x1,u1"
        assert len(lines) == 6
        # repr round-trips doubles exactly
        cells = lines[2].split(",")
        assert float(cells[0]) == traj.times[1]
        assert float(cells[1]) == traj.states[1, 0]
        assert float(cells[2]) == traj.controls[1, 0]
        # terminal row carries no control
        assert lines[-1].endswith(",")

    def test_multidim_header(self):
        p = ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0], 1.0, 2)
        traj = integrate_euler(p, lambda t: np.array([1.0]))
        header = traj.to_csv_string().splitlines()[0]
        assert header == "t,x1,x2,u1"

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), np.zeros((1, 1)))


class TestParticleConstraints:
    def test_clean_run_reports_nothing(self):
        p = ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0], 1.0, 50)
        traj = integrate_euler(p, lambda t: np.array([1.0]))
        assert validate_particle_constraints(traj) == []

    def test_control_bound_violations_reported(self):
        p = ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0], 1.0, 10)
        traj = integrate_euler(p, lambda t: np.array([3.0]))
        msgs = validate_particle_constraints(traj)
        assert len(msgs) == 10
        assert all("u = 3" in m for _, m in msgs)

    def test_negative_velocity_reported(self):
        p = ControlProblem(MovingParticleDynamics(), [0.0, -0.5], [1.0, 1.0], 1.0, 5)
        traj = integrate_euler(p, lambda t: np.array([0.0]))
        msgs = validate_particle_constraints(traj)
        assert any("v = " in m for _, m in msgs)
