"""Optimizer steps against hand recursions, the training loop's recording
contract, and bit-reproducibility."""

import io
import math

import numpy as np
import pytest

from odecontrol.dynamics import (
    ControlProblem,
    first_nonfinite,
    integrate_euler,
    integrator,
    rollout,
    scalar_linear,
)
from odecontrol.gradients import LossSpec
from odecontrol.nets import (
    ConstantControl,
    InitScheme,
    LINEAR,
    MlpSpec,
    SingleNeuron,
    elu,
    init_params,
)
from odecontrol.linalg import SeededRng
from odecontrol.training import (
    Adam,
    AdamState,
    Protocol,
    Sd,
    TrainHistory,
    adam_step,
    delta_u_weighted,
    energy_identity_residual,
    sd_step,
    train,
)

E = math.e


def quick_problem(steps=20):
    return ControlProblem(integrator(), [0.0], [-1.0], 1.0, steps)


class TestOptimizerSteps:
    def test_sd_step(self):
        theta = np.array([1.0, -2.0])
        grad = np.array([0.5, 0.5])
        np.testing.assert_allclose(sd_step(theta, grad, 0.1), [0.95, -2.05])

    def test_adam_hand_recursion(self):
        # follow three steps of the textbook update with plain floats
        cfg = Adam(eta=0.1)
        state = AdamState.zeros(1)
        theta = np.array([1.0])
        grads = [np.array([0.4]), np.array([-0.2]), np.array([0.1])]
        m = v = 0.0
        th = 1.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * float(g[0])
            v = 0.999 * v + 0.001 * float(g[0]) ** 2
            mh = m / (1.0 - 0.9**t)
            vh = v / (1.0 - 0.999**t)
            th = th - 0.1 * mh / (math.sqrt(vh) + 1e-8)
            state, theta = adam_step(state, theta, g, cfg)
            assert theta[0] == pytest.approx(th, rel=1e-14)
        assert state.t == 3

    def test_adam_first_step_is_eta_sized(self):
        # bias correction makes the first step ~eta * sign(grad)
        cfg = Adam(eta=0.05)
        _, theta = adam_step(AdamState.zeros(1), np.array([0.0]),
                             np.array([123.0]), cfg)
        assert theta[0] == pytest.approx(-0.05, rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Sd(0.0)
        with pytest.raises(ValueError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Protocol("rtrl")
        with pytest.raises(ValueError):
            Protocol("tbptt", schedule="sorted")

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_sd_eta_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^eta must be"):
            Sd(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_adam_eta_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^eta must be"):
            Adam(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_adam_eps_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="^eps must be"):
            Adam(1e-3, eps=bad)


class TestTrainLoop:
    def test_bias_only_converges_to_oracle(self):
        # x' = u from 0 to -1: best constant is -1 with loss 0
        problem = quick_problem()
        model = ConstantControl()
        res = train(problem, model, np.zeros(1), Sd(0.5), 60)
        assert res.theta_best[0] == pytest.approx(-1.0, abs=1e-6)
        assert res.loss_best < 1e-12
        assert not res.diverged

    def test_recorded_loss_is_pre_update(self):
        problem = quick_problem()
        model = ConstantControl()
        res = train(problem, model, np.zeros(1), Sd(0.5), 3)
        # theta_0 = 0 gives loss 1/2 exactly, recorded at epoch 0
        assert res.history.loss[0] == pytest.approx(0.5)
        assert res.history.epochs == [0, 1, 2]

    def test_best_model_not_final(self):
        # big eta overshoots: the best iterate appears before the last epoch
        problem = quick_problem()
        model = ConstantControl()
        res = train(problem, model, np.zeros(1), Sd(2.1), 12)
        best_from_history = int(np.argmin(res.history.loss))
        assert res.best_epoch == best_from_history
        assert res.loss_best == pytest.approx(min(res.history.loss))

    def test_bit_reproducible(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 30)
        model = MlpSpec((5,), activation=elu())
        theta0 = init_params(model, InitScheme.uniform(), SeededRng(3))
        proto = Protocol("tbptt", "propagated", "random")
        a = train(problem, model, theta0, Adam(0.01), 40, protocol=proto, seed=9)
        b = train(problem, model, theta0, Adam(0.01), 40, protocol=proto, seed=9)
        np.testing.assert_array_equal(a.theta_final, b.theta_final)
        assert a.history.loss == b.history.loss

    def test_seed_changes_random_schedule(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 30)
        model = MlpSpec((5,), activation=elu())
        theta0 = init_params(model, InitScheme.uniform(), SeededRng(3))
        proto = Protocol("tbptt", "propagated", "random")
        a = train(problem, model, theta0, Adam(0.01), 40, protocol=proto, seed=1)
        b = train(problem, model, theta0, Adam(0.01), 40, protocol=proto, seed=2)
        assert np.max(np.abs(a.theta_final - b.theta_final)) > 0.0

    def test_sd_monotone_for_small_eta(self):
        problem = quick_problem()
        model = SingleNeuron(LINEAR)
        res = train(problem, model, np.array([0.5, 0.5]), Sd(0.1), 50)
        diffs = np.diff(res.history.loss)
        assert np.all(diffs <= 1e-15)

    def test_divergence_flagged_with_partial_history(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 40)
        model = MlpSpec((6, 6), activation=elu())
        theta0 = init_params(model, InitScheme.constant(0.1))
        res = train(problem, model, theta0, Sd(80.0), 50)
        assert res.diverged
        assert res.diverged_at is not None
        assert len(res.history) == res.diverged_at
        assert np.all(np.isfinite(res.theta_best))

    def test_divergence_records_integrator_step(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 40)
        model = MlpSpec((6, 6), activation=elu())
        theta0 = init_params(model, InitScheme.constant(0.1))
        res = train(problem, model, theta0, Sd(80.0), 50)
        assert res.diverged
        assert isinstance(res.diverged_step, int)
        assert 0 <= res.diverged_step < problem.steps
        # theta_final is the iterate whose gradient pass diverged
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate_euler(problem, model.forward_batch(res.theta_final,
                                                                problem.times()[:-1]))
        assert first_nonfinite(traj.states) == res.diverged_step

    def test_finished_run_has_no_divergence_step(self):
        res = train(quick_problem(), SingleNeuron(LINEAR), np.array([0.5, 0.5]),
                    Sd(0.1), 5)
        assert not res.diverged
        assert res.diverged_at is None and res.diverged_step is None

    def test_epoch_budget_validated(self):
        with pytest.raises(ValueError):
            train(quick_problem(), ConstantControl(), np.zeros(1), Sd(0.1), 0)


def assert_same_trajectory(got, want):
    for name in ("times", "states", "controls"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestTrajectoryBest:
    def test_bptt_best_trajectory_is_the_rollout_at_theta_best(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 30)
        model = MlpSpec((5,), activation=elu())
        theta0 = init_params(model, InitScheme.uniform(), SeededRng(2))
        res = train(problem, model, theta0, Adam(0.05), 25, loss=LossSpec.energy(0.1))
        assert res.best_epoch > 0
        assert_same_trajectory(res.trajectory_best, rollout(problem, model, res.theta_best))

    def test_tbptt_best_trajectory_is_the_rollout_at_theta_best(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 30)
        model = MlpSpec((5,), activation=elu())
        theta0 = init_params(model, InitScheme.uniform(), SeededRng(2))
        res = train(problem, model, theta0, Adam(0.05), 25,
                    protocol=Protocol("tbptt", "propagated", "random"), seed=3)
        assert res.best_epoch > 0
        assert_same_trajectory(res.trajectory_best, rollout(problem, model, res.theta_best))

    def test_run_that_never_improves_keeps_epoch_0_trajectory(self):
        # states near 1e200 are finite but the loss overflows to inf every
        # epoch, so no epoch improves on the initial inf
        problem = quick_problem()
        model = ConstantControl()
        with np.errstate(over="ignore"):
            res = train(problem, model, np.array([1e200]), Sd(1e-300), 4)
        assert res.best_epoch == -1 and not res.diverged
        assert_same_trajectory(res.trajectory_best, rollout(problem, model, res.theta_best))

    def test_epoch_0_divergence_has_no_best_trajectory(self):
        # x' = 1e6 x from x0 = 1 overflows within 100 Euler steps
        problem = ControlProblem(scalar_linear(1e6, 1.0), [1.0], [1.0], 1.0, 100)
        res = train(problem, ConstantControl(), np.zeros(1), Sd(0.1), 4)
        assert res.diverged and res.diverged_at == 0
        assert res.trajectory_best is None

    @pytest.mark.parametrize("loss", [LossSpec.energy(10.0), LossSpec.work(0.1)])
    def test_tbptt_rejects_integrated_cost(self, loss):
        with pytest.raises(ValueError, match="terminal loss only"):
            train(quick_problem(), ConstantControl(), np.zeros(1), Sd(0.1), 3,
                  protocol=Protocol("tbptt"), loss=loss)


class TestRecorders:
    def test_delta_u_columns_under_sd(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 50)
        model = MlpSpec((4,), activation=elu())
        theta0 = init_params(model, InitScheme.constant(0.1))
        res = train(problem, model, theta0, Sd(0.05), 10, record_delta_u=True)
        direct = np.asarray(res.history.delta_u_direct)
        pred = np.asarray(res.history.delta_u_pred)
        assert np.all(np.isfinite(direct))
        assert np.all(np.isfinite(pred))
        # the identity is first order in eta; at small eta the two agree
        rel = np.abs(direct - pred) / np.abs(pred)
        assert np.median(rel) < 0.2

    def test_delta_u_pred_nan_under_adam(self):
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 50)
        model = MlpSpec((4,), activation=elu())
        theta0 = init_params(model, InitScheme.constant(0.1))
        res = train(problem, model, theta0, Adam(0.05), 5, record_delta_u=True)
        assert np.all(np.isnan(res.history.delta_u_pred))
        assert np.all(np.isfinite(res.history.delta_u_direct))

    def test_delta_u_needs_scalar_linear_flow(self):
        problem = ControlProblem(integrator(), [0.0], [1.0], 1.0, 10)
        # integrator() is scalar linear, fine; the particle flow is not
        from odecontrol.dynamics import MovingParticleDynamics

        bad = ControlProblem(MovingParticleDynamics(), [0.0, 1.0], [1.0, 1.0],
                             1.0, 10)
        with pytest.raises(ValueError):
            train(bad, ConstantControl(), np.zeros(1), Sd(0.1), 2,
                  record_delta_u=True)
        train(problem, ConstantControl(), np.zeros(1), Sd(0.1), 2,
              record_delta_u=True)

    def test_delta_u_weighted_constant_shift(self):
        # u jumps by a constant d: integral is d * int e^{-at} = d (1-e^-a)/a
        model = ConstantControl()
        a = 0.7
        got = delta_u_weighted(model, np.array([0.2]), np.array([0.9]), a, 1.0,
                               20_000)
        want = 0.7 * (1.0 - math.exp(-a)) / a
        assert got == pytest.approx(want, rel=1e-3)

    def test_energy_identity_residual_quarters_with_half_eta(self):
        # r(theta; eta) is second order in eta, so halving the step at the
        # SAME iterate divides the one-step residual by ~4
        problem = ControlProblem(scalar_linear(1.0, 1.0), [0.0], [1.0], 1.0, 50)
        model = MlpSpec((4,), activation=elu())
        theta0 = init_params(model, InitScheme.constant(0.1))
        # SD keeps no state, so one-epoch runs chained on theta_final walk
        # the iterates of a 10-epoch run
        iterates = [theta0]
        for _ in range(9):
            iterates.append(train(problem, model, iterates[-1], Sd(0.1), 1).theta_final)

        def one_step_residual(theta, eta):
            res = train(problem, model, theta, Sd(eta), 2,
                        record_energy_identity=True)
            return abs(energy_identity_residual(res.history, eta, 0))

        ratios = [one_step_residual(th, 0.1) / one_step_residual(th, 0.05)
                  for th in iterates]
        assert np.median(ratios) == pytest.approx(4.0, abs=0.5)

    def test_energy_identity_requires_recorder(self):
        res = train(quick_problem(), ConstantControl(), np.zeros(1), Sd(0.1), 5)
        with pytest.raises(ValueError):
            energy_identity_residual(res.history, 0.1, 0)
        with pytest.raises(IndexError):
            energy_identity_residual(res.history, 0.1, 10)


class TestHistoryCsv:
    def test_columns_and_blank_nans(self):
        res = train(quick_problem(), ConstantControl(), np.zeros(1), Sd(0.5), 3)
        buf = io.StringIO()
        res.history.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("epoch,loss,energy,grad_norm,delta_u_direct,"
                            "delta_u_pred,e_dot_l,cos_angle")
        assert len(lines) == 4
        # recorders were off: their cells are empty, not "nan"
        assert lines[1].endswith(",,,")
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == res.history.loss[0]

    def test_round_trip_precision(self):
        res = train(quick_problem(), ConstantControl(), np.zeros(1), Sd(0.3), 5)
        buf = io.StringIO()
        res.history.to_csv(buf)
        rows = buf.getvalue().strip().splitlines()[1:]
        for i, row in enumerate(rows):
            assert float(row.split(",")[1]) == res.history.loss[i]
