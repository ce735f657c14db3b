"""Grid experiments: single-neuron phase maps, depth/width sweeps, the
two-protocol benchmark, and the particle work-multiplier sweep. Settings are
cut down hard; what is under test is orchestration: deterministic seeding,
pool/serial equality, and CSV/manifest round trips."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from odecontrol.experiments import (
    Axis,
    GridSpec,
    PHASE_GRID,
    SweepConfig,
    architecture_scan,
    best_metrics,
    cell_seed,
    constant_problem,
    csv_text,
    depth_width_sweep,
    flow2d_problem,
    mu_sweep,
    particle_problem,
    phase_diagram,
    phase_spot_check,
    protocol_comparison,
    run_sweep_cell,
    scan_to_csv,
    sweep_preset,
    time_dependent_problem,
)
import odecontrol
from odecontrol.dynamics import ControlProblem, integrator
from odecontrol.nets import RELU, InitScheme, MlpSpec, SingleNeuron, elu
from odecontrol.oracles import moving_particle_oc
from odecontrol.pool import blas_threads
from odecontrol.training import Adam, TrainHistory, TrainResult, train


class TestProblemFactories:
    def test_constant_problem(self):
        p = constant_problem(steps=50)
        np.testing.assert_allclose(p.dynamics.A, [[0.0]])
        np.testing.assert_allclose(p.dynamics.B, [[1.0]])
        np.testing.assert_allclose(p.x0, [0.0])
        np.testing.assert_allclose(p.x_star, [-1.0])
        assert p.steps == 50

    def test_time_dependent_problem(self):
        p = time_dependent_problem()
        np.testing.assert_allclose(p.dynamics.A, [[1.0]])
        np.testing.assert_allclose(p.x_star, [1.0])

    def test_flow2d_problem(self):
        p = flow2d_problem()
        np.testing.assert_allclose(p.dynamics.A, [[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(p.dynamics.B, [[1.0], [0.0]])
        np.testing.assert_allclose(p.x0, [0.5, 0.5])
        np.testing.assert_allclose(p.x_star, [1.0, -1.0])

    def test_particle_problem(self):
        p = particle_problem()
        np.testing.assert_allclose(p.x0, [0.0, 1.0])
        np.testing.assert_allclose(p.x_star, [1.0, 1.0])
        assert p.dynamics.name == "moving_particle"


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(0, 1, 2) == cell_seed(0, 1, 2)

    def test_distinct_across_cells_and_bases(self):
        seeds = {cell_seed(base, i, j)
                 for base in range(3) for i in range(5) for j in range(5)}
        assert len(seeds) == 75

    def test_range(self):
        for s in (cell_seed(0, 0), cell_seed(12345, 8, 9)):
            assert 0 <= s < 2147483647


class TestAxis:
    def test_values_linear(self):
        np.testing.assert_allclose(Axis("w0", -2.0, 2.0, 5).values(),
                                   [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count >= 2"):
            Axis("w0", 0.0, 1.0, 1)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="hi > lo"):
            Axis("w0", 1.0, 1.0, 3)


class TestPhaseDiagram:
    # Grid lattice: w0 in {0, 1, 2}, b0 in {-2, -1, 0, 1}. The gradient flow
    # moves along (T^2/2, T) onto the fixed line w = -2 (1 + b).
    GRID = GridSpec(Axis("w0", 0.0, 2.0, 3), Axis("b0", -2.0, 1.0, 4))

    def test_linear_map_structure(self):
        res = phase_diagram("linear", grid=self.GRID, eta=0.1, epochs=600)
        assert res.mse.shape == (3, 4)
        # (0, -1) is the optimum itself, a fixed point with zero deviation
        assert res.mse[0, 1] == 0.0
        # (1, 1) lies on the flow line through the optimum: 2 w0 - b0 = 1
        assert res.mse[1, 3] < 1e-12
        # (2, -2) sits on the fixed line but away from the optimum
        assert res.mse[2, 0] == pytest.approx(2.5)
        # (2, 1) converges to the line at (0.8, -1.4), distance^2/2 = 0.4
        assert res.mse[2, 3] == pytest.approx(0.4, abs=1e-10)

    def test_relu_map_structure(self):
        grid = GridSpec(Axis("w0", -1.5, 1.5, 2), Axis("b0", -2.0, 0.0, 3))
        res = phase_diagram("relu", grid=grid, eta=0.1, epochs=600)
        # w0 < 0 freezes the slope; the bias map contracts b onto b* = -1
        assert res.mse[0, 2] < 1e-12
        # w0 > 0 follows the linear flow onto the line at (1.2, -1.6)
        assert res.mse[1, 1] == pytest.approx(0.9, abs=1e-10)

    def test_train_adam_method_runs(self):
        grid = GridSpec(Axis("w0", -1.0, 1.0, 2), Axis("b0", -1.0, 0.0, 2))
        res = phase_diagram("linear", grid=grid, eta=0.1, epochs=40,
                            method="train_adam", steps=40)
        assert res.mse.shape == (2, 2)
        assert res.manifest()["steps"] == 40
        assert np.all(np.isfinite(res.mse))
        assert np.all(res.mse >= 0.0)

    def test_csv_round_trip(self):
        res = phase_diagram("linear", grid=self.GRID, eta=0.1, epochs=5)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "w0,b0,mse"
        assert len(lines) == 1 + 3 * 4
        w, b, mse = (float(v) for v in lines[1].split(","))
        assert (w, b) == (0.0, -2.0)
        assert mse == res.mse[0, 0]

    def test_manifest_serializable(self):
        res = phase_diagram("relu", grid=self.GRID, eta=0.2, epochs=3)
        doc = json.loads(json.dumps(res.manifest()))
        assert doc["experiment"] == "phase_diagram"
        assert doc["kind"] == "relu"
        assert doc["grid"]["x"]["count"] == 3
        assert doc["eta"] == 0.2
        assert "steps" not in doc  # the map method never runs the simulator

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_horizon_validation(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive"):
            phase_diagram("linear", grid=self.GRID, horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be positive"):
            phase_spot_check("linear", n_cells=1, horizon=horizon)

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            phase_diagram("cubic", grid=self.GRID)

    def test_method_validation(self):
        with pytest.raises(ValueError, match="method"):
            phase_diagram("linear", grid=self.GRID, method="rtrl")

    @pytest.mark.parametrize("method", ["map", "train_adam"])
    @pytest.mark.parametrize("setting, match", [
        (dict(eta=-1.0), "eta must be positive"),
        (dict(eta=0.0), "eta must be positive"),
        (dict(epochs=0), "epochs must be >= 1"),
    ], ids=["eta-negative", "eta-0", "epochs-0"])
    def test_rate_and_epochs_validation(self, method, setting, match):
        with pytest.raises(ValueError, match=match):
            phase_diagram("linear", grid=self.GRID, method=method, **setting)


class TestPhaseTrainAdamGrid:
    def test_full_grid_cells_equal_single_runs(self):
        # the 41x41 figure grid trains as one population; seeded cells on both
        # sides of w0 = 0 must equal a train call of their own, bit for bit
        res = phase_diagram("relu", PHASE_GRID, method="train_adam")
        assert res.mse.shape == (41, 41) and np.all(np.isfinite(res.mse))
        rng = np.random.default_rng(11)
        cells = [(int(rng.integers(0, 21)), int(rng.integers(0, 41))) for _ in range(3)]
        cells += [(int(rng.integers(21, 41)), int(rng.integers(0, 41))) for _ in range(2)]
        problem = ControlProblem(integrator(), [0.0], [-1.0], 1.0, 100)
        ws, bs = PHASE_GRID.x.values(), PHASE_GRID.y.values()
        assert any(ws[i] <= 0.0 for i, _ in cells) and any(ws[i] > 0.0 for i, _ in cells)
        for i, j in cells:
            alone = train(problem, SingleNeuron(RELU), np.array([ws[i], bs[j]]), Adam(0.1), 300)
            w, b = (float(v) for v in alone.theta_final)
            assert res.mse[i, j] == 0.5 * (max(w, 0.0) ** 2 + (b + 1.0) ** 2)


class TestPhaseSpotCheck:
    def test_sd_matches_analytic_map(self):
        # Steepest descent through the simulator follows the analytic map up
        # to the O(1/steps) quadrature gap in the residual.
        rows = phase_spot_check("linear", n_cells=2, eta=0.1, epochs=400,
                                steps=400, seed=3, optimizer="sd")
        assert len(rows) == 2
        for r in rows:
            assert r["attractor_dist"] < 1e-2
            assert abs(r["w"] - r["map_w"]) < 1e-2
            assert abs(r["b"] - r["map_b"]) < 1e-2

    def test_adam_reaches_relu_attractor(self):
        rows = phase_spot_check("relu", n_cells=2, eta=0.1, epochs=300,
                                steps=300, seed=5)
        for r in rows:
            assert "map_w" not in r
            assert r["attractor_dist"] < 1e-3


def tiny_sweep() -> SweepConfig:
    return sweep_preset("constant", layers=(1, 2), max_neurons=(4, 8),
                        epochs=5, base_seed=7, steps=30)


class TestDepthWidthSweep:
    def test_preset_fields(self):
        cfg = sweep_preset("constant")
        assert cfg.name == "constant"
        assert cfg.layers == tuple(range(1, 10))
        assert cfg.max_neurons == tuple(110 * k for k in range(1, 11))
        assert cfg.epochs == 100
        assert not cfg.use_bias
        assert cfg.activation.kind == "tanh"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown sweep preset"):
            sweep_preset("spiral")

    def test_grid_layout_and_seeds(self):
        cfg = tiny_sweep()
        res = depth_width_sweep(cfg)
        assert len(res.cells) == 4
        assert (res.cells[0].layers, res.cells[0].max_neurons) == (1, 4)
        assert (res.cells[3].layers, res.cells[3].max_neurons) == (2, 8)
        assert res.cell(2, 8).width == 4
        assert [c.max_neurons for c in res.column(1)] == [4, 8]
        for i, layers in enumerate(cfg.layers):
            for j, n in enumerate(cfg.max_neurons):
                assert res.cell(layers, n).seed == cell_seed(7, i, j)

    def test_standalone_cell_matches_grid(self):
        cfg = tiny_sweep()
        res = depth_width_sweep(cfg)
        alone = run_sweep_cell(cfg, 2, 8, cell_seed(7, 1, 1))
        assert alone == res.cell(2, 8)

    def test_pool_matches_serial(self):
        cfg = tiny_sweep()
        serial = depth_width_sweep(cfg, workers=1)
        pooled = depth_width_sweep(cfg, workers=2)
        assert serial.cells == pooled.cells

    def test_pool_matches_pinned_serial_subprocess(self):
        # the 2 x 440 cell multiplies 220-wide layers, where OpenBLAS threads
        # its gemm and the result depends on the thread count; pool workers run
        # one BLAS thread, like this serial run in a pinned subprocess
        cfg = sweep_preset("constant", layers=(1, 2), max_neurons=(440,), epochs=10,
                           base_seed=3)
        pooled = depth_width_sweep(cfg, workers=2)
        script = ("import sys\n"
                  "from odecontrol.experiments import depth_width_sweep, sweep_preset\n"
                  "cfg = sweep_preset('constant', layers=(1, 2), max_neurons=(440,), "
                  "epochs=10, base_seed=3)\n"
                  "sys.stdout.write(depth_width_sweep(cfg).to_csv())\n")
        src = os.path.dirname(os.path.dirname(odecontrol.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        serial = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True, timeout=300).stdout
        assert pooled.to_csv() == serial
        assert pooled.blas_threads == {"parent": blas_threads(), "workers": 1}
        assert pooled.manifest()["blas_threads"] == pooled.blas_threads

    def test_pool_restores_the_thread_variables(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        res = depth_width_sweep(tiny_sweep(), workers=2)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ
        assert res.blas_threads == {"parent": 3, "workers": 1}
        assert depth_width_sweep(tiny_sweep()).blas_threads == {"parent": 3, "workers": None}

    def test_csv_round_trip(self):
        res = depth_width_sweep(tiny_sweep())
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == ("layers,max_neurons,width,seed,energy,loss,"
                            "mean_u,var_u,epochs_run,diverged")
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "4"
        assert float(first[5]) == res.cells[0].loss

    def test_manifest_serializable(self):
        res = depth_width_sweep(tiny_sweep())
        doc = json.loads(json.dumps(res.manifest()))
        assert doc["experiment"] == "depth_width_sweep"
        assert doc["preset"] == "constant"
        assert doc["base_seed"] == 7
        assert np.shape(doc["cell_seeds"]) == (2, 2)
        assert doc["cell_seeds"][1][1] == cell_seed(7, 1, 1)

    def test_empty_layer_rejected(self):
        cfg = sweep_preset("constant", layers=(9,), max_neurons=(4,),
                           epochs=1, steps=10)
        with pytest.raises(ValueError, match="empty layer"):
            depth_width_sweep(cfg)

    def test_epoch_0_divergence_is_a_flagged_cell(self):
        # 1e307 weights and biases overflow the elu net's output, so every
        # cell diverges in its first gradient pass and has no best model
        cfg = dataclasses.replace(
            sweep_preset("time_dependent", layers=(1, 2), max_neurons=(4,),
                         epochs=3, steps=20),
            init=InitScheme.constant(1e307),
        )
        res = depth_width_sweep(cfg)
        assert len(res.cells) == 2
        for cell in res.cells:
            assert cell.diverged and cell.epochs_run == 0
            assert all(math.isnan(v) for v in (cell.energy, cell.loss, cell.mean_u, cell.var_u))
        # NaN != NaN, so compare the printed cells
        assert repr(run_sweep_cell(cfg, 2, 4, res.cell(2, 4).seed)) == repr(res.cell(2, 4))

    def test_cell_width_validation(self):
        cfg = tiny_sweep()
        with pytest.raises(ValueError, match="width"):
            run_sweep_cell(cfg, 9, 4, 0)


class TestProtocolComparison:
    @pytest.mark.parametrize("setting", [
        dict(eta_tbptt=-1.0), dict(timing_epochs=0), dict(epochs=0), dict(hidden=(0,)),
    ], ids=["eta-tbptt", "timing-epochs", "epochs", "hidden"])
    def test_arguments_checked_before_the_first_run(self, setting, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a run started before the arguments were checked")

        monkeypatch.setattr("odecontrol.experiments.train", no_training)
        with pytest.raises(ValueError):
            protocol_comparison(**{"epochs": 2, "timing_epochs": 2, **setting})

    def test_counts_and_summary(self):
        pc = protocol_comparison(hidden=(4,), epochs=30, seed=0,
                                 timing_epochs=5)
        # full backprop does one vjp per integration step, truncation one total
        assert pc.bptt_vjps_per_epoch == 100.0
        assert pc.tbptt_vjps_per_epoch == 1.0
        assert pc.bptt_seconds_per_epoch > 0.0
        assert pc.tbptt_seconds_per_epoch > 0.0
        assert math.isfinite(pc.bptt_loss) and math.isfinite(pc.tbptt_loss)
        assert pc.energy_star == pytest.approx(31.762904233503146, rel=1e-9)
        doc = json.loads(json.dumps(pc.summary()))
        assert doc["experiment"] == "protocol_comparison"
        assert doc["bptt"]["vjps_per_epoch"] == 100.0
        assert doc["tbptt"]["vjps_per_epoch"] == 1.0
        assert doc["energy_star"] == pc.energy_star
        manifest = json.loads(json.dumps(pc.manifest()))
        assert manifest == {**doc, "hidden": [4], "epochs": 30, "eta_bptt": 3e-3,
                            "eta_tbptt": 5e-3, "seed": 0, "timing_epochs": 5,
                            "steps": 100}


class TestMuSweep:
    def test_zero_reference_prepended(self):
        res = mu_sweep(mus=(1e-3,), epochs=4, eta=0.1, seed=0, steps=40)
        assert [p.mu for p in res.points] == [0.0, 1e-3]
        for p in res.points:
            assert math.isfinite(p.loss) and math.isfinite(p.work)
            assert not p.diverged

    def test_csv_and_manifest(self):
        res = mu_sweep(mus=(1e-3,), epochs=2, eta=0.1, seed=1, steps=30)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "mu,loss,work,energy,diverged"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.0
        doc = json.loads(json.dumps(res.manifest()))
        assert doc["experiment"] == "mu_sweep"
        assert doc["seed"] == 1
        assert doc["net"]["hidden"] == [6] * 8

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            mu_sweep(mus=(-1e-3,), epochs=1)

    def test_manifest_names_the_net_and_init_the_runs_use(self):
        doc = mu_sweep(mus=(1e-3,), epochs=1, steps=10).manifest()
        assert json.dumps(doc) == (
            '{"experiment": "mu_sweep", "mus": [0.0, 0.001], "seed": 0, "epochs": 1, '
            '"steps": 10, "optimizer": {"name": "adam", "eta": 0.1}, '
            '"net": {"hidden": [6, 6, 6, 6, 6, 6, 6, 6], "activation": "elu"}, '
            '"init": {"kind": "uniform", "bound_rule": "inv_sqrt_k", '
            '"scale": 2.449489742783178, "bias_value": 0.01}}'
        )


class TestArchitectureScan:
    def test_scan_points_and_csv(self):
        from odecontrol.nets import elu

        points = architecture_scan(depths=(1, 2), activations=(elu(),),
                                   width=4, epochs=4, steps=40)
        assert [(p.depth, p.activation) for p in points] == [(1, "elu"), (2, "elu")]
        for p in points:
            assert math.isfinite(p.loss) and math.isfinite(p.mse_u)
        lines = scan_to_csv(points).strip().split("\n")
        assert lines[0] == "depth,activation,loss,mse_u,diverged"
        assert len(lines) == 3
        assert lines[1].startswith("1,elu,")


class TestBestMetrics:
    def test_no_best_model_scores_nan_and_diverged(self):
        # epoch 0 diverged: no best trajectory. Every score is NaN (work on
        # the particle, mse_u with u_star) and diverged is set even though
        # the result itself does not say so
        problem = particle_problem(steps=10)
        model = MlpSpec((2,), out_dim=1)
        theta = np.zeros(model.n_params)
        res = TrainResult(TrainHistory(), theta, math.inf, 0, theta, None)
        m = best_metrics(problem, model, res, moving_particle_oc().u_star)
        assert m.pop("diverged") is True
        assert sorted(m) == ["energy", "loss", "mean_u", "mse_u", "var_u", "work"]
        assert all(math.isnan(v) for v in m.values())
        assert sorted(best_metrics(constant_problem(10), model, res)) == [
            "diverged", "energy", "loss", "mean_u", "var_u"]

    def test_scores_the_best_trajectory(self):
        problem = particle_problem(steps=20)
        model = MlpSpec((3,), activation=elu(), out_dim=1)
        theta0 = np.full(model.n_params, 0.1)
        res = train(problem, model, theta0, Adam(1e-2), 3)
        sol = moving_particle_oc()
        m = best_metrics(problem, model, res, sol.u_star)
        traj = res.trajectory_best
        u = traj.controls.ravel()
        u_hat = model.forward_batch(res.theta_best, np.arange(1, 21) / 20.0)[:, 0]
        want = {
            "loss": 0.5 * np.sum((traj.states[-1] - problem.x_star) ** 2),
            "energy": 0.5 * traj.dt * np.sum(u * u),
            "mean_u": np.mean(u),
            "var_u": np.var(u),
            "work": traj.dt * np.sum(traj.states[:-1, 1] * u),
            "mse_u": np.mean((u_hat - sol.u_star(0.0)) ** 2),
        }
        assert m.pop("diverged") is False
        assert m == pytest.approx(want, rel=1e-12)


class TestEpochZeroDivergence:
    def test_protocol_comparison_scores_nan(self):
        # x0 = 1e308 overflows in the first Euler step, so neither protocol
        # has a best model
        flow2d = flow2d_problem()
        problem = ControlProblem(flow2d.dynamics, [1e308, 0.5], flow2d.x_star, 1.0, 20)
        with np.errstate(over="ignore"):  # the oracle's x0 overflows too
            pc = protocol_comparison(problem=problem, hidden=(3,), epochs=2, timing_epochs=1)
        assert pc.bptt.diverged and pc.tbptt.diverged
        doc = pc.summary()
        assert math.isnan(doc["bptt"]["energy"]) and math.isnan(doc["tbptt"]["energy"])


# CSV text of every writer on tiny runs, as written before the writers
# shared csv_text; np.float64 cells read as plain floats, not np.float64(...)
SWEEP_DIVERGED_CSV = (
    'layers,max_neurons,width,seed,energy,loss,mean_u,var_u,epochs_run,diverged\n'
    '1,4,4,507061686,nan,nan,nan,nan,0,1\n'
    '2,4,2,507102189,nan,nan,nan,nan,0,1\n'
)
SWEEP_CSV = (
    'layers,max_neurons,width,seed,energy,loss,mean_u,var_u,epochs_run,diverged\n'
    '1,4,4,1908242837,0.012769283842998287,0.3697888484975072,-0.1400129669611208,'
    '0.005934936768740674,5,0\n'
    '1,8,8,1908311906,0.0028602669798486148,0.5678805357553004,0.0657209163334464,'
    '0.001401295115989368,5,0\n'
    '2,4,2,1908283340,0.0054628894485918835,0.4136952901837031,-0.09038987452458173,'
    '0.0027554494806141345,5,0\n'
    '2,8,4,1908352409,0.011910521958231198,0.3733814770588446,-0.13584552647244294,'
    '0.005367036853887201,5,0\n'
)
PHASE_CSV = (
    'w0,b0,mse\n'
    '-1.0,-2.0,0.3367680185474456\n'
    '-1.0,0.0,0.9263075576163826\n'
    '1.0,-2.0,0.9263075576163826\n'
    '1.0,0.0,0.33676801854744554\n'
)
MU_CSV = (
    'mu,loss,work,energy,diverged\n'
    '0.0,0.1710848865708736,0.1392752937896428,0.020584544483838438,0\n'
    '0.001,0.17108488657046875,0.13927529378941897,0.020584544483763508,0\n'
)
SCAN_CSV = (
    'depth,activation,loss,mse_u,diverged\n'
    '1,elu,0.25347598433189983,0.9433326230936194,0\n'
    '2,elu,0.25395554652201346,0.9451087074521538,0\n'
)


class TestCsvText:
    def test_cell_formats(self):
        text = csv_text(("a", "b", "c", "d", "e"),
                        [(np.float64(0.1), np.bool_(True), False, 3, "elu"),
                         (float("nan"), np.float64(-np.inf), 1e-300, np.int64(7), "x")])
        assert text == "a,b,c,d,e\n0.1,1,0,3,elu\nnan,-inf,1e-300,7,x\n"

    def test_sweep_with_diverged_cells(self):
        cfg = dataclasses.replace(
            sweep_preset("time_dependent", layers=(1, 2), max_neurons=(4,),
                         epochs=3, steps=20),
            init=InitScheme.constant(1e307),
        )
        assert depth_width_sweep(cfg).to_csv() == SWEEP_DIVERGED_CSV

    def test_sweep(self):
        assert depth_width_sweep(tiny_sweep()).to_csv() == SWEEP_CSV

    def test_map_phase_grid(self):
        grid = GridSpec(Axis("w0", -1.0, 1.0, 2), Axis("b0", -2.0, 0.0, 2))
        assert phase_diagram("linear", grid=grid, eta=0.1, epochs=5).to_csv() == PHASE_CSV

    def test_mu_sweep(self):
        res = mu_sweep(mus=(1e-3,), epochs=2, eta=0.1, seed=1, steps=30)
        assert res.to_csv() == MU_CSV

    def test_architecture_scan(self):
        points = architecture_scan(depths=(1, 2), activations=(elu(),), width=4,
                                   epochs=4, steps=40)
        assert scan_to_csv(points) == SCAN_CSV
