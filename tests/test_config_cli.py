"""JSON config parsing and the command-line front end. Config errors must
carry the dotted path of the offending field and exit with code 2 before
anything is written; divergence keeps partial outputs and exits 3; reruns
of the same config must produce byte-identical CSVs."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from odecontrol import __version__
from odecontrol.cli import main
from odecontrol.config import (
    ConfigError,
    build_loss,
    build_model,
    build_optimizer,
    build_problem,
    load_json,
    parse_compare_config,
    parse_musweep_config,
    parse_phase_config,
    parse_problem,
    parse_run_config,
    parse_sweep_config,
    parse_training,
)
from odecontrol.nets import ConstantControl, MlpSpec, SingleNeuron, theta_from_json
from odecontrol.training import Adam, Sd

RUN_DOC = {
    "problem": {"kind": "integrator", "x_star": [-1.0], "steps": 20},
    "network": {"kind": "single_neuron", "activation": "linear",
                "init": {"kind": "constant", "value": 0.0}},
    "training": {"optimizer": "sd", "eta": 0.5, "epochs": 8},
}


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class TestRunConfigParsing:
    def test_happy_path(self):
        cfg = parse_run_config(json.loads(json.dumps(RUN_DOC)))
        assert cfg.problem.kind == "integrator"
        assert cfg.problem.x_star == (-1.0,)
        assert cfg.network.kind == "single_neuron"
        assert cfg.training.optimizer == "sd"
        assert cfg.training.eta == 0.5
        assert cfg.raw["problem"]["steps"] == 20

    def test_missing_section(self):
        with pytest.raises(ConfigError) as err:
            parse_run_config({"network": {"hidden": [4]}})
        assert err.value.path == "problem"
        assert "required" in str(err.value)

    def test_unknown_top_level_key(self):
        doc = dict(RUN_DOC, typo_key=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_run_config(doc)

    def test_unknown_nested_key_has_dotted_path(self):
        doc = json.loads(json.dumps(RUN_DOC))
        doc["network"]["init"]["wat"] = 3
        with pytest.raises(ConfigError) as err:
            parse_run_config(doc)
        assert err.value.path == "network.init"

    def test_problem_kind_choices(self):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_problem({"kind": "pendulum"})

    def test_scalar_linear_requires_coefficients(self):
        with pytest.raises(ConfigError) as err:
            parse_problem({"kind": "scalar_linear", "b": 1.0})
        assert err.value.path == "problem.a"

    def test_protocol_string_and_dict_forms(self):
        t1 = parse_training({"protocol": "tbptt"})
        assert t1.protocol.kind == "tbptt"
        t2 = parse_training({"protocol": {"kind": "tbptt", "schedule": "random"}})
        assert t2.protocol.schedule == "random"
        with pytest.raises(ConfigError, match="expected one of"):
            parse_training({"protocol": {"kind": "rtrl"}})

    def test_builders(self):
        cfg = parse_run_config(json.loads(json.dumps(RUN_DOC)))
        problem = build_problem(cfg.problem)
        np.testing.assert_allclose(problem.dynamics.A, [[0.0]])
        assert isinstance(build_model(cfg.network), SingleNeuron)
        assert isinstance(build_optimizer(cfg.training), Sd)
        assert build_loss(cfg.training).integrated is None

    def test_build_model_kinds(self):
        cfg = parse_run_config({
            "problem": {"kind": "flow2d"},
            "network": {"hidden": [4, 4]},
            "training": {"cost": "energy", "mu": 0.1},
        })
        model = build_model(cfg.network, out_dim=1)
        assert isinstance(model, MlpSpec)
        assert isinstance(build_optimizer(cfg.training), Adam)
        loss = build_loss(cfg.training)
        assert loss.integrated == "energy" and loss.mu == 0.1
        const = build_model(parse_run_config({
            "problem": {"kind": "integrator"},
            "network": {"kind": "constant"},
        }).network, out_dim=2)
        assert isinstance(const, ConstantControl)

    def test_single_neuron_needs_scalar_control(self):
        cfg = parse_run_config({
            "problem": {"kind": "integrator"},
            "network": {"kind": "single_neuron"},
        })
        with pytest.raises(ConfigError, match="scalar"):
            build_model(cfg.network, out_dim=2)

    def test_linear_problem_needs_states(self):
        with pytest.raises(ConfigError, match="explicit x0 and x_star"):
            parse_problem({"kind": "linear", "a": [[0.0]], "b": [[1.0]]})

    def test_particle_defaults(self):
        cfg = parse_problem({"kind": "particle"})
        assert cfg.x0 == (0.0, 1.0)
        assert cfg.x_star == (1.0, 1.0)


class TestLoadJson:
    def test_syntax_error_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"a": \n nope}')
        with pytest.raises(ConfigError, match="line 2 column 2"):
            load_json(str(p))

    def test_root_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_json(str(p))


class TestExperimentConfigs:
    def test_phase_defaults_and_axes(self):
        cfg = parse_phase_config({"kind": "relu", "w0": {"lo": -1.0, "hi": 1.0, "count": 5}})
        assert cfg.kind == "relu"
        assert cfg.w0 == (-1.0, 1.0, 5)
        assert cfg.b0 == (-2.0, 2.0, 41)
        assert cfg.method == "map"

    def test_phase_axis_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_phase_config({"w0": {"low": -1.0}})
        assert err.value.path == "w0"

    def test_sweep_preset_choices(self):
        cfg = parse_sweep_config({"preset": "constant", "layers": [1, 2]})
        assert cfg.preset == "constant"
        assert cfg.layers == (1, 2)
        assert cfg.max_neurons is None
        with pytest.raises(ConfigError, match="expected one of"):
            parse_sweep_config({"preset": "spiral"})

    def test_musweep_requires_mus(self):
        with pytest.raises(ConfigError) as err:
            parse_musweep_config({"epochs": 5})
        assert err.value.path == "mus"

    def test_compare_defaults(self):
        cfg = parse_compare_config({})
        assert cfg.hidden == (14, 14)
        assert cfg.eta_bptt == 3e-3
        assert cfg.eta_tbptt == 5e-3
        assert cfg.timing_epochs == 200


class TestOcCommand:
    def test_scalar_linear_defaults(self, capsys):
        code = main(["oc", "--scalar-linear", "a=1", "b=1", "x0=0",
                     "xstar=1", "T=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.156517" in out
        assert len(out.strip().split("\n")) == 2 + 11

    def test_constant_with_overrides(self, capsys):
        code = main(["oc", "--constant", "x0=1", "xstar=4", "T=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimum=2.25" in out
        assert " 1.500000" in out

    def test_requires_exactly_one_kind(self, capsys):
        assert main(["oc"]) == 2
        assert main(["oc", "--constant", "--flow2d"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_rejects_unknown_parameter(self, capsys):
        assert main(["oc", "--constant", "q=1"]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_rejects_bad_number(self, capsys):
        assert main(["oc", "--constant", "x0=abc"]) == 2
        assert "needs a number" in capsys.readouterr().err

    def test_fixed_benchmarks_take_no_params(self, capsys):
        assert main(["oc", "--flow2d", "x0=1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--scalar-linear", "a=0", "b=0"],
        ["--scalar-linear", "a=1", "b=0"],
        ["--scalar-linear", "T=0"],
        ["--constant", "T=-1"],
    ])
    def test_bad_constants_are_config_errors(self, capsys, argv):
        assert main(["oc", *argv]) == 2
        assert "config error: oc:" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", RUN_DOC)
        outdir = tmp_path / "run_out"
        assert main(["train", "--config", cfg, "--out", str(outdir)]) == 0
        capsys.readouterr()
        history = (outdir / "history.csv").read_text().strip().split("\n")
        assert history[0].startswith("epoch,loss,energy,grad_norm")
        assert len(history) == 1 + 8
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"] == RUN_DOC
        assert manifest["seed"] == 0
        assert manifest["artifact_version"] == __version__
        assert manifest["diverged"] is False
        assert manifest["diverged_at"] is None and manifest["diverged_step"] is None
        model = SingleNeuron()
        theta = theta_from_json((outdir / "best_theta.json").read_text(), model)
        assert theta.shape == (2,)
        assert np.all(np.isfinite(theta))

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", RUN_DOC)
        outdir = tmp_path / "seeded"
        assert main(["train", "--config", cfg, "--out", str(outdir),
                     "--seed", "5"]) == 0
        capsys.readouterr()
        assert json.loads((outdir / "manifest.json").read_text())["seed"] == 5

    def test_missing_field_writes_nothing(self, tmp_path, capsys):
        doc = {k: v for k, v in RUN_DOC.items() if k != "problem"}
        cfg = write_json(tmp_path / "broken.json", doc)
        outdir = tmp_path / "broken_out"
        assert main(["train", "--config", cfg, "--out", str(outdir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        p = tmp_path / "syntax.json"
        p.write_text("{ nope }")
        assert main(["train", "--config", str(p), "--out",
                     str(tmp_path / "x")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "gone.json"),
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_divergence_keeps_partial_outputs(self, tmp_path, capsys):
        doc = json.loads(json.dumps(RUN_DOC))
        doc["training"]["eta"] = 80.0
        doc["training"]["epochs"] = 300
        cfg = write_json(tmp_path / "explode.json", doc)
        outdir = tmp_path / "explode_out"
        assert main(["train", "--config", cfg, "--out", str(outdir)]) == 3
        capsys.readouterr()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["diverged"] is True
        assert isinstance(manifest["diverged_at"], int)
        assert isinstance(manifest["diverged_step"], int)
        assert 0 <= manifest["diverged_step"] < doc["problem"]["steps"]
        history = (outdir / "history.csv").read_text().strip().split("\n")
        assert len(history) == 1 + manifest["diverged_at"]

    def test_plot_writes_svgs(self, tmp_path, capsys):
        doc = json.loads(json.dumps(RUN_DOC))
        doc["output"] = {"plot": True}
        cfg = write_json(tmp_path / "plotted.json", doc)
        outdir = tmp_path / "plot_out"
        assert main(["train", "--config", cfg, "--out", str(outdir)]) == 0
        capsys.readouterr()
        for name in ("loss.svg", "energy.svg", "control.svg"):
            root = ET.fromstring((outdir / name).read_text())
            assert root.tag.endswith("svg")


class TestExperimentCommands:
    def test_phase_writes_grid(self, tmp_path, capsys):
        doc = {"kind": "linear", "w0": {"lo": -1.0, "hi": 1.0, "count": 3},
               "b0": {"lo": -2.0, "hi": 0.0, "count": 3}, "epochs": 5}
        cfg = write_json(tmp_path / "phase.json", doc)
        outdir = tmp_path / "phase_out"
        assert main(["phase", "--config", cfg, "--out", str(outdir)]) == 0
        capsys.readouterr()
        lines = (outdir / "grid.csv").read_text().strip().split("\n")
        assert lines[0] == "w0,b0,mse"
        assert len(lines) == 1 + 9

    def test_sweep_rerun_is_byte_identical(self, tmp_path, capsys):
        doc = {"preset": "constant", "layers": [1, 2], "max_neurons": [4, 8],
               "epochs": 3, "steps": 20}
        cfg = write_json(tmp_path / "sweep.json", doc)
        csvs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            assert main(["sweep", "--config", cfg, "--out", str(outdir)]) == 0
            csvs.append((outdir / "grid.csv").read_bytes())
        capsys.readouterr()
        assert csvs[0] == csvs[1]
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["experiment"] == "depth_width_sweep"
        assert np.shape(manifest["cell_seeds"]) == (2, 2)

    def test_musweep_prepends_reference(self, tmp_path, capsys):
        doc = {"mus": [0.001], "epochs": 2, "steps": 20}
        cfg = write_json(tmp_path / "mu.json", doc)
        outdir = tmp_path / "mu_out"
        assert main(["musweep", "--config", cfg, "--out", str(outdir)]) == 0
        capsys.readouterr()
        lines = (outdir / "grid.csv").read_text().strip().split("\n")
        assert lines[0] == "mu,loss,work,energy,diverged"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.0

    def test_project_writes_grid_and_manifest(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "integrator", "x_star": [-1.0], "steps": 20},
            "network": {"hidden": [3],
                        "init": {"kind": "constant", "value": 0.1}},
            "training": {"optimizer": "sd", "eta": 0.1, "epochs": 2},
            "projection": {"seed": 1, "alpha": {"lo": -0.1, "hi": 0.1, "count": 3},
                           "samples": 5},
        }
        cfg = write_json(tmp_path / "proj.json", doc)
        outdir = tmp_path / "proj_out"
        assert main(["project", "--config", cfg, "--out", str(outdir)]) == 0
        capsys.readouterr()
        lines = (outdir / "projection.csv").read_text().strip().split("\n")
        assert lines[0] == "alpha,beta,loss,mse_u,energy"
        assert len(lines) == 1 + 3
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "project"
        assert manifest["direction_seed"] == 1
        assert manifest["training_seed"] == 0
        assert "center_loss" in manifest

    def test_compare_protocols_outputs(self, tmp_path, capsys):
        doc = {"hidden": [3], "epochs": 4, "timing_epochs": 2, "steps": 30}
        cfg = write_json(tmp_path / "cmp.json", doc)
        outdir = tmp_path / "cmp_out"
        assert main(["compare-protocols", "--config", cfg, "--out",
                     str(outdir)]) == 0
        capsys.readouterr()
        lines = (outdir / "history.csv").read_text().strip().split("\n")
        assert lines[0].startswith("protocol,epoch,loss")
        assert lines[1].startswith("bptt,")
        assert lines[-1].startswith("tbptt,")
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["bptt"]["vjps_per_epoch"] == 30.0
        assert manifest["tbptt"]["vjps_per_epoch"] == 1.0

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        capsys.readouterr()

    def test_workers_only_on_grid_commands(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", RUN_DOC)
        with pytest.raises(SystemExit) as err:
            main(["train", "--config", cfg, "--workers", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
