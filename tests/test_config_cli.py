"""JSON config parsing and the command-line front end. Config errors must
carry the dotted path of the offending field and exit with code 2 before
anything is written; divergence keeps partial outputs and exits 3; reruns
of the same config must produce byte-identical CSVs."""

import copy
import inspect
import json
import pathlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from odecontrol import __version__
from odecontrol.cli import main
from odecontrol.config import (
    ConfigError,
    load_json,
    parse_compare_config,
    parse_musweep_config,
    parse_network,
    parse_phase_config,
    parse_problem,
    parse_project_config,
    parse_run_config,
    parse_sweep_config,
    parse_training,
)
from odecontrol.experiments import (
    PHASE_GRID,
    SWEEP_PRESETS,
    Axis,
    phase_diagram,
    protocol_comparison,
)
from odecontrol.gradients import LossSpec
from odecontrol.nets import (
    ConstantControl,
    InitScheme,
    MlpSpec,
    SingleNeuron,
    theta_from_json,
    theta_to_json,
)
from odecontrol.training import Adam, Sd

RUN_DOC = {
    "problem": {"kind": "integrator", "x_star": [-1.0], "steps": 20},
    "network": {"kind": "single_neuron", "activation": "linear",
                "init": {"kind": "constant", "value": 0.0}},
    "training": {"optimizer": "sd", "eta": 0.5, "epochs": 8},
}
PROJECT_DOC = {
    "problem": {"kind": "integrator", "x_star": [-1.0], "steps": 20},
    "network": {"hidden": [3], "init": {"kind": "constant", "value": 0.1}},
    "training": {"optimizer": "sd", "eta": 0.1, "epochs": 2},
    "projection": {"seed": 1, "alpha": {"lo": -0.1, "hi": 0.1, "count": 3},
                   "samples": 5},
}
PHASE_DOC = {"kind": "linear", "w0": {"lo": -1.0, "hi": 1.0, "count": 3},
             "b0": {"lo": -2.0, "hi": 0.0, "count": 3}, "epochs": 5}
SWEEP_DOC = {"preset": "constant", "layers": [1, 2], "max_neurons": [4, 8],
             "epochs": 3, "steps": 20}
MUSWEEP_DOC = {"mus": [0.001], "epochs": 2, "steps": 20}
COMPARE_DOC = {"hidden": [3], "epochs": 4, "timing_epochs": 2, "steps": 30}


# theta files that test_config_command writes into its working directory:
# json reads NaN and Infinity, and int() would read 1.7 and true as 1
BAD_THETA_FILES = {
    "theta-nan.json": '{"layout": [[1, 1, 1], [1, 1, 1]], "theta": [NaN, 0, 0, 0]}',
    "theta-inf.json": '{"layout": [[1, 1, 1], [1, 1, 1]], "theta": [1e308, Infinity, 0, 0]}',
    "theta-float-layout.json": '{"layout": [[1.7, 1, 1], [1, 1, 1]], "theta": [0, 0, 0, 0]}',
    "theta-bool-layout.json": '{"layout": [[1, 1, true], [1, 1, 1]], "theta": [0, 0, 0, 0]}',
}


def around_theta_file(name):
    """PROJECT_DOC for a one-neuron net around the θ in theta file `name`."""
    doc = {k: v for k, v in PROJECT_DOC.items() if k != "training"}
    return edited(doc, network={"hidden": [1]}, projection__theta_file=name)


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def edited(doc, **changes):
    """A deep copy of doc with each change applied; a change's name is its
    dotted path with the dots written as double underscores."""
    doc = copy.deepcopy(doc)
    for dotted, value in changes.items():
        *parents, key = dotted.split("__")
        node = doc
        for p in parents:
            node = node[p]
        node[key] = value
    return doc


class TestRunConfigParsing:
    def test_happy_path(self):
        cfg = parse_run_config(json.loads(json.dumps(RUN_DOC)))
        assert cfg.problem.steps == 20
        np.testing.assert_array_equal(cfg.problem.x_star, [-1.0])
        assert isinstance(cfg.model, SingleNeuron)
        assert cfg.init == InitScheme.constant(0.0)
        assert cfg.training.optimizer == Sd(0.5)
        assert cfg.training.epochs == 8
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
        np.testing.assert_allclose(cfg.problem.dynamics.A, [[0.0]])
        assert isinstance(cfg.model, SingleNeuron)
        assert isinstance(cfg.training.optimizer, Sd)
        assert cfg.training.loss.integrated is None

    def test_build_model_kinds(self):
        cfg = parse_run_config({
            "problem": {"kind": "flow2d"},
            "network": {"hidden": [4, 4]},
            "training": {"cost": "energy", "mu": 0.1},
        })
        assert isinstance(cfg.model, MlpSpec) and cfg.model.out_dim == 1
        assert cfg.init == InitScheme.constant(0.1)
        assert cfg.training.optimizer == Adam(1e-2)
        assert cfg.training.loss == LossSpec.energy(0.1)
        const, init = parse_network({"kind": "constant"}, out_dim=2)
        assert isinstance(const, ConstantControl) and const.out_dim == 2
        assert init == InitScheme.constant(0.1)

    def test_single_neuron_needs_scalar_control(self):
        with pytest.raises(ConfigError, match="scalar") as err:
            parse_run_config({
                "problem": {"kind": "linear", "a": [[0.0]], "b": [[1.0, 1.0]],
                            "x0": [0.0], "x_star": [1.0]},
                "network": {"kind": "single_neuron"},
            })
        assert err.value.path == "network.kind"

    def test_linear_problem_needs_states(self):
        with pytest.raises(ConfigError, match="explicit x0 and x_star"):
            parse_problem({"kind": "linear", "a": [[0.0]], "b": [[1.0]]})

    def test_particle_defaults(self):
        problem = parse_problem({"kind": "particle"})
        assert problem.dynamics.name == "moving_particle"
        np.testing.assert_array_equal(problem.x0, [0.0, 1.0])
        np.testing.assert_array_equal(problem.x_star, [1.0, 1.0])


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIGS.glob("*.json"))
PARSERS = {
    "train": parse_run_config,
    "project": parse_project_config,
    "phase": parse_phase_config,
    "sweep": parse_sweep_config,
    "musweep": parse_musweep_config,
    "compare": parse_compare_config,
}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_parses_and_builds(path):
    # parsing builds the problem, controller, optimizer, loss and axes
    PARSERS[path.stem.split("_")[0]](load_json(str(path)))


def cut_down(kind, doc):
    """The shipped config doc with few epochs, steps and grid points."""
    doc = copy.deepcopy(doc)
    if kind in ("train", "project"):
        doc["training"]["epochs"] = 3
        doc["problem"]["steps"] = min(doc["problem"].get("steps", 100), 50)
    if kind == "project":
        for axis in ("alpha", "beta"):
            if axis in doc["projection"]:
                doc["projection"][axis]["count"] = 5
        doc["projection"]["samples"] = 10
    elif kind == "phase":
        doc["w0"]["count"] = doc["b0"]["count"] = 3
        doc["epochs"] = 5
    elif kind == "sweep":
        doc.update(layers=[1, 2], max_neurons=[4, 8], epochs=2, steps=20)
    elif kind == "musweep":
        doc.update(mus=doc["mus"][:2], epochs=2, steps=20)
    elif kind == "compare":
        doc.update(epochs=3, timing_epochs=2, steps=20)
    return doc


COMMANDS = {"compare": "compare-protocols"}
WRITES = {  # the data files of each command; plots add its svgs
    "train": (["best_theta.json", "history.csv"], ["control.svg", "energy.svg", "loss.svg"]),
    "phase": (["grid.csv"], ["phase.svg"]),
    "sweep": (["grid.csv"], ["energy.svg", "loss.svg"]),
    "musweep": (["grid.csv"], ["musweep.svg"]),
    "project": (["projection.csv"], ["projection.svg"]),
    "compare": (["history.csv"], ["loss.svg"]),
}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_runs_end_to_end(path, tmp_path, capsys):
    kind = path.stem.split("_")[0]
    doc = cut_down(kind, load_json(str(path)))
    cfg = write_json(tmp_path / path.name, doc)
    outdir = tmp_path / "out"
    command = COMMANDS.get(kind, kind)
    assert main([command, "--config", cfg, "--out", str(outdir)]) == 0
    capsys.readouterr()
    data, svgs = WRITES[kind]
    plot = doc.get("output", doc).get("plot", False)
    want = sorted(["manifest.json", *data, *(svgs if plot else [])])
    assert sorted(p.name for p in outdir.iterdir()) == want
    assert json.loads((outdir / "manifest.json").read_text())["command"] == command
    for name in want:
        text = (outdir / name).read_text()
        assert text.strip()
        if name.endswith(".svg"):
            assert ET.fromstring(text).tag.endswith("svg")


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
        kw, plot = parse_phase_config({"kind": "relu",
                                       "w0": {"lo": -1.0, "hi": 1.0, "count": 5}})
        assert kw == {"kind": "relu", "grid": kw["grid"]} and plot is False
        assert kw["grid"].x == Axis("w0", -1.0, 1.0, 5)
        assert kw["grid"].y == PHASE_GRID.y == Axis("b0", -2.0, 2.0, 41)
        # a key the config leaves out takes phase_diagram's default
        assert inspect.signature(phase_diagram).parameters["method"].default == "map"
        assert parse_phase_config({}) == ({"kind": "linear"}, False)
        kw, _ = parse_phase_config({"x_star": 0.5, "method": "train_adam", "steps": 7})
        assert kw == {"kind": "linear", "xstar": 0.5, "method": "train_adam", "steps": 7}

    def test_phase_axis_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_phase_config({"w0": {"low": -1.0}})
        assert err.value.path == "w0"

    def test_sweep_preset_choices(self):
        cfg, plot = parse_sweep_config({"preset": "constant", "layers": [1, 2]})
        assert cfg.name == "constant" and plot is False
        assert cfg.layers == (1, 2)
        assert cfg.max_neurons == SWEEP_PRESETS["constant"]["max_neurons"]
        with pytest.raises(ConfigError, match="expected one of"):
            parse_sweep_config({"preset": "spiral"})

    def test_musweep_requires_mus(self):
        with pytest.raises(ConfigError) as err:
            parse_musweep_config({"epochs": 5})
        assert err.value.path == "mus"

    def test_compare_defaults(self):
        assert parse_compare_config({}) == ({}, False)
        defaults = inspect.signature(protocol_comparison).parameters
        assert defaults["hidden"].default == (14, 14)
        assert defaults["eta_bptt"].default == 3e-3
        assert defaults["eta_tbptt"].default == 5e-3
        assert defaults["timing_epochs"].default == 200
        kw, _ = parse_compare_config({"hidden": [3], "steps": 30})
        assert kw["hidden"] == (3,) and kw["problem"].steps == 30


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

    def test_epoch_0_divergence_exits_3_without_control_plot(self, tmp_path, capsys):
        # x' = 1e6 x from x0 = 1 overflows within 100 Euler steps at epoch 0
        doc = edited(RUN_DOC, problem={"kind": "scalar_linear", "a": 1e6, "b": 1.0,
                                       "x0": 1.0, "x_star": 1.0},
                     output={"plot": True})
        cfg = write_json(tmp_path / "blowup.json", doc)
        outdir = tmp_path / "blowup_out"
        assert main(["train", "--config", cfg, "--out", str(outdir)]) == 3
        capsys.readouterr()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["diverged_at"] == 0 and manifest["best_epoch"] == -1
        assert (outdir / "loss.svg").exists() and (outdir / "energy.svg").exists()
        assert not (outdir / "control.svg").exists()

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


class TestConfigErrorsExit2:
    """Values the library rejects, non-finite numbers and settings that used
    to be ignored all end as config errors: exit 2, nothing written."""

    @pytest.mark.parametrize("command, doc, where", [
        ("train", edited(RUN_DOC, training__epochs=0), "training"),
        ("train", edited(RUN_DOC, training__eta=-1.0), "training"),
        ("train", edited(RUN_DOC, problem__steps=0), "problem"),
        ("train", edited(RUN_DOC, problem__horizon=0.0), "problem"),
        ("train", edited(RUN_DOC, network={"hidden": [0]}), "network"),
        ("train", edited(RUN_DOC, training__cost="energy", training__mu=-1.0), "training"),
        ("phase", edited(PHASE_DOC, w0__count=1), "w0"),
        ("project", edited(PROJECT_DOC, projection__alpha__count=2), "projection"),
        ("train", edited(RUN_DOC, training__eta=float("nan")), "training.eta"),
        ("train", edited(RUN_DOC, training__eta=10**400), "training.eta"),
        ("train", edited(RUN_DOC, problem__x_star=float("inf")), "problem.x_star"),
        ("train", edited(RUN_DOC, problem={"kind": "linear", "a": [[float("nan")]],
                                           "b": [[1.0]], "x0": [0.0], "x_star": [1.0]}),
         "problem.a[0][0]"),
        ("train", edited(RUN_DOC, network={"hidden": [3],
                                           "activation": {"name": "elu", "alhpa": 0.5}}),
         "network.activation"),
        ("train", edited(RUN_DOC, training__protocol="tbptt", training__cost="energy",
                         training__mu=10.0), "training"),
        ("compare-protocols", edited(COMPARE_DOC, epochs=0), "epochs"),
        ("compare-protocols", edited(COMPARE_DOC, hidden=[0]), "hidden"),
        ("compare-protocols", edited(COMPARE_DOC, eta_tbptt=-1.0), "eta_tbptt"),
        ("compare-protocols", edited(COMPARE_DOC, timing_epochs=0), "timing_epochs"),
        ("compare-protocols", edited(COMPARE_DOC, steps=0), "steps"),
        ("musweep", edited(MUSWEEP_DOC, eta=-1.0), "eta"),
        ("musweep", edited(MUSWEEP_DOC, mus=[-0.001]), "mus[0]"),
        ("musweep", edited(MUSWEEP_DOC, steps=0), "steps"),
        ("sweep", edited(SWEEP_DOC, epochs=0), "epochs"),
        ("sweep", edited(SWEEP_DOC, layers=[9]), "layers"),
        ("sweep", edited(SWEEP_DOC, steps=0), "steps"),
        ("phase", edited(PHASE_DOC, method="train_adam", eta=-1.0), "eta"),
        ("phase", edited(PHASE_DOC, method="train_adam", steps=0), "steps"),
        ("phase", edited(PHASE_DOC, eta=-1.0), "eta"),
        ("phase", edited(PHASE_DOC, epochs=0), "epochs"),
        ("project", edited(PROJECT_DOC, projection__samples=0), "projection.samples"),
        ("phase", edited(PHASE_DOC, horizon=0.0), "horizon"),
        ("phase", edited(PHASE_DOC, method="train_adam", horizon=-1.0), "horizon"),
        ("project", around_theta_file("theta-nan.json"), "projection.theta_file"),
        ("project", around_theta_file("theta-inf.json"), "projection.theta_file"),
        ("project", around_theta_file("theta-float-layout.json"), "projection.theta_file"),
        ("project", around_theta_file("theta-bool-layout.json"), "projection.theta_file"),
    ], ids=["epochs-0", "eta-negative", "steps-0", "horizon-0", "hidden-width-0",
            "mu-negative", "phase-axis-count-1", "project-axis-count-2", "eta-nan",
            "eta-beyond-float", "x-star-inf", "linear-a-nan", "activation-typo",
            "tbptt-with-energy-cost", "compare-epochs-0", "compare-hidden-width-0",
            "compare-eta-tbptt-negative", "compare-timing-epochs-0", "compare-steps-0",
            "musweep-eta-negative", "musweep-mu-negative", "musweep-steps-0",
            "sweep-epochs-0", "sweep-layer-deeper-than-max-neurons", "sweep-steps-0",
            "phase-train-adam-eta-negative", "phase-train-adam-steps-0",
            "phase-map-eta-negative", "phase-map-epochs-0", "project-samples-0",
            "phase-horizon-0", "phase-horizon-negative", "theta-file-nan",
            "theta-file-infinity", "theta-file-layout-1.7", "theta-file-layout-true"])
    def test_config_command(self, tmp_path, capsys, monkeypatch, command, doc, where):
        monkeypatch.chdir(tmp_path)
        for name, text in BAD_THETA_FILES.items():
            (tmp_path / name).write_text(text)
        cfg = write_json(tmp_path / "cfg.json", doc)
        outdir = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(outdir)]) == 2
        assert f"config error: {where}:" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("command, doc, where, key", [
        ("train", edited(RUN_DOC, network={"kind": "constant", "bias": False}),
         "network", "bias"),
        ("train", edited(RUN_DOC, network={"kind": "single_neuron", "bias": False}),
         "network", "bias"),
        ("train", edited(RUN_DOC, network={"kind": "constant", "activation": "tanh"}),
         "network", "activation"),
        ("train", edited(RUN_DOC, training__mu=5.0), "training", "mu"),
        ("train", edited(RUN_DOC, training__protocol={"kind": "bptt", "variant": "frozen"}),
         "training.protocol", "variant"),
        ("train", edited(RUN_DOC, training__protocol={"kind": "bptt", "schedule": "random"}),
         "training.protocol", "schedule"),
        ("train", edited(RUN_DOC, output={"snapshot_stride": 2}), "output", "snapshot_stride"),
        ("project", edited(PROJECT_DOC, projection__beta={"lo": -0.1, "hi": 0.1, "count": 3}),
         "projection", "beta"),
        ("phase", edited(PHASE_DOC, steps=50), "top level", "steps"),
        ("project", edited(PROJECT_DOC, network={"hidden": [3]},
                           projection__theta_file="theta.json"), "top level", "training"),
        ("project", edited({k: v for k, v in PROJECT_DOC.items() if k != "training"},
                           projection__theta_file="theta.json"), "network", "init"),
        ("project", edited(PROJECT_DOC, training__record_delta_u=True),
         "training", "record_delta_u"),
    ], ids=["bias-on-constant", "bias-on-single-neuron", "activation-on-constant",
            "mu-with-terminal-cost", "variant-with-bptt", "schedule-with-bptt",
            "snapshot-stride", "beta-in-1d-projection", "steps-with-map-method",
            "training-with-theta-file", "init-with-theta-file",
            "recorder-in-project"])
    def test_key_without_effect_is_unknown(self, tmp_path, capsys, command, doc, where, key):
        cfg = write_json(tmp_path / "cfg.json", doc)
        outdir = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(outdir)]) == 2
        assert capsys.readouterr().err == f"config error: {where}: unknown keys: {key}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("argv", [
        ["--constant", "T=inf"],
        ["--scalar-linear", "a=nan"],
        ["--scalar-linear", "a=1e308", "b=1"],
    ])
    def test_oc_non_finite_constants(self, capsys, argv):
        assert main(["oc", *argv]) == 2
        assert "config error: oc:" in capsys.readouterr().err

    def test_project_oracle_overflow(self, tmp_path, capsys):
        # exp(a T) = exp(750) overflows in the scalar oracle
        doc = edited(PROJECT_DOC, problem={"kind": "scalar_linear", "a": 750.0, "b": 1.0,
                                           "x_star": [1.0], "steps": 20})
        cfg = write_json(tmp_path / "cfg.json", doc)
        outdir = tmp_path / "out"
        assert main(["project", "--config", cfg, "--out", str(outdir)]) == 2
        assert capsys.readouterr().err.startswith("config error: problem: ")
        assert not outdir.exists()


class TestExperimentCommands:
    def test_phase_writes_grid(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "phase.json", PHASE_DOC)
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
        cfg = write_json(tmp_path / "proj.json", PROJECT_DOC)
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
        assert manifest["problem"] == {"dynamics": "linear", "x0": [0.0], "x_star": [-1.0],
                                       "horizon": 1.0, "steps": 20, "a": [[0.0]],
                                       "b": [[1.0]]}

    def test_project_around_theta_file(self, tmp_path, capsys):
        model = MlpSpec((3,))
        theta = np.linspace(-0.5, 0.5, model.n_params)
        (tmp_path / "theta.json").write_text(theta_to_json(model, theta))
        doc = {k: v for k, v in PROJECT_DOC.items() if k != "training"}
        doc = edited(doc, network={"hidden": [3]},
                     projection__theta_file=str(tmp_path / "theta.json"))
        cfg = write_json(tmp_path / "proj.json", doc)
        outdir = tmp_path / "proj_out"
        assert main(["project", "--config", cfg, "--out", str(outdir)]) == 0
        capsys.readouterr()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["theta_star"] == theta.tolist()
        assert not {"training_seed", "center_loss", "center_epoch"} & set(manifest)

    @pytest.mark.parametrize("command, doc", [
        ("musweep", MUSWEEP_DOC),
        ("phase", edited(PHASE_DOC, method="train_adam", epochs=2)),
        ("compare-protocols", COMPARE_DOC),
    ])
    def test_manifest_records_steps(self, tmp_path, capsys, command, doc):
        manifests = []
        for steps in (20, 30):
            cfg = write_json(tmp_path / "cfg.json", edited(doc, steps=steps))
            outdir = tmp_path / str(steps)
            assert main([command, "--config", cfg, "--out", str(outdir)]) == 0
            manifests.append(json.loads((outdir / "manifest.json").read_text()))
        capsys.readouterr()
        assert [m["steps"] for m in manifests] == [20, 30]

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

    def test_phase_takes_no_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "phase.json", PHASE_DOC)
        outdir = tmp_path / "phase_out"
        with pytest.raises(SystemExit) as err:
            main(["phase", "--config", cfg, "--out", str(outdir), "--seed", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not outdir.exists()

    def test_project_around_theta_file_takes_no_seed(self, tmp_path, capsys):
        model = MlpSpec((3,))
        (tmp_path / "theta.json").write_text(theta_to_json(model, np.zeros(model.n_params)))
        doc = {k: v for k, v in PROJECT_DOC.items() if k != "training"}
        doc = edited(doc, network={"hidden": [3]},
                     projection__theta_file=str(tmp_path / "theta.json"))
        cfg = write_json(tmp_path / "proj.json", doc)
        outdir = tmp_path / "proj_out"
        assert main(["project", "--config", cfg, "--out", str(outdir), "--seed", "5"]) == 2
        assert "config error: --seed: projection.theta_file" in capsys.readouterr().err
        assert not outdir.exists()
