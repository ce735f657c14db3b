"""Command-line front end: every experiment behind one entry point.

Exit codes: 0 on success, 2 on configuration errors (with the offending
file position or dotted field path; nothing is written), 3 when a run
diverged (partial outputs are kept). All commands are fully offline and
write CSV data plus a JSON manifest that pins the config, seeds, and
package version.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    load_json,
    parse_compare_config,
    parse_musweep_config,
    parse_phase_config,
    parse_project_config,
    parse_run_config,
    parse_sweep_config,
    section,
)
from .dynamics import ControlProblem, integrator, scalar_linear
from .experiments import (
    depth_width_sweep,
    mu_sweep,
    phase_diagram,
    problem_manifest,
    protocol_comparison,
)
from .landscape import make_projection, project
from .linalg import SeededRng
from .nets import init_params, theta_from_json, theta_to_json
from .oracles import oc_for_problem
from .svgplot import heatmap, line_chart
from .training import TrainResult, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _write(outdir: str, name: str, text: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_manifest(outdir: str, doc: dict) -> str:
    doc = dict(doc)
    doc["artifact_version"] = __version__
    return _write(outdir, "manifest.json", json.dumps(doc, indent=2) + "\n")


def _outdir(args, default: str) -> str:
    return args.out if args.out else default


# -- train ---------------------------------------------------------------------


def _train(cfg, args) -> tuple[int, TrainResult]:
    """The training run of train and project, from cfg.init under the
    training seed or --seed; returns the seed and the result."""
    t = cfg.training
    seed = t.seed if args.seed is None else args.seed
    theta0 = init_params(cfg.model, cfg.init, SeededRng(seed))
    # train rejects bad arguments before epoch 0, before anything is written
    with section("training"):
        res = train(cfg.problem, cfg.model, theta0, t.optimizer, t.epochs,
                    protocol=t.protocol, loss=t.loss, seed=seed,
                    record_delta_u=t.record_delta_u,
                    record_energy_identity=t.record_energy_identity)
    return seed, res


def cmd_train(args) -> int:
    cfg = parse_run_config(load_json(args.config))
    outdir = _outdir(args, cfg.directory)
    seed, res = _train(cfg, args)
    os.makedirs(outdir, exist_ok=True)
    res.history.to_csv(os.path.join(outdir, "history.csv"))
    _write(outdir, "best_theta.json", theta_to_json(cfg.model, res.theta_best))
    _write_manifest(
        outdir,
        {
            "command": "train",
            "config": cfg.raw,
            "seed": seed,
            "best_epoch": res.best_epoch,
            "loss_best": res.loss_best,
            "diverged": res.diverged,
            "diverged_at": res.diverged_at,
            "diverged_step": res.diverged_step,
        },
    )
    if cfg.plot:
        epochs = np.asarray(res.history.epochs)
        _write(
            outdir,
            "loss.svg",
            line_chart(
                [("loss", epochs, np.asarray(res.history.loss))],
                title="training loss",
                xlabel="epoch",
                ylabel="log10 L",
                log_y=True,
            ),
        )
        _write(
            outdir,
            "energy.svg",
            line_chart(
                [("energy", epochs, np.asarray(res.history.energy))],
                title="control energy",
                xlabel="epoch",
                ylabel="E",
            ),
        )
        traj = res.trajectory_best
        # None when epoch 0 diverged: there is no best model to plot
        if traj is not None:
            _write(
                outdir,
                "control.svg",
                line_chart(
                    [("u", traj.times[:-1], traj.controls[:, 0])],
                    title="best-model control",
                    xlabel="t",
                    ylabel="u",
                ),
            )
    print(f"loss_best={res.loss_best!r} best_epoch={res.best_epoch} -> {outdir}")
    return EXIT_DIVERGED if res.diverged else EXIT_OK


# -- oc ------------------------------------------------------------------------


def _kv_floats(pairs, allowed: dict) -> dict:
    out = dict(allowed)
    for raw in pairs:
        if "=" not in raw:
            raise ConfigError("oc", f"expected key=value, got {raw!r}")
        key, _, val = raw.partition("=")
        if key not in allowed:
            raise ConfigError("oc", f"unknown parameter {key!r}; have {sorted(allowed)}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ConfigError("oc", f"{key} needs a number, got {val!r}") from None
        if not math.isfinite(out[key]):
            raise ConfigError("oc", f"{key} needs a finite number, got {val!r}")
    return out


def cmd_oc(args) -> int:
    chosen = [k for k in ("constant", "scalar_linear", "flow2d", "particle")
              if getattr(args, k)]
    if len(chosen) != 1:
        raise ConfigError(
            "oc", "pick exactly one of --constant --scalar-linear --flow2d --particle"
        )
    kind = chosen[0]
    if kind == "constant":
        p = _kv_floats(args.params, {"x0": 0.0, "xstar": 1.0, "T": 1.0})
        dyn = integrator()
    elif kind == "scalar_linear":
        p = _kv_floats(
            args.params, {"a": 1.0, "b": 1.0, "x0": 0.0, "xstar": 1.0, "T": 1.0}
        )
        dyn = scalar_linear(p["a"], p["b"])
    elif kind == "flow2d":
        if args.params:
            raise ConfigError("oc", "--flow2d takes no parameters (fixed benchmark)")
        from .experiments import flow2d_problem

        problem = flow2d_problem()
    else:
        if args.params:
            raise ConfigError("oc", "--particle takes no parameters (fixed benchmark)")
        from .experiments import particle_problem

        problem = particle_problem()
    with section("oc"):
        if kind in ("constant", "scalar_linear"):
            problem = ControlProblem(dyn, [p["x0"]], [p["xstar"]], p["T"], 2)
        sol = oc_for_problem(problem)
    horizon = problem.T
    print(f"{sol.name} ({sol.functional_kind}) optimum={sol.value!r}")
    header = f"{'t':>8}  {'u*(t)':>24}  {'x*(t)':>24}"
    print(header)
    for t in np.linspace(0.0, horizon, 11):
        u = np.atleast_1d(sol.u_star(float(t)))
        x = np.atleast_1d(sol.x_star(float(t)))
        ustr = " ".join(f"{v: .6f}" for v in u)
        xstr = " ".join(f"{v: .6f}" for v in x)
        print(f"{t:8.4f}  {ustr:>24}  {xstr:>24}")
    return EXIT_OK


# -- phase -----------------------------------------------------------------------


def cmd_phase(args) -> int:
    kw, plot = parse_phase_config(load_json(args.config))
    outdir = _outdir(args, "out/phase")
    result = phase_diagram(**kw)
    grid = result.grid
    _write(outdir, "grid.csv", result.to_csv())
    _write_manifest(outdir, {"command": "phase", **result.manifest()})
    if plot:
        _write(
            outdir,
            "phase.svg",
            heatmap(
                grid.x.values(),
                grid.y.values(),
                result.mse,
                title=f"{result.kind} neuron: deviation from optimal control",
                xlabel="initial weight",
                ylabel="initial bias",
                log_color=True,
            ),
        )
    print(f"phase grid {grid.x.count}x{grid.y.count} -> {outdir}")
    return EXIT_OK


# -- sweep -----------------------------------------------------------------------


def cmd_sweep(args) -> int:
    cfg, plot = parse_sweep_config(load_json(args.config))
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    outdir = _outdir(args, f"out/sweep_{cfg.name}")
    result = depth_width_sweep(cfg, workers=args.workers)
    _write(outdir, "grid.csv", result.to_csv())
    _write_manifest(outdir, {"command": "sweep", **result.manifest()})
    if plot:
        layers = np.asarray(cfg.layers, dtype=float)
        maxn = np.asarray(cfg.max_neurons, dtype=float)
        for metric in ("energy", "loss"):
            z = np.array(
                [
                    [getattr(result.cell(int(l), int(n)), metric) for n in maxn]
                    for l in layers
                ]
            )
            _write(
                outdir,
                f"{metric}.svg",
                heatmap(
                    layers,
                    maxn,
                    z,
                    title=f"{cfg.name} sweep: {metric}",
                    xlabel="layers",
                    ylabel="max neurons",
                    log_color=(metric == "loss"),
                ),
            )
    n_div = sum(c.diverged for c in result.cells)
    print(f"sweep {cfg.name}: {len(result.cells)} cells, {n_div} diverged -> {outdir}")
    return EXIT_OK


# -- musweep ---------------------------------------------------------------------


def cmd_musweep(args) -> int:
    kw, plot = parse_musweep_config(load_json(args.config))
    if args.seed is not None:
        kw["seed"] = args.seed
    outdir = _outdir(args, "out/musweep")
    result = mu_sweep(**kw)
    _write(outdir, "grid.csv", result.to_csv())
    _write_manifest(outdir, {"command": "musweep", **result.manifest()})
    if plot:
        mus = np.asarray([p.mu for p in result.points])
        keep = mus > 0.0
        _write(
            outdir,
            "musweep.svg",
            line_chart(
                [
                    ("loss", mus[keep], np.asarray([p.loss for p in result.points])[keep]),
                    ("work", mus[keep], np.asarray([p.work for p in result.points])[keep]),
                ],
                title="work-multiplier sweep",
                xlabel="log10 mu",
                ylabel="log10 value",
                log_x=True,
                log_y=True,
            ),
        )
    n_div = sum(p.diverged for p in result.points)
    print(f"musweep: {len(result.points)} points, {n_div} diverged -> {outdir}")
    return EXIT_DIVERGED if n_div else EXIT_OK


# -- project ---------------------------------------------------------------------


def cmd_project(args) -> int:
    cfg = parse_project_config(load_json(args.config))
    if cfg.training is None and args.seed is not None:
        raise ConfigError("--seed", "projection.theta_file fixes the center, so nothing "
                          "is trained and there is no seed to override")
    outdir = _outdir(args, "out/project")
    if cfg.theta_file is not None:
        with open(cfg.theta_file) as fh, section("projection.theta_file"):
            center = theta_from_json(fh.read(), cfg.model)
    else:
        center = np.zeros(cfg.model.n_params)  # recentred on the trained theta below
    # the directions depend on the parameter count only, so the grid is
    # checked before training
    with section("projection"):
        spec = replace(make_projection(center, cfg.direction_seed, two_d=cfg.beta is not None),
                       alpha=cfg.alpha, beta=cfg.beta)
    with section("problem"):
        sol = oc_for_problem(cfg.problem)
    trained = {}
    if cfg.training is not None:
        seed, res = _train(cfg, args)
        spec = replace(spec, theta_star=res.theta_best)
        trained = {"training_seed": seed, "center_loss": res.loss_best,
                   "center_epoch": res.best_epoch}
    result = project(spec, cfg.problem, cfg.model, sol.u_star, samples=cfg.samples,
                     workers=args.workers)
    _write(outdir, "projection.csv", result.to_csv())
    _write_manifest(outdir, {"command": "project", **result.manifest(),
                             "problem": problem_manifest(cfg.problem), **trained})
    if cfg.plot:
        alphas = spec.alphas()
        if spec.two_d:
            _write(
                outdir,
                "projection.svg",
                heatmap(
                    alphas,
                    spec.betas(),
                    result.loss,
                    title="projected loss",
                    xlabel="alpha",
                    ylabel="beta",
                    log_color=True,
                ),
            )
        else:
            _write(
                outdir,
                "projection.svg",
                line_chart(
                    [
                        ("loss", alphas, result.loss[:, 0]),
                        ("mse", alphas, result.mse_u[:, 0]),
                        ("energy", alphas, result.energy[:, 0]),
                    ],
                    title="1-D projection",
                    xlabel="alpha",
                    ylabel="log10 value",
                    log_y=True,
                ),
            )
    ia, ib = result.center_index()
    print(
        f"projection {'2d' if spec.two_d else '1d'} center loss "
        f"{float(result.loss[ia, ib])!r} -> {outdir}"
    )
    return EXIT_OK


# -- compare-protocols -------------------------------------------------------------


def cmd_compare(args) -> int:
    kw, plot = parse_compare_config(load_json(args.config))
    if args.seed is not None:
        kw["seed"] = args.seed
    outdir = _outdir(args, "out/compare")
    pc = protocol_comparison(**kw)
    buf_b, buf_t = io.StringIO(), io.StringIO()
    pc.bptt.history.to_csv(buf_b)
    pc.tbptt.history.to_csv(buf_t)
    h_b = buf_b.getvalue().splitlines()
    h_t = buf_t.getvalue().splitlines()
    merged = ["protocol," + h_b[0]]
    merged += [f"bptt,{ln}" for ln in h_b[1:]]
    merged += [f"tbptt,{ln}" for ln in h_t[1:]]
    _write(outdir, "history.csv", "\n".join(merged) + "\n")
    _write_manifest(outdir, {"command": "compare-protocols", **pc.manifest()})
    if plot:
        _write(
            outdir,
            "loss.svg",
            line_chart(
                [
                    ("bptt", np.asarray(pc.bptt.history.epochs),
                     np.asarray(pc.bptt.history.loss)),
                    ("tbptt", np.asarray(pc.tbptt.history.epochs),
                     np.asarray(pc.tbptt.history.loss)),
                ],
                title="protocol comparison",
                xlabel="epoch",
                ylabel="log10 L",
                log_y=True,
            ),
        )
    s = pc.summary()
    print(
        "bptt: loss %.3e energy %.4f vjps/epoch %.0f; "
        "tbptt: loss %.3e energy %.4f vjps/epoch %.0f; E* %.4f -> %s"
        % (
            s["bptt"]["loss"], s["bptt"]["energy"], s["bptt"]["vjps_per_epoch"],
            s["tbptt"]["loss"], s["tbptt"]["energy"], s["tbptt"]["vjps_per_epoch"],
            s["energy_star"], outdir,
        )
    )
    diverged = pc.bptt.diverged or pc.tbptt.diverged
    return EXIT_DIVERGED if diverged else EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odecontrol",
        description="Neural controllers for small ODE steering benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, workers=False, seed=True):
        sp.add_argument("--config", required=True, help="JSON config path")
        if workers:
            sp.add_argument("--workers", type=int, default=1,
                            help="process-pool size for grid cells (default 1)")
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config's seed")
        sp.add_argument("--out", default=None, help="output directory override")

    common(sub.add_parser("train", help="train one controller from a config"))
    oc = sub.add_parser("oc", help="print a closed-form optimal-control solution")
    oc.add_argument("--constant", action="store_true", help="x' = u steering")
    oc.add_argument("--scalar-linear", dest="scalar_linear", action="store_true",
                    help="x' = a x + b u steering")
    oc.add_argument("--flow2d", action="store_true", help="the 2-D benchmark")
    oc.add_argument("--particle", action="store_true", help="the moving particle")
    oc.add_argument("params", nargs="*", help="key=value problem constants")
    # a phase grid draws nothing at random, so it takes no seed
    common(sub.add_parser("phase", help="single-neuron initialization diagram"), seed=False)
    common(sub.add_parser("sweep", help="depth/width sweep from a preset"), workers=True)
    common(sub.add_parser("musweep", help="work-multiplier sweep"))
    common(sub.add_parser("project", help="loss-landscape projection"), workers=True)
    common(sub.add_parser("compare-protocols",
                          help="full vs truncated backprop on the 2-D benchmark"))
    return parser


_HANDLERS = {
    "train": cmd_train,
    "oc": cmd_oc,
    "phase": cmd_phase,
    "sweep": cmd_sweep,
    "musweep": cmd_musweep,
    "project": cmd_project,
    "compare-protocols": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
