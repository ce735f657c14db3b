"""The benchmark's workloads still run against the package: each workload's
reference job goes through the same public names the benchmark calls and
passes both its invariant checks and its stored references. A refactor that
renames or reshapes one of those names fails here, not in the benchmark."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def package(workloads):
    path = list(sys.path)
    try:
        yield workloads.load_odecontrol(str(ROOT / "src"))
    finally:
        sys.path[:] = path


@pytest.mark.parametrize("name", ["train_bptt", "train_tbptt", "train_grid",
                                  "landscape_oracle"])
def test_reference_job_passes_its_checks(workloads, package, name):
    w = workloads.WORKLOADS[name](package, workloads.load_refs())
    package.gradients.reset_vjp_count()
    out = w.run(w.DEFAULT)
    vjps = package.gradients.vjp_count()
    assert w.check(w.DEFAULT, out, vjps) == []
    assert w.check_reference(out) == []
