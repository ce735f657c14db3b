#!/usr/bin/env python3
"""Closed-loop benchmark of odecontrol.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/odecontrol. One caller in
one process calls the workload's entry point back to back (workers=1, BLAS
pinned to one thread) for S seconds; the seed drives every input the jobs
get. With --trace 0 the run reports the end-to-end metrics listed in
BENCHMARK.json. With --trace 1 it alternates untraced and traced passes over
a fixed list of jobs and reports the per-layer metrics: counts of one pass
(they repeat exactly) and the median self time over the traced passes.

The last line of stdout is the JSON result; the lines before it give the
same figures with their sample counts, the metrics that are not gated
(failed_frac, job_ms_p90) and the machine stamp. A record of the run, and
for --trace 1 the spans of the last traced pass, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

SETUP_T0 = time.perf_counter()  # set-up is timed from before numpy is imported

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3  # this process plus two fresh ones; setup_s is the median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
P90_MIN_JOBS = 100  # so that at least ten samples lie beyond the p90


def pin_blas_threads() -> None:
    """One BLAS thread (at most nproc); must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def machine_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in THREAD_VARS[:2]},
    }


class Tally:
    """Jobs attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{what}: " + "; ".join(problems))


def run_job(w, oc, inp, tally: Tally, what: str, rec=None):
    """Run and check one job; returns (seconds, vjps), or None if it raised.

    With a recorder, the layers are traced during the job and only then, so
    the checks' own calls into the package stay out of the trace.
    """
    from layers import instrument
    from spans import Patches

    try:
        with Patches() as patches:
            if rec is not None:
                instrument(patches, rec, oc)
            oc.gradients.reset_vjp_count()
            t0 = time.perf_counter()
            out = w.run(inp)
            seconds = time.perf_counter() - t0
            vjps = oc.gradients.vjp_count()
        tally.add(w.check(inp, out, vjps), what)
    except Exception:  # a job that raises is a failed job; the run goes on
        traceback.print_exc()
        tally.add(["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]], what)
        return None
    return seconds, vjps


def setup_probe(args) -> float:
    """setup_s of a fresh process: import, construction, one warm-up job."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def measure_end_to_end(w, oc, args, tally: Tally, setup_s: float):
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
    inputs = w.inputs(args.seed)
    times = []
    deadline = time.perf_counter() + args.seconds
    while not times or time.perf_counter() < deadline:
        res = run_job(w, oc, next(inputs), tally, f"job {len(times)}")
        if res is not None:
            times.append(res[0])
    if not times:
        raise RuntimeError("no job completed")
    n = len(times)
    values = {
        "setup_s": statistics.median(setups),
        "rollouts_per_s": n * w.rollouts_per_job / sum(times),
        "job_ms_p50": statistics.median(times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.4f}" for s in setups),
        "rollouts_per_s": f"{n * w.rollouts_per_job} rollouts in {sum(times):.3f} s of jobs",
        "job_ms_p50": f"n={n} jobs",
        "peak_rss_mb": "max RSS of this process",
    }
    extra = {"failed_frac": (tally.failed / tally.attempted, "fraction",
                             f"{tally.failed} of {tally.attempted} jobs")}
    if n >= P90_MIN_JOBS:
        p90 = statistics.quantiles(times, n=10)[8] * 1e3
        extra["job_ms_p90"] = (p90, "ms", f"n={n} jobs")
    else:
        extra["job_ms_p90"] = (None, "ms", f"not defined: n={n} < {P90_MIN_JOBS} jobs")
    return values, notes, extra, None


def measure_per_layer(w, oc, args, tally: Tally):
    from layers import pass_counts, pass_self_ms
    from spans import Recorder

    inputs = w.inputs(args.seed)
    jobs = [next(inputs) for _ in range(w.trace_jobs)]

    def run_pass(label: str, rec=None) -> tuple[float, int]:
        seconds, vjps = 0.0, 0
        for j, inp in enumerate(jobs):
            if rec is not None:
                rec.job_id = j
            res = run_job(w, oc, inp, tally, f"{label} job {j}", rec)
            if res is None:
                raise RuntimeError(f"{label} job {j} raised; per-layer figures would be partial")
            seconds += res[0]
            vjps += res[1]
        return seconds, vjps

    untraced, traced, counts, self_ms = [], [], None, []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_pass(f"untraced pass {len(untraced)}")[0])
        rec = Recorder()
        seconds, vjps = run_pass(f"traced pass {len(traced)}", rec)
        traced.append(seconds)
        this = pass_counts(rec, vjps)
        if counts is not None and this != counts:
            raise RuntimeError("per-layer counts differ between traced passes of one job list")
        counts = this
        self_ms.append(pass_self_ms(rec))
    rollouts = len(jobs) * w.rollouts_per_job
    values = dict(counts)
    for name in set().union(*self_ms):
        values[name] = statistics.median(s.get(name, 0.0) for s in self_ms)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    note = (f"{len(jobs)} jobs ({rollouts} rollouts) per pass; {len(traced)} traced and "
            f"{len(untraced)} untraced passes; self_ms is the median over traced passes")
    return values, {}, {}, (rec, note)


def main(argv=None) -> int:
    pin_blas_threads()
    import workloads

    p = argparse.ArgumentParser(description="odecontrol closed-loop benchmark")
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "odecontrol", "__init__.py")):
        print(f"run.py: no odecontrol package under {SRC}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    oc = workloads.load_odecontrol(SRC)
    w = workloads.WORKLOADS[args.workload](oc, workloads.load_refs())
    tally = Tally()
    oc.gradients.reset_vjp_count()
    ref_out = w.run(w.DEFAULT)  # the warm-up job, on the stored reference input
    ref_vjps = oc.gradients.vjp_count()
    setup_s = time.perf_counter() - SETUP_T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tally.add(w.check(w.DEFAULT, ref_out, ref_vjps) + w.check_reference(ref_out),
              "reference job")

    if args.trace:
        values, notes, extra, trace = measure_per_layer(w, oc, args, tally)
        specs = bench["per_layer"]
    else:
        values, notes, extra, trace = measure_end_to_end(w, oc, args, tally, setup_s)
        specs = bench["end_to_end"]
    metrics = {}
    for spec in specs:
        # counters a workload never touches are absent from the pass: they are 0
        value = values.get(spec["name"], 0) if args.trace else values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    stamp = machine_stamp()
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(stamp))
    if trace is not None:
        print(trace[1])
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']:<10} {notes.get(name, '')}")
    for name, (value, unit, note) in extra.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>16} {unit:<10} {note} (not gated)")
    for msg in tally.messages:
        print(f"FAILED {msg}")

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"result": result, "machine": stamp, "notes": notes,
                   "not_gated": {k: {"value": v, "unit": u, "note": n}
                                 for k, (v, u, n) in extra.items()},
                   "failures": tally.messages}, fh, indent=1)
    if trace is not None:
        trace[0].write_csv_gz(os.path.join(OUT, f"spans-{tag}.csv.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
