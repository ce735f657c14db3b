#!/usr/bin/env python3
"""Regenerate the benchmark's stored data from the current odecontrol.

    python3 perfbench/make_refs.py

Writes data/center.json, the landscape center: the 14x14 elu flow2d net
trained by BPTT with Adam(3e-3) for 200 epochs from uniform init seed 0
(theta_best, serialized with theta_to_json). Then runs each workload's
reference job (its DEFAULT input) and writes the outputs to data/refs.json.
Only rerun it when a change is meant to alter those outputs.
"""

import json
import os

import run


def main() -> None:
    run.pin_blas_threads()
    import workloads

    oc = workloads.load_odecontrol(run.SRC)
    os.makedirs(workloads.DATA, exist_ok=True)
    train = workloads.TrainBptt(oc, None)
    tr = oc.training
    center = tr.train(train.problem, train.model, train.theta0(0), tr.Adam(3e-3), 200)
    with open(os.path.join(workloads.DATA, "center.json"), "w") as fh:
        fh.write(oc.nets.theta_to_json(train.model, center.theta_best) + "\n")
    print(f"center: loss_best {center.loss_best!r} at epoch {center.best_epoch}")

    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(oc, None)
        refs[name] = w.reference(w.run(w.DEFAULT))
        print(f"{name}: reference input {w.DEFAULT!r}")
    with open(os.path.join(workloads.DATA, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
