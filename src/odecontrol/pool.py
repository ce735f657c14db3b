"""One way to map a function over independent grid cells: in this process,
or in a process pool whose workers run BLAS on one thread.

A cell's result depends on the BLAS thread count: OpenBLAS splits wide
matrix products across threads and sums the parts in another order. Pinning
every worker to one thread makes the result of a cell independent of the
pool size and of the machine's core count, and it stops workers from
oversubscribing the cores. numpy cannot change the count once BLAS is
loaded, so the variables are set in the environment that spawn-started
workers inherit, and the parent's values come back when the pool has shut
down.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads() -> int:
    """The thread count OpenBLAS starts with in this environment: the first
    of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS that is set, else one per CPU
    this process may run on."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_cells(fn, items, workers: int) -> tuple[list, dict]:
    """[fn(item) for item in items], in order, and the run's BLAS thread
    counts for its manifest: this process's, and each pool worker's (None
    when the cells ran in this process).

    workers > 1 runs the items in a spawn-started process pool, one item per
    task, whose workers run BLAS on one thread; fn and the items must pickle.
    """
    threads = {"parent": blas_threads(), "workers": 1 if workers > 1 else None}
    if workers <= 1:
        return [fn(item) for item in items], threads
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.update({var: "1" for var in THREAD_VARS})
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, items, chunksize=1)), threads
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
