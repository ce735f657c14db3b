"""Shared test references."""

import numpy as np
import pytest

from odecontrol.linalg import mat_exp


@pytest.fixture(scope="session")
def loop_gramian():
    """The trapezoid Gramian one panel at a time: E_j = exp(A dt) E_{j-1} and
    W += w_j (E_j B)(E_j B)^T in panel order, then W dt symmetrized. The
    package's stacked `gramian` must return its bits."""

    def loop(a, b, horizon: float, steps: int = 2000) -> np.ndarray:
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        dt = horizon / steps
        step_mat = mat_exp(a, dt)
        w = np.zeros((a.shape[0],) * 2)
        e = np.eye(a.shape[0])
        for j in range(steps + 1):
            eb = e @ b
            w += (0.5 if j in (0, steps) else 1.0) * (eb @ eb.T)
            if j < steps:
                e = step_mat @ e
        w *= dt
        return 0.5 * (w + w.T)

    return loop
