"""Shared test references."""

import numpy as np
import pytest

from odecontrol.linalg import mat_exp


@pytest.fixture(scope="session")
def panel_loop():
    """The trapezoid Gramian one panel at a time over `panels` panels of
    width dt: E_j = exp(A dt) E_{j-1} and W += w_j (E_j B)(E_j B)^T in panel
    order, then W dt symmetrized. The package's stacked Gramians must return
    its bits."""

    def loop(a, b, dt: float, panels: int) -> np.ndarray:
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        step_mat = mat_exp(a, dt)
        w = np.zeros((a.shape[0],) * 2)
        e = np.eye(a.shape[0])
        for j in range(panels + 1):
            eb = e @ b
            w += (0.5 if j in (0, panels) else 1.0) * (eb @ eb.T)
            if j < panels:
                e = step_mat @ e
        w *= dt
        return 0.5 * (w + w.T)

    return loop


@pytest.fixture(scope="session")
def loop_gramian(panel_loop):
    """`panel_loop` over [0, horizon] cut into `steps` panels, the call
    signature of `gramian`."""

    def loop(a, b, horizon: float, steps: int = 2000) -> np.ndarray:
        return panel_loop(a, b, horizon / steps, steps)

    return loop
