"""Small dense linear-algebra kit: the matrix exponential by scaling and
squaring of a Taylor polynomial, the controllability Gramian by the
trapezoid rule, SPD solves on numpy's LAPACK Cholesky, and seeded random
number generation.

The Gramian is one array program: the powers exp(A dt)^j take one product
per panel, all panel terms are one stacked product, and the panels are
summed in order, since numpy's pairwise `sum` rounds differently for n = 1.
It gives the per-panel loop's bits in about 3 (steps + 1) n^2 floats.

Everything works on float64 numpy arrays and checks dimensions explicitly;
nothing here broadcasts silently.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Shapes passed to an operation do not match its contract."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot (uncontrollable or ill-conditioned system).

    The offending pivot value is kept on the `pivot` attribute.
    """

    def __init__(self, pivot: float, index: int):
        super().__init__(
            f"uncontrollable or ill-conditioned system: Cholesky pivot {pivot:.3e} "
            f"at index {index} is not positive"
        )
        self.pivot = float(pivot)
        self.index = int(index)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting anything else."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[r] @ b[r] over the last axis, for every leading index r.

    numpy's matmul runs one BLAS dot per (1, n) @ (n, 1) pair, the same call
    as the 1-D `a @ b`, so each entry equals the single product bit for bit.
    1-D inputs give a 0-d result.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def check_count(name: str, n: int) -> None:
    """Raise a ValueError naming n unless it is at least 1."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def check_positive(name: str, x: float) -> None:
    """Raise a ValueError naming x unless it is above 0."""
    if not x > 0.0:
        raise ValueError(f"{name} must be positive, got {x}")


def check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(A t) by scaling and squaring (Higham 2005, SIAM J. Matrix Anal.
    Appl. 26(4)).

    A t is halved s times until its 1-norm is at most 1/2, where the
    degree-18 Taylor polynomial is exact to rounding; the polynomial is then
    squared s times. A, t and A t must be finite.
    """
    A = check_square(a, "A")
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    M = A * t
    if not np.all(np.isfinite(M)):
        raise ValueError("A and A t must be finite")
    norm = np.linalg.norm(M, 1)
    s = int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
    M = M / 2.0**s
    identity = np.eye(A.shape[0])
    X = identity
    for k in range(18, 0, -1):  # Horner: I + M/1 (I + M/2 (I + ...))
        X = identity + (M @ X) / k
    for _ in range(s):
        X = X @ X
    return X


def gramian(a, b, horizon: float, steps: int = 2000) -> np.ndarray:
    """Controllability Gramian W(T) = int_0^T exp(A s) B B^T exp(A^T s) ds.

    Trapezoidal rule on a uniform grid with `steps` panels. Only the powers
    E_{j+1} = exp(A dt) E_j run in Python, one product per panel; the panel
    terms (E_j B)(E_j B)^T are one stacked product, summed in panel order by
    `np.add.accumulate`. That gives the per-panel loop's bits, where
    `G.sum(axis=0)` would sum pairwise for n = 1 and change them. The
    buffers hold about 3 (steps + 1) n^2 floats (190 KB for n = 2 and 2000
    panels). The result is symmetrized before returning so downstream
    Cholesky never sees the rounding skew of the accumulation order. A, B
    and A dt must be finite.
    """
    A = check_square(a, "A")
    B = as_matrix(b, "B")
    if B.shape[0] != A.shape[0]:
        raise DimensionError(
            f"B must have {A.shape[0]} rows to match A, got shape {B.shape}"
        )
    if not np.all(np.isfinite(B)):
        raise ValueError("B must be finite")
    horizon = float(horizon)
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if steps < 100:
        raise ValueError(f"gramian needs at least 100 steps, got {steps}")
    dt = horizon / steps
    step_mat = mat_exp(A, dt)
    n = A.shape[0]
    E = np.empty((steps + 1, n, n))
    E[0] = np.eye(n)  # exp(A * 0)
    for j in range(steps):
        np.matmul(step_mat, E[j], out=E[j + 1])
    EB = E @ B
    G = EB @ EB.swapaxes(-1, -2)
    G[0] *= 0.5
    G[-1] *= 0.5
    W = np.add.accumulate(G, axis=0)[-1]
    W *= dt
    return 0.5 * (W + W.T)


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = A for symmetric positive-definite A.

    LAPACK's factorization via numpy. A non-positive or non-finite pivot,
    which is how singular Gramians of uncontrollable systems surface, raises
    NotPositiveDefiniteError with the index and value of the first such pivot.
    """
    A = check_square(a, "A")
    if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12, equal_nan=True):
        raise ValueError("cholesky requires a symmetric matrix")
    try:
        L = np.linalg.cholesky(A)
        if np.all(np.isfinite(L)):
            return L
    except np.linalg.LinAlgError:
        pass
    for j in range(A.shape[0]):
        # the pivot of row j is the Schur complement of the leading j x j block
        pivot = A[j, j] - A[j, :j] @ np.linalg.solve(A[:j, :j], A[:j, j])
        if not 0.0 < pivot < np.inf:
            break
    # LAPACK found a bad pivot; if rounding kept every pivot positive here, name the last row
    raise NotPositiveDefiniteError(pivot, j)


def solve_spd(a, rhs) -> np.ndarray:
    """Solve A x = rhs for symmetric positive-definite A: L y = rhs, L^T x = y."""
    A = check_square(a, "A")
    v = as_vector(rhs, "rhs")
    if v.shape[0] != A.shape[0]:
        raise DimensionError(
            f"rhs length {v.shape[0]} does not match matrix size {A.shape[0]}"
        )
    L = cholesky(A)
    return np.linalg.solve(L.T, np.linalg.solve(L, v))


class SeededRng:
    """Deterministic random stream: PCG64 with numpy's ziggurat normals.

    Equal seeds give equal streams on every platform for a pinned numpy
    version, which is what experiment manifests rely on.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        if not high >= low:
            raise ValueError(f"uniform needs high >= low, got [{low}, {high}]")
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        """Standard normal draws."""
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int) -> int:
        """One integer uniform on [low, high)."""
        return int(self._gen.integers(low, high))
