"""Small dense linear-algebra kit: the matrix exponential by scaling and
squaring of a Taylor polynomial, the controllability Gramian by the
trapezoid rule, SPD solves on numpy's LAPACK Cholesky, and seeded random
number generation.

The exponential runs on a stack of times at once (`mat_exp_stack`), each
time squared only as often as its own norm asks, with the bits of one
`mat_exp` per time. The Gramian is one array program: the powers
exp(A dt)^j take one product per panel (`matrix_powers`, the power chain
that also builds the adjoint's propagator stack; np.dot for n >= 2, see
`scan_product`), all panel terms are one stacked product, and the panels
are summed in order, since numpy's pairwise `sum` rounds differently for
n = 1. The running sum gives W(s dt) for every panel count s at once
(`gramian_prefixes`), each with the per-panel loop's bits, in about
4 (steps + 1) n^2 floats.

Everything works on float64 numpy arrays and checks dimensions explicitly;
nothing here broadcasts silently.
"""

from __future__ import annotations

import math

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


def scan_product(runs: tuple[int, ...], n: int):
    """The run axes and the product of a Python loop that steps (*runs, n, c)
    operands by an (n, n) matrix: ((), np.dot) for one run with n >= 2, and
    (runs, np.matmul) otherwise. The loop's buffers take the returned axes.

    For one run both products make the same BLAS call with the same
    arguments (gemv for a column, gemm for a matrix), so the bits agree,
    inf, NaN and signed zeros included, and np.dot dispatches in about two
    thirds of np.matmul's time. For n = 1 np.dot skips BLAS and returns -0
    where gemv returns +0 (A = [[0]], x = -1), so n = 1 keeps np.matmul.
    """
    if math.prod(runs) == 1 and n >= 2:
        return (), np.dot
    return runs, np.matmul


def matrix_powers(m: np.ndarray, count: int) -> np.ndarray:
    """The (count, n, n) stack of powers M^j, j = 0..count-1: row 0 is the
    identity and row j + 1 is M times row j, one product per power (np.dot
    for n >= 2, np.matmul for n = 1, see scan_product). count = 0 gives an
    empty stack."""
    n = m.shape[0]
    powers = np.empty((count, n, n))
    powers[:1] = np.eye(n)
    _, product = scan_product((), n)
    for p, p_next in zip(powers, powers[1:]):
        product(m, p, p_next)
    return powers


def check_count(name: str, n: int) -> None:
    """Raise a ValueError naming n unless it is at least 1."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def check_positive(name: str, x: float) -> None:
    """Raise a ValueError naming x unless it is a finite number above 0."""
    if not x > 0.0:
        raise ValueError(f"{name} must be positive, got {x}")
    if x == np.inf:
        raise ValueError(f"{name} must be finite, got {x}")


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
    squared s times. A, t and A t must be finite. This is `mat_exp_stack`
    at one time.
    """
    return mat_exp_stack(a, float(t))


def mat_exp_stack(a, ts) -> np.ndarray:
    """exp(A t) for every time in ts: shape ts.shape + (n, n).

    Item k equals `mat_exp(a, ts[k])` bit for bit. Each time gets its own
    squaring count s_k from the 1-norm of A t_k, the Horner steps run on the
    whole stack, and item k is squared s_k times only. Stacked matmuls run
    one BLAS product per item, the same call as the single product. The
    buffers hold a few M n^2 floats for M times.
    """
    A = check_square(a, "A")
    ts = np.asarray(ts, dtype=np.float64)
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"t must be finite, got {ts}")
    M = A * ts[..., None, None]
    if not np.all(np.isfinite(M)):
        raise ValueError("A and A t must be finite")
    norms = np.linalg.norm(M, 1, axis=(-2, -1))
    s = np.array([int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
                  for norm in norms.ravel()], dtype=np.int64)
    M = M / (2.0**s).reshape(ts.shape + (1, 1))
    identity = np.eye(A.shape[0])
    X = identity
    for k in range(18, 0, -1):  # Horner: I + M/1 (I + M/2 (I + ...))
        X = identity + (M @ X) / k
    flat = X.reshape(-1, *A.shape)  # a view: squaring item k squares X's
    for r in range(s.max(initial=0)):
        more = s > r
        flat[more] = flat[more] @ flat[more]
    return X


def gramian_prefixes(a, b, horizon: float, steps: int = 2000) -> np.ndarray:
    """The trapezoid Gramians W(s dt), s = 0..steps, with dt = T / steps:
    an (steps + 1, n, n) stack whose row s equals `gramian(a, b, s dt, s)`
    bit for bit whenever s dt / s == dt (row 0 is zero).

    Only the powers E_{j+1} = exp(A dt) E_j run in Python, one product per
    panel (`matrix_powers`). The panel terms
    G_j = (E_j B)(E_j B)^T are one stacked product and are summed in panel
    order by `np.add.accumulate`, whose running sum is the trapezoid sum of
    every panel count at once: W_s = dt (acc_{s-1} + G_s / 2) with G_0
    halved. `G.sum(axis=0)` would sum pairwise for
    n = 1 and change the bits. Every row is symmetrized so downstream
    Cholesky never sees the rounding skew of the accumulation order. The
    buffers hold about 4 (steps + 1) n^2 floats (250 KB for n = 2 and 2000
    panels). A, B, the horizon and A dt must be finite.
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
    check_positive("horizon", horizon)
    if steps < 100:
        raise ValueError(f"gramian needs at least 100 steps, got {steps}")
    dt = horizon / steps
    E = matrix_powers(mat_exp(A, dt), steps + 1)  # E_j = exp(A j dt)
    EB = E @ B
    G = EB @ EB.swapaxes(-1, -2)
    G[0] *= 0.5
    W = np.empty_like(G)
    W[0] = 0.0
    np.add.accumulate(G[:-1], axis=0, out=W[1:])
    G[1:] *= 0.5
    W[1:] += G[1:]
    W *= dt
    return 0.5 * (W + W.swapaxes(-1, -2))


def gramian(a, b, horizon: float, steps: int = 2000) -> np.ndarray:
    """Controllability Gramian W(T) = int_0^T exp(A s) B B^T exp(A^T s) ds.

    Trapezoidal rule on a uniform grid with `steps` panels: the last row of
    `gramian_prefixes`, which holds the per-panel loop's bits and checks
    the arguments.
    """
    return gramian_prefixes(a, b, horizon, steps)[-1].copy()


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
