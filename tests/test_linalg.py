"""Dense linear-algebra helpers checked against series expansions and
grid refinement. The stacked Gramian and its prefix stack are also checked
bit for bit against the per-panel trapezoid loop kept in conftest.py, and
the stacked exponential against one scaling and squaring per time."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odecontrol.linalg import (
    DimensionError,
    NotPositiveDefiniteError,
    SeededRng,
    cholesky,
    gramian,
    gramian_prefixes,
    mat_exp,
    mat_exp_stack,
    solve_spd,
)


def taylor_exp(a: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """Independent matrix exponential: plain Taylor series, fine for the
    small well-scaled matrices used here."""
    a = np.asarray(a, dtype=np.float64)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ (a * t) / k
        out = out + term
    return out


def scaled_squared_exp(a: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) one time at a time: halve A t until its 1-norm is at most
    1/2, Horner on the degree-18 Taylor polynomial, square back. The
    reference whose bits mat_exp and mat_exp_stack must keep."""
    m = a * t
    norm = np.linalg.norm(m, 1)
    s = int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
    m = m / 2.0**s
    identity = np.eye(a.shape[0])
    x = identity
    for k in range(18, 0, -1):
        x = identity + (m @ x) / k
    for _ in range(s):
        x = x @ x
    return x


class TestMatExp:
    def test_scalar_matches_exp(self):
        for a in (-2.0, -0.3, 0.0, 0.7, 1.0):
            got = mat_exp(np.array([[a]]), 1.0)
            assert got.shape == (1, 1)
            np.testing.assert_allclose(got[0, 0], math.exp(a), rtol=1e-10)

    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(mat_exp(np.zeros((3, 3)), 2.5), np.eye(3),
                                   atol=1e-14)

    def test_nilpotent_closed_form(self):
        # exp(t N) = I + t N when N^2 = 0
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        t = 1.7
        np.testing.assert_allclose(mat_exp(n, t), np.eye(2) + t * n, rtol=1e-10)

    def test_against_taylor_series(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            t = float(rng.uniform(0.2, 1.5))
            np.testing.assert_allclose(mat_exp(a, t), taylor_exp(a, t), rtol=1e-8)

    def test_semigroup_property(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3)) * 0.5
        one = mat_exp(a, 1.2)
        half = mat_exp(a, 0.6)
        np.testing.assert_allclose(one, half @ half, rtol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mat_exp(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="A and A t must be finite"):
            mat_exp(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="A and A t must be finite"):
            mat_exp(np.array([[np.nan]]), 0.0)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="A and A t must be finite"):
            mat_exp(np.array([[1e300]]), 1e10)  # A t overflows
        with pytest.raises(ValueError, match="t must be finite"):
            mat_exp(np.eye(2), np.inf)

    def test_flow2d_closed_form(self):
        # A = [[1, 0], [1, 0]]: exp(A t) = [[e^t, 0], [e^t - 1, 1]]
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        for t in (-2.0, -0.5, 1e-3, 0.3, 1.0, 3.0):
            want = np.array([[math.exp(t), 0.0], [math.expm1(t), 1.0]])
            np.testing.assert_allclose(mat_exp(a, t), want, rtol=1e-14, atol=0.0)

    def test_against_scipy_expm(self):
        # An independent algorithm: Pade(13) with its own scaling. The two
        # must agree in relative norm over ||A t||_1 from 1e-3 to 50 and
        # both signs of t. Against a 60-digit reference, expm itself errs
        # by up to 4e-12 on about 1 in 300 such random draws, where
        # mat_exp stays within 1.1e-14, so a failure here may be expm's.
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(12)
        for norm in np.geomspace(1e-3, 50.0, 25):
            a = rng.normal(size=(int(rng.integers(2, 6)),) * 2)
            for sign in (1.0, -1.0):
                t = sign * norm / np.linalg.norm(a, 1)
                want = expm(a * t)
                got = mat_exp(a, t)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestMatExpStack:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.lists(st.floats(-3.0, 9.0), min_size=1, max_size=12), st.booleans())
    def test_matches_mat_exp_bit_for_bit(self, seed, n, log2_norms, shuffle):
        # |A t|_1 = 2^e for e in [-3, 9]: 0 to 10 squarings, both signs of t,
        # plus t = 0 and t = -0.0, in a stack whose items square unevenly
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        norms = 2.0 ** np.array(log2_norms) / np.linalg.norm(a, 1)
        ts = np.concatenate([norms, -norms, [0.0, -0.0]])
        if shuffle:
            rng.shuffle(ts)
        got = mat_exp_stack(a, ts)
        assert got.shape == (ts.shape[0], n, n)
        for k, t in enumerate(ts):
            want = scaled_squared_exp(a, float(t))
            assert np.array_equal(got[k], want)
            assert np.array_equal(mat_exp(a, t), want)

    def test_shapes(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert mat_exp_stack(a, 0.5).shape == (2, 2)
        assert mat_exp_stack(a, np.zeros((3, 4))).shape == (3, 4, 2, 2)
        assert mat_exp_stack(a, []).shape == (0, 2, 2)


class TestGramianPrefixes:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.floats(0.05, 4.0), st.integers(100, 600),
           st.lists(st.integers(1, 600), min_size=1, max_size=4), st.booleans())
    def test_rows_match_panel_loop_bit_for_bit(self, panel_loop, seed, n, m, horizon,
                                               steps, rows, zero_a):
        rng = np.random.default_rng(seed)
        a = np.zeros((n, n)) if zero_a else rng.uniform(0.1, 1.0) * rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        w = gramian_prefixes(a, b, horizon, steps)
        assert w.shape == (steps + 1, n, n)
        assert not w[0].any()
        dt = horizon / steps
        for s in {min(r, steps) for r in rows} | {1, steps}:
            assert np.array_equal(w[s], panel_loop(a, b, dt, s))
        assert np.array_equal(w[-1], gramian(a, b, horizon, steps))

    @pytest.mark.parametrize("horizon, match", [
        (math.nan, "horizon must be positive, got nan"),
        (math.inf, "horizon must be finite, got inf"),
        (0.0, "horizon must be positive, got 0.0"),
    ], ids=["nan", "inf", "zero"])
    def test_bad_horizon_rejected(self, horizon, match):
        with pytest.raises(ValueError, match=match):
            gramian_prefixes(np.eye(2), np.ones((2, 1)), horizon)

    def test_flow2d_closed_form(self):
        # A = [[1, 0], [1, 0]], B = (1, 0): W11 = (e^{2t} - 1)/2,
        # W12 = W11 - (e^t - 1) and W22 = W11 - 2 (e^t - 1) + t. The
        # trapezoid's error is largest at one panel: dt^2/3 = 8.3e-8 of
        # the largest entry at dt = 5e-4.
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0], [0.0]])
        w = gramian_prefixes(a, b, 1.0, 2000)
        for s in range(1, 2001):
            t = s / 2000
            w11 = 0.5 * math.expm1(2.0 * t)
            w12 = w11 - math.expm1(t)
            want = np.array([[w11, w12], [w12, w11 - 2.0 * math.expm1(t) + t]])
            assert np.abs(w[s] - want).max() <= 1e-7 * np.abs(want).max()


class TestGramian:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.floats(0.05, 4.0), st.integers(100, 2500), st.booleans())
    @example(seed=1, n=1, m=1, horizon=1.0, steps=2000, zero_a=False)
    @example(seed=2, n=2, m=1, horizon=1.0, steps=2000, zero_a=True)
    def test_matches_panel_loop_bit_for_bit(self, loop_gramian, seed, n, m, horizon,
                                            steps, zero_a):
        rng = np.random.default_rng(seed)
        a = np.zeros((n, n)) if zero_a else rng.uniform(0.1, 1.0) * rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        assert np.array_equal(gramian(a, b, horizon, steps),
                              loop_gramian(a, b, horizon, steps))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_b(self, bad):
        with pytest.raises(ValueError, match="B must be finite"):
            gramian(np.eye(2), np.array([[1.0], [bad]]), 1.0)

    def test_integrator_closed_form(self):
        # A = 0: W = integral of B B^T = B B^T * T
        b = np.array([[1.0], [2.0]])
        for horizon in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(
                gramian(np.zeros((2, 2)), b, horizon), b @ b.T * horizon, rtol=1e-6
            )

    def test_scalar_closed_form(self):
        # W = b^2 (e^{2aT} - 1) / (2a)
        a, b, horizon = 0.8, 1.3, 1.0
        want = b * b * (math.exp(2 * a * horizon) - 1.0) / (2 * a)
        got = gramian(np.array([[a]]), np.array([[b]]), horizon)
        np.testing.assert_allclose(got[0, 0], want, rtol=1e-7)

    def test_grid_refinement_converges(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0], [0.0]])
        coarse = gramian(a, b, 1.0, steps=400)
        fine = gramian(a, b, 1.0, steps=3200)
        # trapezoid error ~ steps^-2, so coarse-fine should be tiny already
        assert np.max(np.abs(coarse - fine)) < 1e-5
        finer = gramian(a, b, 1.0, steps=6400)
        assert np.max(np.abs(fine - finer)) <= np.max(np.abs(coarse - fine))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3)) * 0.4
        b = rng.normal(size=(3, 2))
        w = gramian(a, b, 1.0)
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        cholesky(w + 1e-12 * np.eye(3))  # does not raise


class TestCholeskySolve:
    def test_factor_reconstructs(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + 0.5 * np.eye(4)
        l = cholesky(a)
        np.testing.assert_allclose(l @ l.T, a, rtol=1e-10, atol=1e-12)
        assert np.allclose(l, np.tril(l))

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        a = m @ m.T + np.eye(5)
        rhs = rng.normal(size=5)
        np.testing.assert_allclose(solve_spd(a, rhs), np.linalg.solve(a, rhs),
                                   rtol=1e-9)

    def test_indefinite_rejected(self):
        # the pivot of row 1 is the Schur complement 1 - 2 * 2 / 1
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.index == 1
        assert err.value.pivot == -3.0

    def test_zero_leading_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert err.value.index == 0
        assert err.value.pivot == 0.0

    def test_third_row_pivot(self):
        # rank-2 matrix: the pivots are 4, 1 and exactly 0
        m = np.array([[2.0, 0.0], [1.0, 1.0], [3.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m @ m.T)
        assert err.value.index == 2
        assert err.value.pivot == 0.0

    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
    def test_nan_entry_rejected(self, where):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        a[where] = a[where[::-1]] = np.nan
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(a)
        assert err.value.index == max(where)
        assert math.isnan(err.value.pivot)
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(a, np.ones(2))

    def test_solve_shape_mismatch(self):
        with pytest.raises(DimensionError):
            solve_spd(np.eye(3), np.ones(2))


class TestSeededRng:
    def test_deterministic(self):
        a = SeededRng(123).normal(size=10)
        b = SeededRng(123).normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = SeededRng(1).normal(size=10)
        b = SeededRng(2).normal(size=10)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_uniform_bounds(self):
        u = SeededRng(9).uniform(-0.25, 0.75, size=1000)
        assert np.all(u >= -0.25) and np.all(u < 0.75)

    def test_integers_range(self):
        rng = SeededRng(11)
        draws = [rng.integers(0, 7) for _ in range(200)]
        assert min(draws) >= 0 and max(draws) < 7
        assert len(set(draws)) == 7
