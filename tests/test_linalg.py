"""Tests for the dense Lyapunov-equation solver and matrix helpers."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from afmpc.dense_linalg import (
    NotPositiveDefiniteWarning,
    SingularLyapunovError,
    is_positive_definite,
    solve_lyapunov,
)

# stable design matrix used by the controller defaults: independent arm
# channels plus a damped oscillator block on the pendulum channels
DESIGN_A = np.array(
    [
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -9.0, -4.8],
    ]
)


def lyap_residual(A, P, Q) -> float:
    return float(np.linalg.norm(A.T @ P + P @ A + Q))


def test_identity_case():
    A = -np.eye(4)
    P = solve_lyapunov(A, 2.0 * np.eye(4))
    np.testing.assert_allclose(P, np.eye(4), atol=1e-12)


def test_two_by_two_hand_solved():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    P = solve_lyapunov(A, np.eye(2))
    np.testing.assert_allclose(P, [[1.25, 0.25], [0.25, 0.25]], atol=1e-12)
    assert is_positive_definite(P)


def test_design_matrix_exact_solution():
    # hand-solved blocks for Q = 500 I: the arm block gives 250 I and the
    # pendulum oscillator block gives rational entries
    P = solve_lyapunov(DESIGN_A, 500.0 * np.eye(4))
    assert P[0, 0] == pytest.approx(250.0, rel=1e-12)
    assert P[1, 1] == pytest.approx(250.0, rel=1e-12)
    assert P[2, 2] == pytest.approx(56520.0 / 86.4, rel=1e-10)
    assert P[2, 3] == pytest.approx(250.0 / 9.0, rel=1e-10)
    assert P[3, 3] == pytest.approx(5000.0 / 86.4, rel=1e-10)
    b = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(
        P @ b, [0.0, 0.0, 250.0 / 9.0, 5000.0 / 86.4], rtol=1e-10, atol=1e-10
    )


def test_random_hurwitz_property():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(100):
        M = rng.normal(size=(4, 4))
        skew = rng.normal(size=(4, 4))
        A = -M @ M.T - 0.05 * np.eye(4) + 0.2 * (skew - skew.T)
        W = rng.normal(size=(4, 4))
        Q = W @ W.T + 0.1 * np.eye(4)
        P = solve_lyapunov(A, Q)
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        assert lyap_residual(A, P, Q) <= 1e-9 * np.linalg.norm(Q)
        assert is_positive_definite(P)
    assert time.perf_counter() - start < 1.0


def square(n: int = 4):
    """An n x n matrix with entries in [-1, 1]."""
    entries = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
    return entries.map(lambda v: np.array(v).reshape(n, n))


@hyp_settings(max_examples=200, deadline=None)
@given(M=square(), S=square(), delta=st.floats(0.05, 2.0), W=square(), q=st.floats(0.1, 1.0))
def test_solve_lyapunov_random_hurwitz_property(M, S, delta, W, q):
    # symmetric part -MM' - delta I is negative definite, so every
    # eigenvalue of A has real part at most -delta
    A = -M @ M.T - delta * np.eye(4) + (S - S.T)
    Q = W @ W.T + q * np.eye(4)
    P = solve_lyapunov(A, Q)
    assert lyap_residual(A, P, Q) <= 1e-9 * np.linalg.norm(Q)
    assert np.array_equal(P, P.T)
    assert is_positive_definite(P)


def test_scaling_linearity():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(4, 4))
    A = -M @ M.T - 0.1 * np.eye(4)
    W = rng.normal(size=(4, 4))
    Q = W @ W.T + 0.5 * np.eye(4)
    P1 = solve_lyapunov(A, Q)
    P7 = solve_lyapunov(A, 7.0 * Q)
    np.testing.assert_allclose(P7, 7.0 * P1, rtol=1e-9)


def test_non_hurwitz_matrix_reports_non_pd():
    # trace +7, so at least one eigenvalue has positive real part; the
    # equation still has a unique solution but it cannot be PD
    A = np.array(
        [
            [0.0, 10.0, 0.0, 0.0],
            [0.0, 0.0, 10.0, 0.0],
            [0.0, 0.0, 0.0, 10.0],
            [-17.2, -20.5, -10.0, 7.0],
        ]
    )
    assert np.trace(A) == pytest.approx(7.0)
    assert np.max(np.linalg.eigvals(A).real) > 0.0
    Q = 500.0 * np.eye(4)
    with pytest.warns(NotPositiveDefiniteWarning):
        P = solve_lyapunov(A, Q)
    assert lyap_residual(A, P, Q) <= 1e-9 * np.linalg.norm(Q)
    assert not is_positive_definite(P)


def test_singular_operator_rejected():
    # eigenvalues +1 and -1 sum to zero: the Lyapunov operator is singular
    A = np.diag([1.0, -1.0, -2.0, -3.0])
    with pytest.raises(SingularLyapunovError):
        solve_lyapunov(A, np.eye(4))


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(3), np.eye(4))
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        solve_lyapunov(-np.eye(4), asym)


def test_solve_lyapunov_rejects_an_unusable_p():
    # Hurwitz (triangular, negative diagonal), but the solve overflows: P
    # came back all NaN, its NaN residual passed "residual > tol", and its
    # |Q| of about 2e84 is far from overflowing
    A = np.array(
        [-0.1, 0, 1e168, 1e126, 0, -0.01, -1e172, 1e48, 0, 0, -1000, 1e182, 0, 0, 0, -100.0]
    ).reshape(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            with pytest.raises(SingularLyapunovError):
                solve_lyapunov(A, 1e84 * np.eye(4))
    # a Q whose norm overflows still solves when P is usable
    P = solve_lyapunov(-np.eye(4), 1e160 * np.eye(4))
    np.testing.assert_allclose(P, 0.5e160 * np.eye(4), rtol=1e-15)


def test_is_positive_definite_cases():
    assert is_positive_definite(np.eye(4))
    assert not is_positive_definite(np.diag([1.0, -1.0, 1.0, 1.0]))
    # numpy's Cholesky does not raise on NaN, and an inf matrix is no usable P
    assert not is_positive_definite(np.full((4, 4), np.nan))
    assert not is_positive_definite(np.full((4, 4), np.inf))
    assert not is_positive_definite(np.diag([1.0, np.inf, 1.0, 1.0]))
    with pytest.raises(ValueError):
        asym = np.eye(4)
        asym[1, 0] = 0.3
        is_positive_definite(asym)

