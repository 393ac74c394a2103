"""Dense continuous Lyapunov equation solver and small matrix helpers."""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "NotPositiveDefiniteWarning",
    "SingularLyapunovError",
    "solve_lyapunov",
    "is_positive_definite",
]

_SYMMETRY_RTOL = 1e-9
_RESIDUAL_RTOL = 1e-9


class SingularLyapunovError(np.linalg.LinAlgError):
    """Raised when the Lyapunov operator I (x) A^T + A^T (x) I is singular."""


class NotPositiveDefiniteWarning(UserWarning):
    """Issued when a solved P is not positive definite (A not Hurwitz)."""


def _check_symmetric(M: np.ndarray, name: str) -> None:
    scale = max(float(np.max(np.abs(M))), 1.0)
    if np.max(np.abs(M - M.T)) > _SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} must be symmetric")


def solve_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A^T P + P A = -Q for symmetric P.

    Vectorizes to an n^2 x n^2 linear system via Kronecker products and
    symmetrizes the result. Raises SingularLyapunovError when A has a pair
    of eigenvalues summing to zero, and whenever P is not finite or does
    not meet the residual tolerance. Warns (NotPositiveDefiniteWarning)
    when P is not positive definite, which for a positive definite Q
    happens exactly when A is not Hurwitz (Lyapunov's theorem); the
    solution is still returned so diagnostic runs can proceed.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("A and Q must be square matrices of equal size")
    _check_symmetric(Q, "Q")

    eye = np.eye(n)
    K = np.kron(eye, A.T) + np.kron(A.T, eye)
    try:
        vec_p = np.linalg.solve(K, -Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularLyapunovError("singular Lyapunov operator") from exc
    P = vec_p.reshape(n, n)
    P = 0.5 * (P + P.T)

    # |A'P + PA + Q| <= rtol |Q|, both sides over the largest |Q| entry so
    # that neither norm overflows; a NaN on either side fails the test
    scale = float(np.max(np.abs(Q))) or 1.0
    residual = np.linalg.norm((A.T @ P + P @ A + Q) / scale)
    if not (np.isfinite(P).all() and residual <= _RESIDUAL_RTOL * np.linalg.norm(Q / scale)):
        raise SingularLyapunovError(
            f"relative Lyapunov residual {residual:.3e} exceeds tolerance or P is not"
            " finite; operator near-singular"
        )
    if not is_positive_definite(P):
        warnings.warn(
            "solved P is not positive definite; A is not Hurwitz",
            NotPositiveDefiniteWarning,
            stacklevel=2,
        )
    return P


def is_positive_definite(M: np.ndarray) -> bool:
    """True iff the symmetric matrix M is positive definite; False for any
    non-finite M, on which numpy's Cholesky does not raise."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        return False
    _check_symmetric(M, "M")
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False

