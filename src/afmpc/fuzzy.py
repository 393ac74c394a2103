"""Gaussian-membership fuzzy approximators with gradient-flow adaptation.

Two scalar approximators share one rule grid over the 4-state space:
f_hat(X) = theta_f . eps(X) and g_hat(X) = max(theta_g . eps(X), g_floor),
where eps(X) is the normalized product-inference basis vector.

Rules are enumerated in lexicographic order of the per-state membership
indices (l1, l2, l3, l4), the last index varying fastest (C order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianMF",
    "FuzzyModel",
    "DegenerateFiringError",
    "ParameterBlowupError",
    "membership",
    "basis",
    "basis_matrix",
    "f_hat",
    "g_hat",
    "adapt",
    "build_rule_grid",
    "fit_consequents_lsq",
]


class DegenerateFiringError(ArithmeticError):
    """Raised if the rule firing strengths are not finite at a state: the
    state is non-finite, or its squares overflow."""


class ParameterBlowupError(RuntimeError):
    """Raised when an adaptation step pushes a parameter past its bound."""


@dataclass(frozen=True)
class GaussianMF:
    center: float
    width: float

    def __post_init__(self) -> None:
        # not > 0, so that a NaN width fails too
        if not self.width > 0.0:
            raise ValueError("membership width must be positive")


def membership(mf: GaussianMF, x: float) -> float:
    """Gaussian membership degree exp(-((x - c) / w)^2 / 2), in (0, 1]."""
    z = (x - mf.center) / mf.width
    return float(np.exp(-0.5 * z * z))


@dataclass
class FuzzyModel:
    """Rule grid over the 4 states plus the two adaptable consequent vectors;
    evaluating a model writes none of its fields, so models interleave freely."""

    mfs: list[list[GaussianMF]]
    theta_f: np.ndarray
    theta_g: np.ndarray
    g_floor: float = 1.0
    state_ranges: tuple[tuple[float, float], ...] = ()
    # quadratic-expansion coefficients of the log firing strength, minus
    # half the squared scaled distance: s(x) = mat @ [x*x, x] + const per
    # rule, derived from mfs; basis and basis_matrix both evaluate it in
    # this form (the factor -0.5 is a power of two, so folding it into the
    # coefficients leaves every result bit for bit as without it)
    _s_mat: np.ndarray = field(init=False, repr=False)
    _s_const: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.g_floor > 0.0:
            raise ValueError("g_floor must be positive")
        if len(self.mfs) != 4:
            raise ValueError(f"expected membership groups for 4 states, got {len(self.mfs)}")
        counts = [len(group) for group in self.mfs]
        n_rules = int(np.prod(counts))
        if self.theta_f.shape != (n_rules,) or self.theta_g.shape != (n_rules,):
            raise ValueError(
                f"theta vectors must have length {n_rules} for MF counts {counts}"
            )
        if not (np.all(np.isfinite(self.theta_f)) and np.all(np.isfinite(self.theta_g))):
            raise ValueError("theta vectors must be finite")
        per_state_centers = [np.array([m.center for m in group]) for group in self.mfs]
        per_state_widths = [np.array([m.width for m in group]) for group in self.mfs]
        # per-rule center and width grids, shape (n_rules, n_states)
        centers = np.stack(
            np.meshgrid(*per_state_centers, indexing="ij"), axis=-1
        ).reshape(n_rules, len(self.mfs))
        widths = np.stack(
            np.meshgrid(*per_state_widths, indexing="ij"), axis=-1
        ).reshape(n_rules, len(self.mfs))
        inv_sq = 1.0 / (widths * widths)
        self._s_mat = -0.5 * np.hstack([inv_sq, -2.0 * centers * inv_sq])
        self._s_const = -0.5 * np.sum(centers * centers * inv_sq, axis=1)

    @property
    def n_rules(self) -> int:
        return self.theta_f.shape[0]

    def _replace_thetas(self, theta_f: np.ndarray, theta_g: np.ndarray) -> "FuzzyModel":
        clone = FuzzyModel.__new__(FuzzyModel)
        clone.mfs = self.mfs
        clone.theta_f = theta_f
        clone.theta_g = theta_g
        clone.g_floor = self.g_floor
        clone.state_ranges = self.state_ranges
        clone._s_mat = self._s_mat
        clone._s_const = self._s_const
        return clone


def basis(model: FuzzyModel, X) -> np.ndarray:
    """Normalized rule-firing vector at state X; components sum to 1.

    X is any 4-sequence. The shared exponential shift does not change the
    normalized value and keeps the normalizer away from underflow for
    states far outside the membership ranges. The log firing strengths are
    evaluated through their precomputed quadratic expansion: one
    matrix-vector product with [x*x, x], built afresh on every call.
    """
    x1, x2, x3, x4 = X
    s = model._s_mat @ np.array([x1 * x1, x2 * x2, x3 * x3, x4 * x4, x1, x2, x3, x4])
    s += model._s_const
    # the element at argmax is the max, NaN included, and costs less
    s -= s[s.argmax()]
    w = np.exp(s, out=s)
    # the shift puts one strength at exp(0) = 1, so total >= 1 unless NaN
    total = float(np.add.reduce(w))
    if not math.isfinite(total):
        raise DegenerateFiringError(f"rule firing strengths are not finite at state ({x1}, {x2}, {x3}, {x4})")
    w /= total
    return w


def basis_matrix(model: FuzzyModel, X: np.ndarray) -> np.ndarray:
    """Row-wise basis vectors for a batch of states, shape (len(X), n_rules).

    Each row is basis(model, X[i]) up to rounding, by the same quadratic
    expansion in one matrix product for the whole batch.
    """
    X = np.asarray(X, dtype=float)
    s = np.hstack([X * X, X]) @ model._s_mat.T
    s += model._s_const
    s -= s.max(axis=1, keepdims=True)
    w = np.exp(s, out=s)
    total = w.sum(axis=1, keepdims=True)
    if not np.isfinite(total).all():
        row = int(np.argmin(np.isfinite(total)))
        raise DegenerateFiringError(f"rule firing strengths are not finite at state {tuple(X[row].tolist())}, row {row}")
    w /= total
    return w


def f_hat(model: FuzzyModel, X: np.ndarray) -> float:
    """Drift estimate theta_f . eps(X)."""
    return float(model.theta_f @ basis(model, X))


def g_hat(model: FuzzyModel, X: np.ndarray) -> float:
    """Input-gain estimate theta_g . eps(X), clamped below at g_floor."""
    return max(float(model.theta_g @ basis(model, X)), model.g_floor)


def adapt(
    model: FuzzyModel,
    e: np.ndarray,
    pb: np.ndarray,
    X: np.ndarray,
    u: float,
    dt: float,
    *,
    gain: float,
    theta_bound: float,
) -> FuzzyModel:
    """One forward-Euler step of the Lyapunov-gradient adaptation laws.

    theta_f' = -gain * (e.P b) * eps(X)
    theta_g' = -gain * (e.P b) * eps(X) * u

    pb is the product P @ b of the Lyapunov matrix and the input vector,
    fixed over a run, so its caller forms it once. Returns a new model; the
    rule grid is shared with the input model. Raises ParameterBlowupError
    when an updated theta is NaN or beyond theta_bound in magnitude.
    """
    # not > 0, so that a NaN dt fails here, not as a parameter blowup
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    s = float(e @ pb)
    # Python floats build basis's [x*x, x] faster than np.float64 scalars
    eps = basis(model, X.tolist())
    drive = dt * gain * s * eps
    theta_f = model.theta_f - drive
    theta_g = model.theta_g - drive * u
    peak_f = float(np.maximum.reduce(np.abs(theta_f)))
    peak_g = float(np.maximum.reduce(np.abs(theta_g)))
    # not <=, so that a NaN in either vector fails too
    if not (peak_f <= theta_bound and peak_g <= theta_bound):
        raise ParameterBlowupError(
            f"adaptation pushed max |theta_f| to {peak_f:.3e} and max |theta_g| to"
            f" {peak_g:.3e}, beyond bound {theta_bound:.3e}"
        )
    return model._replace_thetas(theta_f, theta_g)


def build_rule_grid(
    per_state_mf_counts: tuple[int, int, int, int],
    state_ranges: tuple[tuple[float, float], ...],
    g_floor: float = 1.0,
) -> FuzzyModel:
    """Evenly spaced Gaussian grid; zero-initialized consequents.

    Widths are spacing / sqrt(2) so adjacent memberships cross at
    exp(-1/4). A single membership on a state covers the half-range.
    """
    if len(per_state_mf_counts) != 4 or len(state_ranges) != 4:
        raise ValueError("expected 4 MF counts and 4 state ranges")
    mfs: list[list[GaussianMF]] = []
    for count, (lo, hi) in zip(per_state_mf_counts, state_ranges):
        if count < 1:
            raise ValueError(f"MF count must be >= 1, got {count}")
        if not hi > lo:
            raise ValueError(f"state range ({lo}, {hi}) is not increasing")
        if count == 1:
            mfs.append([GaussianMF(0.5 * (lo + hi), 0.5 * (hi - lo))])
            continue
        centers = np.linspace(lo, hi, count)
        width = (centers[1] - centers[0]) / np.sqrt(2.0)
        mfs.append([GaussianMF(float(c), float(width)) for c in centers])
    n_rules = int(np.prod(per_state_mf_counts))
    return FuzzyModel(
        mfs=mfs,
        theta_f=np.zeros(n_rules),
        theta_g=np.zeros(n_rules),
        g_floor=g_floor,
        state_ranges=tuple((float(lo), float(hi)) for lo, hi in state_ranges),
    )


def fit_consequents_lsq(
    model: FuzzyModel,
    f_target,
    g_value: float | None = None,
    *,
    n_samples: int,
    seed: int,
) -> FuzzyModel:
    """Least-squares fit of theta_f to a target drift over the state ranges.

    f_target maps an (n, 4) state batch to n drift values. theta_g is set
    uniformly to g_value when given (the basis sums to 1, so g_hat is then
    exactly g_value everywhere above the floor); otherwise left unchanged.

    theta_f solves the normal equations E^T E theta = E^T t of the
    n_samples x n_rules basis matrix E, in about a quarter of the time of
    an SVD of E itself at 81 rules. Their solution's relative error is
    about cond(E)^2 times the machine epsilon, not cond(E) times it; E
    over the sampled state box is well conditioned (cond(E) about 7e2 at
    81 rules, 2.3e3 at 625). The pseudo-inverse of E^T E comes from one
    symmetric eigen-decomposition, dropping eigenvalues below lstsq's
    default cut-off, and is applied twice: the second pass refines theta_f
    against the residual, which brings the residual back to the SVD
    solution's where E is ill conditioned, as when n_samples is near
    n_rules. When E is rank-deficient (n_samples < n_rules) both passes
    stay in the kept eigenspace, so theta_f is the minimum-norm
    least-squares solution.
    """
    if not model.state_ranges:
        raise ValueError("model carries no state ranges to sample")
    # no samples leave E^T E zero, and theta_f would silently come out 0
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    lo = np.array([r[0] for r in model.state_ranges])
    hi = np.array([r[1] for r in model.state_ranges])
    X = rng.uniform(lo, hi, size=(n_samples, 4))
    E = basis_matrix(model, X)
    targets = np.asarray(f_target(X), dtype=float)
    w, V = np.linalg.eigh(E.T @ E)
    keep = w > model.n_rules * np.finfo(float).eps * w[-1]
    V, inv_w = V[:, keep], 1.0 / w[keep]
    # matrix-vector products only: forming V diag(inv_w) V^T takes a matrix
    # product that rounds differently under another BLAS thread count
    theta_f = V @ (((E.T @ targets) @ V) * inv_w)
    theta_f += V @ (((E.T @ (targets - E @ theta_f)) @ V) * inv_w)
    theta_g = model.theta_g if g_value is None else np.full(model.n_rules, float(g_value))
    return model._replace_thetas(theta_f, theta_g)
