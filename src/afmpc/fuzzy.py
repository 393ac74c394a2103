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
    """Gaussian membership with degree exp(-((x - center) / width)^2 / 2),
    in (0, 1]."""

    center: float
    width: float

    def __post_init__(self) -> None:
        # not > 0, so that a NaN width fails too
        if not self.width > 0.0:
            raise ValueError("membership width must be positive")


@dataclass(eq=False)
class FuzzyModel:
    """Rule grid over the 4 states plus the two adaptable consequent vectors;
    evaluating a model writes none of its fields, so models interleave freely.
    Models compare and hash by identity: == on the ndarray fields would
    have no single truth value.

    The grid is also held as one coefficient matrix [M | c] (n_rules x 9):
    the log firing strength of each rule is M @ [x*x, x] + c, which basis,
    basis_matrix and the fuzzy predictor's gradient read.
    """

    mfs: list[list[GaussianMF]]
    theta_f: np.ndarray
    theta_g: np.ndarray
    g_floor: float = 1.0
    state_ranges: tuple[tuple[float, float], ...] = ()
    # [M | c], derived from mfs: the log firing strength, minus half the
    # squared scaled distance, is s(x) = _s_coef @ [x*x, x, 1] per rule (the
    # factor -0.5 is a power of two, so folding it into the coefficients
    # leaves every result bit for bit as without it)
    _s_coef: np.ndarray = field(init=False, repr=False)
    # upper bounds on max |theta_f| and max |theta_g| that adapt carries
    # from a model it made to the next; NaN, so unknown, on any other model
    _peak_bounds: tuple[float, float] = field(default=(math.nan, math.nan), init=False, repr=False)

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
        const = np.sum(centers * centers * inv_sq, axis=1)
        self._s_coef = -0.5 * np.hstack([inv_sq, -2.0 * centers * inv_sq, const[:, None]])

    @property
    def n_rules(self) -> int:
        return self.theta_f.shape[0]

    def _replace_thetas(
        self, theta_f: np.ndarray, theta_g: np.ndarray, peak_bounds: tuple[float, float] = (math.nan, math.nan)
    ) -> "FuzzyModel":
        clone = FuzzyModel.__new__(FuzzyModel)
        clone.mfs = self.mfs
        clone.theta_f = theta_f
        clone.theta_g = theta_g
        clone.g_floor = self.g_floor
        clone.state_ranges = self.state_ranges
        clone._s_coef = self._s_coef
        clone._peak_bounds = peak_bounds
        return clone


# Below this sum of the unshifted strengths, basis takes the max-shifted
# form. Log strengths are <= 0, so no strength overflows, and only a state
# far from every rule needs the shift. At or above it, every strength above
# 1e-157 of the sum is a normal float with full relative precision, so the
# normalized vector is the shifted one's up to rounding (the rest differ by
# less than 1e-157), and 1 / total cannot overflow.
_SHIFT_BELOW = 1e-150


def basis(model: FuzzyModel, X) -> np.ndarray:
    """Normalized rule-firing vector at state X; components sum to 1.

    X is any 4-sequence. The log firing strengths s(X) come from their
    precomputed quadratic expansion: one matrix-vector product of the
    coefficients with [x*x, x, 1], built afresh on every call, then one
    exp, in place, normalized by its sum. Only when that sum underflows
    (every rule far from X) or is NaN do the strengths take the
    max-shifted form exp(s - max s), which has the same normalized value
    and raises DegenerateFiringError if X is not finite or its squares
    overflow.
    """
    x1, x2, x3, x4 = X
    v = np.array([x1 * x1, x2 * x2, x3 * x3, x4 * x4, x1, x2, x3, x4, 1.0])
    # ndarray.dot, here and on the other per-stage and per-iteration paths:
    # the same BLAS routine as @, bit for bit, without matmul's dispatch
    w = model._s_coef.dot(v)
    np.exp(w, out=w)
    total = float(np.add.reduce(w))
    # not >=, so that a NaN sum takes the shifted form too
    if not total >= _SHIFT_BELOW:
        # a huge or non-finite X makes inf and NaN here, which the test below
        # reports as DegenerateFiringError, so numpy need not warn of them
        with np.errstate(over="ignore", invalid="ignore"):
            w = model._s_coef.dot(v)
            # the element at argmax is the max, NaN included, and costs less
            w -= w[w.argmax()]
            np.exp(w, out=w)
            # the shift puts one strength at exp(0) = 1, so total >= 1 unless NaN
            total = float(np.add.reduce(w))
        if not math.isfinite(total):
            raise DegenerateFiringError(f"rule firing strengths are not finite at state ({x1}, {x2}, {x3}, {x4})")
    w /= total
    return w


def basis_matrix(model: FuzzyModel, X: np.ndarray) -> np.ndarray:
    """Row-wise basis vectors for a batch of states, shape (len(X), n_rules).

    Each row is basis(model, X[i]) up to rounding, by the same quadratic
    expansion: one matrix product of the batch, with a ones column, and
    the coefficients, then one exp. A far row, whose sum underflows or is
    NaN, is basis(model, X[i]) exactly, in row order, and basis's
    DegenerateFiringError for a non-finite row is raised again with the
    row's index appended.
    """
    X = np.asarray(X, dtype=float)
    V = np.hstack([X * X, X, np.ones((len(X), 1))])
    w = V @ model._s_coef.T
    np.exp(w, out=w)
    total = w.sum(axis=1)
    # not >=, so that a NaN sum is a far row too
    for row in np.flatnonzero(~(total >= _SHIFT_BELOW)).tolist():
        try:
            w[row] = basis(model, X[row].tolist())
        except DegenerateFiringError as exc:
            raise DegenerateFiringError(f"{exc}, row {row}") from None
        total[row] = 1.0
    w /= total[:, None]
    return w


def f_hat(model: FuzzyModel, X) -> float:
    """Drift estimate theta_f . eps(X)."""
    return float(model.theta_f.dot(basis(model, X)))


def g_hat(model: FuzzyModel, X) -> float:
    """Input-gain estimate theta_g . eps(X), clamped below at g_floor."""
    return max(float(model.theta_g.dot(basis(model, X))), model.g_floor)


def adapt(model: FuzzyModel, k: float, X, v: float, *, theta_bound: float) -> FuzzyModel:
    """One gradient step of the adaptation laws at the state X:

    theta_f -= k * eps(X)
    theta_g -= k * v * eps(X)

    k is the step's drive, such as dt * gain * (e . P b) for the Lyapunov
    tracking-error law, and v the input the g channel multiplies; X is any
    4-sequence. Returns a new model; the rule grid is shared with the input
    model. Raises ParameterBlowupError when an updated theta is NaN or
    beyond theta_bound in magnitude.

    The step carries upper bounds on max |theta_f| and max |theta_g| to the
    model it returns, and takes the exact peaks only when a bound is not
    within theta_bound: on a model adapt did not make, near the bound, and
    on a NaN or an overflow. The bounds hold only while no theta is written
    after the model is made.
    """
    drive = basis(model, X)
    drive *= k
    theta_f = model.theta_f - drive
    drive *= v
    theta_g = model.theta_g - drive
    # Every basis entry is at most 1 and rounding is monotone, so no entry
    # of k * eps exceeds |k| and none of k * eps * v exceeds |k * v|, as
    # rounded; then no rounded theta_f - k * eps exceeds the rounded sum of
    # the old bound and |k|, and likewise for theta_g. The bounds need no
    # allowance for rounding, and a NaN or inf in k or v reaches them.
    bound_f = model._peak_bounds[0] + abs(k)
    bound_g = model._peak_bounds[1] + abs(k * v)
    # not <=, so that a NaN bound takes the exact peaks too; and < inf,
    # since only finite bounds rule out the NaN that inf - inf makes
    if not (bound_f <= theta_bound and bound_g <= theta_bound and bound_f + bound_g < math.inf):
        bound_f = float(np.maximum.reduce(np.abs(theta_f)))
        bound_g = float(np.maximum.reduce(np.abs(theta_g)))
        # not <=, so that a NaN in either vector fails too
        if not (bound_f <= theta_bound and bound_g <= theta_bound):
            raise ParameterBlowupError(
                f"adaptation pushed max |theta_f| to {bound_f:.3e} and max |theta_g| to"
                f" {bound_g:.3e}, beyond bound {theta_bound:.3e}"
            )
    return model._replace_thetas(theta_f, theta_g, (bound_f, bound_g))


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
    g_value: float,
    *,
    n_samples: int,
    seed: int,
) -> FuzzyModel:
    """Least-squares fit of theta_f to a target drift over the state ranges.

    f_target maps an (n, 4) state batch to n drift values. theta_g is set
    uniformly to g_value (the basis sums to 1, so g_hat is then exactly
    g_value everywhere above the floor).

    theta_f solves the normal equations E^T E theta = E^T t of the
    n_samples x n_rules basis matrix E, in about a quarter of the time of
    an SVD of E itself at 81 rules. Their solution's relative error is
    about cond(E)^2 times the machine epsilon, not cond(E) times it; E
    over the sampled state box is well conditioned (cond(E) about 7e2 at
    81 rules, 2.3e3 at 625). The inverse of E^T E comes from one symmetric
    eigen-decomposition and is applied twice: the second pass refines
    theta_f against the residual. Each pass shrinks the error by about
    cond(E)^2 times the machine epsilon, so two passes reach the SVD
    solution's accuracy only while that factor is below the square root of
    epsilon (cond(E) below about 8e3). Beyond it, as when n_samples is near
    n_rules (cond(E) 3e6 at 96 samples of 96 rules) or below it (E
    rank-deficient), theta_f is the minimum-norm SVD least-squares
    solution of E instead. That test is on the smallest eigenvalue, so the
    normal equations never drop a direction the SVD keeps: a cut-off at
    n_rules * eps * max on the eigenvalues of E^T E sits at
    sqrt(n_rules * eps) * max on the singular values of E, far above
    lstsq's max(n_samples, n_rules) * eps * max.
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
    # w ascends
    if w[0] < math.sqrt(np.finfo(float).eps) * w[-1]:
        theta_f = np.linalg.lstsq(E, targets, rcond=None)[0]
    else:
        # column-major V: its layout sets the products' summation order,
        # and the recorded trajectories were fitted with this one
        V, inv_w = np.asfortranarray(V), 1.0 / w
        # matrix-vector products only: forming V diag(inv_w) V^T takes a matrix
        # product that rounds differently under another BLAS thread count
        theta_f = V @ (((E.T @ targets) @ V) * inv_w)
        theta_f += V @ (((E.T @ (targets - E @ theta_f)) @ V) * inv_w)
    return model._replace_thetas(theta_f, np.full(model.n_rules, float(g_value)))
