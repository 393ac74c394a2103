"""Dense SQP solver for small constrained nonlinear programs.

Solves minimize J(z) subject to c(z) <= 0 and lb <= z <= ub with a
dual active-set QP (Goldfarb-Idnani) for the search direction and an
l1-merit backtracking line search. Bounds enter the QP as linear rows,
built once per call, so every accepted iterate stays inside the box.

A problem whose objective returns (J, grad J, H), H a symmetric positive
definite model Hessian, sets exact_gradient: each call is one evaluation,
the gradient and Hessian of each accepted point are reused, and no
difference is taken of J. A receding-horizon controller supplies them from
forward sensitivities of its rollout, H being the Gauss-Newton Hessian of
its least-squares cost. Otherwise gradients come from central
differences, two evaluations per coordinate, and a damped BFGS
approximation of the Lagrangian Hessian, started from the identity, stands
in for H. Constraints are differenced the same way in either case. The
KKT tolerance is only a stopping rule: it selects no scheme.

Whichever Hessian reaches the QP, exact or BFGS, is replaced by the
identity unless its 1-norm condition number is finite and at most 1e10,
so the QP never gets a non-finite or nearly singular system.

A linearized QP that admits no point raises QpInfeasibleError out of
minimize; there is no fallback solve. Everything is deterministic: no
randomness, no wall-clock dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NlpProblem",
    "SolverSettings",
    "Solution",
    "QpInfeasibleError",
    "minimize",
]

_UNBOUNDED = 1e19
_QP_FEAS_TOL = 1e-9
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_FD_STEP = 1e-6
_HESSIAN_COND_RESET = 1e10


class QpInfeasibleError(RuntimeError):
    """The linearized QP subproblem admits no point."""


@dataclass
class NlpProblem:
    dimension: int
    # returns f, or (f, gradient of f, SPD model Hessian) when exact_gradient is set
    objective: Callable
    inequality_constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lower_bounds: Optional[np.ndarray] = None
    upper_bounds: Optional[np.ndarray] = None
    exact_gradient: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.lower_bounds is None:
            self.lower_bounds = np.full(self.dimension, -np.inf)
        if self.upper_bounds is None:
            self.upper_bounds = np.full(self.dimension, np.inf)
        self.lower_bounds = np.asarray(self.lower_bounds, dtype=float)
        self.upper_bounds = np.asarray(self.upper_bounds, dtype=float)
        if self.lower_bounds.shape != (self.dimension,) or self.upper_bounds.shape != (
            self.dimension,
        ):
            raise ValueError("bounds must be vectors of length dimension")
        # not <=, so that a NaN bound fails too; +-inf bounds stay legal
        if not (self.lower_bounds <= self.upper_bounds).all():
            raise ValueError("lower_bounds must not exceed upper_bounds, and no bound may be NaN")

    def constraint_values(self, z: np.ndarray) -> np.ndarray:
        if self.inequality_constraints is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self.inequality_constraints(z), dtype=float))


@dataclass
class SolverSettings:
    kkt_tolerance: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self) -> None:
        # not > 0, so that a NaN tolerance, which no solve could meet, fails too
        if not self.kkt_tolerance > 0.0 or self.max_iterations <= 0:
            raise ValueError("solver settings must all be positive")


@dataclass
class Solution:
    minimizer: np.ndarray
    multipliers: np.ndarray
    objective_value: float
    kkt_residual: float
    iterations: int
    status: str  # converged | max_iter | stalled | infeasible, see minimize
    objective_evaluations: int = 0
    # (merit_before, merit_after) per accepted line-search step
    merit_decreases: tuple = field(default_factory=tuple)


def _differences(fun, z):
    """Central-difference derivative of fun at z along each coordinate,
    two evaluations per coordinate."""
    out = []
    for i in range(z.shape[0]):
        zp = z.copy()
        zp[i] += _FD_STEP
        zm = z.copy()
        zm[i] -= _FD_STEP
        out.append((fun(zp) - fun(zm)) / (2.0 * _FD_STEP))
    return out


def _fd_derivatives(fun, confun, z, c0, g=None):
    """Gradient of fun and Jacobian of confun at z by central differences;
    a given g (an exact gradient) is kept, and only confun is differenced."""
    if g is None:
        g = np.array(_differences(fun, z))
    if not c0.size:
        return g, np.empty((0, z.shape[0]))
    return g, np.array(_differences(confun, z)).T


def _active_set_qp(H, g, A, b):
    """min 1/2 p'Hp + g'p s.t. A p <= b by the Goldfarb-Idnani dual method.

    From the unconstrained minimizer, raise the multiplier of the most
    violated row j until j is active (full step: j joins the working set)
    or a working multiplier reaches 0 (partial step: that row leaves and j
    is pursued further). Each step raises the dual objective, so no working
    set repeats, and the working rows stay linearly independent, so every
    KKT matrix is nonsingular for positive definite H. Returns (p, multipliers).
    """
    n = g.shape[0]
    m = A.shape[0]
    feas_tol = _QP_FEAS_TOL * max(1.0, float(np.maximum.reduce(np.abs(b)))) if m else 0.0
    p = np.linalg.solve(H, -g)
    work: list[int] = []
    lam = np.zeros(0)  # multipliers of the working rows, in work order
    j = None  # the violated row being made active
    cap = 5 * (m + n) + 25
    for _ in range(cap):
        if j is None:
            viol = A @ p - b
            if not m or float(np.maximum.reduce(viol)) <= feas_tol:
                out = np.zeros(m)
                if work:
                    out[work] = np.maximum(lam, 0.0)
                return p, out
            j = int(viol.argmax())
            lam_j = 0.0
        # direction of a unit rise in lam_j that keeps the working rows active
        k = len(work)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = A[work].T
        kkt[n:, :n] = A[work]
        sol = np.linalg.solve(kkt, np.concatenate([-A[j], np.zeros(k)]))
        dp, dlam = sol[:n], sol[n:]
        curv = -float(A[j] @ dp)
        slack = float(A[j] @ p - b[j])
        # a row dependent on the working rows leaves dp at rounding level
        dependent = curv <= 0.0 or float(np.maximum.reduce(np.abs(dp))) <= 1e-12 * float(
            np.maximum.reduce(np.abs(sol))
        )
        t_full = math.inf if dependent else slack / curv
        shrink = np.flatnonzero(dlam < 0.0)
        # Python floats: a ratio over a subnormal dlam overflows to +inf
        # (never) without the RuntimeWarning numpy's division raises
        ratios = [-a / b for a, b in zip(lam[shrink].tolist(), dlam[shrink].tolist())]
        t_part = min(ratios) if ratios else math.inf
        t = min(t_full, t_part)
        if not math.isfinite(t):
            raise QpInfeasibleError(
                f"QP infeasible: no finite step makes row {j} feasible (violation {slack:.3g})"
            )
        p = p + t * dp
        lam = lam + t * dlam
        lam_j += t
        if t_full <= t_part:
            work.append(j)
            lam = np.append(lam, lam_j)
            j = None
        else:
            drop = int(shrink[ratios.index(t_part)])
            del work[drop]
            lam = np.delete(lam, drop)
    raise QpInfeasibleError(f"QP working set did not settle in {cap} steps")


def _bound_rows(problem: NlpProblem):
    """Box bounds as rows A and offsets c of A p <= c - A z around iterate z.

    Each bounded coordinate gives an upper row, then a lower row.
    """
    n = problem.dimension
    eye = np.eye(n)
    rows = np.empty((2 * n, n))
    rows[0::2] = eye
    # -eye, not a zero fill: its off-diagonal entries are -0.0
    rows[1::2] = -eye
    offsets = np.empty(2 * n)
    offsets[0::2] = problem.upper_bounds
    offsets[1::2] = -problem.lower_bounds
    bounded = offsets < _UNBOUNDED
    return rows[bounded], offsets[bounded]


def _qp_hessian(H):
    """H, or the identity unless H has a finite 1-norm condition number of
    at most 1e10; scale-free, so large entries alone reset nothing."""
    # the 1-norm condition number, ||H||_1 ||H^-1||_1 from one LU-based
    # inverse, is the value np.linalg.cond(H, 1) returns at a fraction of
    # its overhead; the default 2-norm one takes an SVD, whose first call
    # alone raised a classical run's peak RSS by 0.7 MB
    try:
        inv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return np.eye(H.shape[0])
    cond = float(np.maximum.reduce(np.add.reduce(np.abs(H)))) * float(
        np.maximum.reduce(np.add.reduce(np.abs(inv)))
    )
    # not <=, so that a non-finite H (a NaN or inf cond) resets too
    if not cond <= _HESSIAN_COND_RESET:
        return np.eye(H.shape[0])
    return H


def _kkt_residual(g, c0, Jc, lam_gen, lam_bnd, bnd_A, bnd_gaps):
    grad_l = g.copy()
    if lam_gen.size:
        grad_l += Jc.T @ lam_gen
    if lam_bnd.size:
        grad_l += bnd_A.T @ lam_bnd
    stat = float(np.maximum.reduce(np.abs(grad_l)))
    feas = float(np.maximum.reduce(np.maximum(c0, 0.0))) if c0.size else 0.0
    comp = 0.0
    if lam_gen.size:
        comp = float(np.maximum.reduce(np.abs(lam_gen * c0)))
    if lam_bnd.size:
        comp = max(comp, float(np.maximum.reduce(np.abs(lam_bnd * bnd_gaps))))
    return max(stat, feas, comp)


def _merit(f, c0, mu):
    return f + mu * float(np.add.reduce(np.maximum(c0, 0.0))) if c0.size else f


def minimize(
    problem: NlpProblem,
    z0: np.ndarray,
    settings: Optional[SolverSettings] = None,
    start: Optional[tuple] = None,
) -> Solution:
    """SQP iteration with l1-merit backtracking; deterministic.

    With problem.exact_gradient the objective returns (f, gradient,
    Hessian), a ValueError naming the gradient or the Hessian when either
    has the wrong shape or the Hessian is not finite, and each call counts
    as one evaluation in Solution.objective_evaluations; each QP takes the
    Hessian of the current point. start, allowed on such a problem only,
    is the objective's value at z0 clipped to the box, from a call the
    caller already made: it stands in for the first call, passes the same
    checks and is not counted, and the run is otherwise the one without
    it. Otherwise BFGS starts from the identity
    and gradients are central differences; kkt_tolerance only decides when
    to stop. A failed line search sets the Hessian to the identity, and two
    consecutive failed line searches end the run, status stalled. Line
    searches on a difference gradient accept a merit rise of 1e-12
    relative, the objective's rounding noise, so they can close the last
    digits of the residual. A zero step that leaves the multipliers as they
    were ends the run stalled too, since every later iteration would repeat
    it; max_iter means the iteration budget ran out. The returned point
    is the best one seen by KKT residual. Every iterate lies
    inside the box bounds: the QP accepts a bound row within its
    feasibility tolerance, so each line-search trial point is clipped to
    the box. QpInfeasibleError from the QP subproblem propagates to the
    caller.
    """
    if settings is None:
        settings = SolverSettings()
    n = problem.dimension
    lo, hi = problem.lower_bounds, problem.upper_bounds
    z = np.minimum(np.maximum(np.asarray(z0, dtype=float), lo), hi)
    if z.shape != (n,):
        raise ValueError(f"z0 must be a vector of length {n}")
    exact = problem.exact_gradient
    if start is not None and not exact:
        raise ValueError("start needs an exact_gradient problem")

    evals = [0]
    raw_objective = problem.objective

    def fun(x):
        evals[0] += 1
        return float(raw_objective(x))

    def evaluate(x):
        """f at x with its exact gradient and Hessian, None without them;
        one evaluation."""
        if not exact:
            return fun(x), None, None
        evals[0] += 1
        return checked(raw_objective(x))

    def checked(value):
        """The objective's (f, gradient, Hessian), checked and as floats."""
        f, grad, hess = value
        grad = np.array(grad, dtype=float)
        if grad.shape != (n,):
            raise ValueError(f"objective gradient must have shape ({n},), got {grad.shape}")
        hess = np.asarray(hess, dtype=float)
        if hess.shape != (n, n):
            raise ValueError(f"objective Hessian must be a {n}x{n} matrix, got shape {hess.shape}")
        if not np.isfinite(hess).all():
            raise ValueError("objective Hessian must be finite")
        return float(f), grad, hess

    confun = problem.constraint_values
    tol = settings.kkt_tolerance

    f0, g0, H = evaluate(z) if start is None else checked(start)
    if H is None:
        H = np.eye(n)
    c0 = confun(z)
    m = c0.shape[0]
    g, Jc = _fd_derivatives(fun, confun, z, c0, g0)
    lam_gen = np.zeros(m)
    bnd_A, bnd_c = _bound_rows(problem)
    bnd_gaps = bnd_c - bnd_A @ z
    lam_bnd = np.zeros(bnd_A.shape[0])
    mu = 10.0
    iters = 0
    merit_pairs: list[tuple[float, float]] = []
    # (residual, z, lam_gen, f) of the lowest residual seen
    best = (float("inf"), z, lam_gen, f0)
    stall = 0
    stop = "stalled"  # a break short of convergence

    for _ in range(settings.max_iterations):
        res = _kkt_residual(g, c0, Jc, lam_gen, lam_bnd, bnd_A, bnd_gaps)
        if res < best[0]:
            best = (res, z, lam_gen, f0)
        if res <= tol:
            break
        if m:
            A_all = np.vstack([Jc, bnd_A])
            b_all = np.concatenate([-c0, bnd_gaps])
        else:
            A_all, b_all = bnd_A, bnd_gaps
        H = _qp_hessian(H)
        p, lam_all = _active_set_qp(H, g, A_all, b_all)
        lam_gen_new = lam_all[:m]
        lam_bnd_new = lam_all[m:]
        iters += 1
        if float(np.maximum.reduce(np.abs(p))) <= 1e-14:
            if np.array_equal(lam_gen, lam_gen_new) and np.array_equal(lam_bnd, lam_bnd_new):
                # nothing moves, so every later iteration would repeat this one
                break
            lam_gen, lam_bnd = lam_gen_new, lam_bnd_new
            continue
        mu = max(mu, 2.0 * float(np.maximum.reduce(np.abs(lam_gen_new)) if m else 0.0) + 1.0)
        phi0 = _merit(f0, c0, mu)
        # directional derivative of the l1 merit along p
        d = float(g @ p) - mu * float(np.add.reduce(np.maximum(c0, 0.0)) if m else 0.0)
        # near a solution the merit decrease ~res**2/curvature that a
        # central-difference gradient still resolves can sink below the
        # rounding noise of J; an exact model Hessian's steps do not need
        # this, and with it a solve could accept a cost rise
        slack = 0.0 if exact else 1e-12 * (1.0 + abs(phi0))
        alpha = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            z_try = np.minimum(np.maximum(z + alpha * p, lo), hi)
            f_try, g_try, H_try = evaluate(z_try)
            c_try = confun(z_try)
            phi_try = _merit(f_try, c_try, mu)
            if phi_try <= phi0 + slack + _ARMIJO * alpha * min(d, 0.0):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # z stays put, and this QP's multipliers describe z; those of
            # an earlier, damped step can hold a bound that is no longer hit
            lam_gen, lam_bnd = lam_gen_new, lam_bnd_new
            stall += 1
            H = np.eye(n)
            if stall == 2:
                break
            continue
        stall = 0
        merit_pairs.append((phi0, phi_try))
        g_new, Jc_new = _fd_derivatives(fun, confun, z_try, c_try, g_try)
        if exact:
            H = H_try
        else:
            # damped BFGS on the Lagrangian gradient difference
            s = z_try - z
            y = g_new - g
            if m:
                y = y + (Jc_new - Jc).T @ lam_gen_new
            sHs = float(s @ (H @ s))
            sy = float(s @ y)
            if sHs > 0.0:
                if sy < 0.2 * sHs:
                    theta = 0.8 * sHs / (sHs - sy)
                    y = theta * y + (1.0 - theta) * (H @ s)
                    sy = float(s @ y)
                if sy > 1e-12:
                    Hs = H @ s
                    H = H + np.outer(y, y) / sy - np.outer(Hs, Hs) / sHs
        z, f0, c0, g, Jc = z_try, f_try, c_try, g_new, Jc_new
        lam_gen, lam_bnd = lam_gen_new, lam_bnd_new
        bnd_gaps = bnd_c - bnd_A @ z
    else:
        stop = "max_iter"
        res = _kkt_residual(g, c0, Jc, lam_gen, lam_bnd, bnd_A, bnd_gaps)
        if res < best[0]:
            best = (res, z, lam_gen, f0)

    res_final, z_best, lam_best, f_best = best
    feas_final = float(np.maximum.reduce(np.maximum(confun(z_best), 0.0))) if m else 0.0
    if res_final <= tol:
        status = "converged"
    elif feas_final > max(tol, 1e-8):
        status = "infeasible"
    else:
        status = stop
    return Solution(
        minimizer=z_best,
        multipliers=lam_best,
        objective_value=float(f_best),
        kkt_residual=float(res_final),
        iterations=iters,
        status=status,
        objective_evaluations=evals[0],
        merit_decreases=tuple(merit_pairs),
    )
