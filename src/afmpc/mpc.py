"""Receding-horizon controller generic over a one-step prediction model.

Two predictors are provided: a nominal rigid-body predictor and an adaptive
fuzzy predictor whose pendulum-acceleration channel is replaced by the
fuzzy estimates. The per-period solve builds a box-bounded program over the
control sequence and hands it to the dense SQP solver; only the first input
is applied. The solver gets the exact gradient of the horizon cost and its
Gauss-Newton Hessian: each of its evaluations is one rollout that carries,
through every RK4 stage, the tangents of the states with respect to the
inputs (forward sensitivities, Diehl, Bock, Schloeder, SIAM J. Control
Optim. 43(5), 2005), in place of one extra rollout per input for a finite
difference. Each period warm-starts from the previous optimum shifted by
one slot; no other solver state passes from one period to the next.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .plant import CoeffSet, DisturbanceSpec, IntegrationDivergenceError, disturbance_value, dynamics, rk4, step as plant_step
from . import fuzzy as fz
from .nlp_optimizer import NlpProblem, QpInfeasibleError, SolverSettings, minimize

__all__ = [
    "MpcConfig",
    "NominalPredictor",
    "AdaptiveFuzzyPredictor",
    "ControlStep",
    "TrajectoryLog",
    "AdaptationLoop",
    "ClosedLoop",
    "PredictionDivergenceError",
    "predict_trajectory",
    "horizon_cost",
    "solve_step",
    "shift_warm_start",
    "run_receding_horizon",
]

_DIVERGED_COST = 1e30


class PredictionDivergenceError(RuntimeError):
    """A horizon rollout produced a non-finite state."""


@dataclass(frozen=True)
class MpcConfig:
    """Horizons, weights, input bound and control period of one solve.

    state_weight holds the 4 diagonal entries of the state weight Q, which
    is diagonal; input_weight is R.
    """

    prediction_horizon: int = 5
    control_horizon: int = 3
    state_weight: tuple = (0.1, 0.1, 0.1, 0.1)
    input_weight: float = 0.3
    input_bound: float = 5.0
    dt: float = 0.05

    def __post_init__(self) -> None:
        if self.control_horizon < 1:
            raise ValueError("control_horizon must be at least 1")
        if self.control_horizon > self.prediction_horizon:
            raise ValueError(
                f"K_c <= K_p violated: control_horizon {self.control_horizon}"
                f" exceeds prediction_horizon {self.prediction_horizon}"
            )
        # all(), not min(): NaN compares false, so min() would let it through
        if len(self.state_weight) != 4 or not all(w > 0.0 for w in self.state_weight):
            raise ValueError("state_weight must be 4 positive diagonal weights")
        # not > 0 and not >= 0 below, so that NaN fails too
        if not self.input_weight > 0.0:
            raise ValueError("input_weight must be positive")
        # zero is allowed as a degenerate (input pinned to 0) bound
        if not self.input_bound >= 0.0:
            raise ValueError("input_bound must be non-negative")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class NominalPredictor:
    """One-step predictor integrating the rigid-body model at the control period."""

    coeffs: CoeffSet
    dt: float

    def predict(self, x, u: float, d: float = 0.0, tangents=None):
        """The state one control period ahead from the 4 floats x, as 4
        floats; with tangents, also the tangents carried through the step
        (see plant.rk4)."""
        c = self.coeffs
        a1, a2, a3, a4, b1, b2 = c.a1, c.a2, c.a3, c.a4, c.b1, c.b2

        def field_fn(s, dd: float, linearize: bool = False):
            k = dynamics(s, u, c, dd)
            if not linearize:
                return k
            r3 = a3 * math.cos(s[2])

            def jvp(t1, t2, t3, t4, tu):
                return (t2, a1 * t2 + b1 * tu, t4, a2 * t2 + r3 * t3 + a4 * t4 + b2 * tu)

            return k, jvp

        return rk4(field_fn, x, self.dt, (d, d, d), tangents)


@dataclass(frozen=True)
class AdaptiveFuzzyPredictor:
    """Predictor with the pendulum acceleration replaced by the fuzzy estimates.

    Arm channels keep the nominal linear model; the x4 derivative becomes
    f_hat(X) + g_hat(X) * (u + d). The closed loop builds one predictor per
    control period around the current fuzzy model, so a single solve sees
    frozen parameters.

    Every stage, plain or linearized, makes one product of the basis eps
    with _jacobian_sums (n_rules x 26), which gives f_hat, the raw g_hat and
    the 24 sums the gradient needs. Both paths take the same product, so the
    states of a sensitivity rollout are those of a plain one, bit for bit.

    Linearized, the field differentiates theta . eps(X) in closed form.
    eps is a softmax of the log firing strengths s(X), whose gradient is
    D_ij = 2 M_ij x_j + M_i,4+j with M = _s_mat, so
        d(theta . eps)/dx = (theta o eps)' D - (theta . eps)(eps' D).
    g_hat has zero gradient while its floor is active.
    """

    fuzzy: fz.FuzzyModel
    coeffs: CoeffSet
    dt: float

    @functools.cached_property
    def _jacobian_sums(self) -> np.ndarray:
        # (rules x 26): [theta_f, theta_g, theta_f * M, theta_g * M, M], each
        # M block being the 4 quadratic then the 4 linear coefficients of s(X)
        fuz = self.fuzzy
        m = fuz._s_mat
        tf, tg = fuz.theta_f[:, None], fuz.theta_g[:, None]
        return np.hstack([tf, tg, tf * m, tg * m, m])

    def predict(self, x, u: float, d: float = 0.0, tangents=None):
        """The state one control period ahead from the 4 floats x, as 4
        floats; with tangents, also the tangents carried through the step
        (see plant.rk4)."""
        fuz = self.fuzzy
        a1, b1 = self.coeffs.a1, self.coeffs.b1
        g_floor = fuz.g_floor
        sums = self._jacobian_sums

        def field_fn(s, dd: float, linearize: bool = False):
            # v holds f_hat, the raw g_hat, then (theta_f o eps)' M,
            # (theta_g o eps)' M and eps' M
            v = (fz.basis(fuz, s) @ sums).tolist()
            f_est, g_raw = v[0], v[1]
            clamped = g_raw < g_floor
            g_est = g_floor if clamped else g_raw
            k = (s[1], a1 * s[1] + b1 * u, s[3], f_est + g_est * (u + dd))
            if not linearize:
                return k
            # gradient of the x4 derivative, d f_hat/dx_j + (u + d) d g_hat/dx_j
            ud = 0.0 if clamped else u + dd
            tx = 2.0 * s[0]
            r1 = (tx * v[2] + v[6]) - f_est * (tx * v[18] + v[22]) + ud * (
                (tx * v[10] + v[14]) - g_raw * (tx * v[18] + v[22])
            )
            tx = 2.0 * s[1]
            r2 = (tx * v[3] + v[7]) - f_est * (tx * v[19] + v[23]) + ud * (
                (tx * v[11] + v[15]) - g_raw * (tx * v[19] + v[23])
            )
            tx = 2.0 * s[2]
            r3 = (tx * v[4] + v[8]) - f_est * (tx * v[20] + v[24]) + ud * (
                (tx * v[12] + v[16]) - g_raw * (tx * v[20] + v[24])
            )
            tx = 2.0 * s[3]
            r4 = (tx * v[5] + v[9]) - f_est * (tx * v[21] + v[25]) + ud * (
                (tx * v[13] + v[17]) - g_raw * (tx * v[21] + v[25])
            )

            def jvp(t1, t2, t3, t4, tu):
                return (t2, a1 * t2 + b1 * tu, t4, r1 * t1 + r2 * t2 + r3 * t3 + r4 * t4 + g_est * tu)

            return k, jvp

        return rk4(field_fn, x, self.dt, (d, d, d), tangents)


@dataclass
class ControlStep:
    applied_input: float
    predicted_cost: float
    solver_status: str
    evaluations: int  # horizon rollouts the solve made
    optimized_sequence: np.ndarray


def predict_trajectory(model, x0: np.ndarray, U: np.ndarray, d: np.ndarray, sensitivities: bool = False):
    """Rollout of the one-step predictor over len(d) slots.

    Inputs beyond the control horizon hold the last entry of U. Raises
    PredictionDivergenceError when any predicted state is non-finite.

    With sensitivities, returns (states, S) with S[p] = dx_p/dU, shape
    (len(d), 4, len(U)): each predictor call also carries one tangent per
    input U_j that has reached slot p through its RK4 stages (the later
    ones are still zero). The states are those of the plain rollout, bit
    for bit. A non-finite sensitivity counts as divergence too.
    """
    U = np.atleast_1d(np.asarray(U, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    kp, kc = d.shape[0], U.shape[0]
    # Python floats, so that no slot makes a numpy scalar; each predictor
    # call takes the 4 floats the one before returned
    x = np.asarray(x0, dtype=float).tolist()
    u_seq, d_seq = U.tolist(), d.tolist()
    states = []
    if sensitivities:
        moved = []  # state tangents of U_0 .. U_j, j the last input applied so far
        unmoved = [(0.0, 0.0, 0.0, 0.0)] * kc
        rows = []  # per slot, the tangents of every input
    for p in range(kp):
        u = u_seq[p] if p < kc else u_seq[-1]
        try:
            # sin() of an overflowed state raises; fold that into divergence
            if sensitivities:
                j_in = min(p, kc - 1)  # the input this slot applies
                if len(moved) == j_in:
                    moved.append((0.0, 0.0, 0.0, 0.0))
                tangents = [t + (1.0 if j == j_in else 0.0,) for j, t in enumerate(moved)]
                x, moved = model.predict(x, u, d_seq[p], tangents)
                rows.append(moved + unmoved[len(moved) :])
            else:
                x = model.predict(x, u, d_seq[p])
        except (ValueError, OverflowError, fz.DegenerateFiringError) as exc:
            raise PredictionDivergenceError(f"prediction divergence at slot {p + 1}") from exc
        if not all(map(math.isfinite, x)):
            raise PredictionDivergenceError(f"prediction divergence at slot {p + 1}")
        states.append(x)
    states = np.array(states)
    if not sensitivities:
        return states
    sens = np.array(rows).transpose(0, 2, 1)
    if not np.isfinite(sens).all():
        raise PredictionDivergenceError("prediction sensitivities diverged")
    return states, sens


def horizon_cost(states: np.ndarray, inputs: np.ndarray, x_ref: np.ndarray, config: MpcConfig) -> float:
    """Sum of Q-weighted squared state errors plus R-weighted squared inputs,
    Q the diagonal config.state_weight."""
    err = np.asarray(states, dtype=float) - np.asarray(x_ref, dtype=float)
    return _error_cost(err, np.atleast_1d(np.asarray(inputs, dtype=float)), config)


def _error_cost(err: np.ndarray, u: np.ndarray, config: MpcConfig) -> float:
    """horizon_cost from the state errors err = states - x_ref and the
    input vector u."""
    state_term = float(np.einsum("pi,i,pi->", err, config.state_weight, err))
    return state_term + config.input_weight * float(u @ u)


def shift_warm_start(sequence: np.ndarray) -> np.ndarray:
    """Shift the previous optimum by one slot, repeating the last entry."""
    seq = np.atleast_1d(np.asarray(sequence, dtype=float))
    return np.concatenate([seq[1:], seq[-1:]])


def solve_step(
    model,
    x_k: np.ndarray,
    x_ref: np.ndarray,
    config: MpcConfig,
    warm_start: np.ndarray,
    d: Optional[np.ndarray] = None,
) -> ControlStep:
    """One receding-horizon solve; fail-operational on solver trouble.

    The solver's point is applied as returned: minimize keeps every
    iterate inside the input box. Never returns a worse sequence than the
    warm start: if the solver's point does not improve the horizon cost,
    the warm start is applied and the status flags the fallback. So does a
    point whose rollout diverged or whose Hessian overflowed: the objective
    returns _DIVERGED_COST with a zero gradient there, which the solver
    reports as converged. Solver trouble means a QpInfeasibleError or
    LinAlgError out of minimize; any other exception propagates. The
    program has box bounds only, so p = 0 is always feasible for its QPs:
    QpInfeasibleError here means numerical trouble, such as a non-finite
    gradient, not an empty QP. Any other period takes minimize's status:
    converged, max_iter (its iteration budget ran out) or stalled (it
    stopped short of both, see minimize).

    minimize's objective returns the horizon cost, its exact gradient
    2 sum_p S_p' Q (x_p - x_ref,p) + 2 R U and its Gauss-Newton Hessian
    2 sum_p S_p' Q S_p + 2 R I, from one rollout with sensitivities
    S_p = dx_p/dU and Q = diag(config.state_weight). The Hessian drops
    only the second derivatives of the states, so it is exact for a linear
    model and positive definite always. The warm start's sensitivity
    rollout is made here, once: it gives the warm start's horizon cost, and
    minimize takes its objective value as the first point's evaluation
    (start), without counting it again. The cost of minimize's point comes
    from a plain rollout. ControlStep.evaluations counts every horizon
    rollout of the solve, a sensitivity rollout as one: one for the warm
    start, each one minimize made (also those before it raised), and one
    for the cost of minimize's point.
    """
    kp = config.prediction_horizon
    kc = config.control_horizon
    if d is None:
        d = np.zeros(kp)
    warm = np.minimum(
        np.maximum(np.atleast_1d(np.asarray(warm_start, dtype=float)), -config.input_bound),
        config.input_bound,
    )
    if warm.shape != (kc,):
        raise ValueError(f"warm start must have length {kc}")

    evals = 0
    w2 = 2.0 * np.asarray(config.state_weight, dtype=float)
    r2 = 2.0 * config.input_weight
    r2_eye = r2 * np.eye(kc)

    def cost(U: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        try:
            states = predict_trajectory(model, x_k, U, d)
        except PredictionDivergenceError:
            return _DIVERGED_COST
        return horizon_cost(states, U, x_ref, config)

    def rollout(U: np.ndarray):
        """The horizon cost at U and the objective's (f, gradient, Hessian)
        there, from one sensitivity rollout."""
        nonlocal evals
        evals += 1
        try:
            states, sens = predict_trajectory(model, x_k, U, d, sensitivities=True)
        except PredictionDivergenceError:
            return _DIVERGED_COST, (_DIVERGED_COST, np.zeros(kc), r2_eye)
        # S and 2 Q S, each flattened to (kp * 4, kc)
        s = sens.reshape(-1, kc)
        qs = (w2[:, None] * sens).reshape(-1, kc)
        hess = s.T @ qs + r2_eye
        err = states - x_ref
        f = _error_cost(err, U, config)
        if not np.isfinite(hess).all():
            # finite sensitivities whose squares overflow: as useless to the
            # solver as a diverged rollout, though the cost itself stands
            return f, (_DIVERGED_COST, np.zeros(kc), r2_eye)
        return f, (f, err.ravel() @ qs + r2 * U, hess)

    def cost_and_gradient(U: np.ndarray):
        return rollout(U)[1]

    problem = NlpProblem(
        dimension=kc,
        objective=cost_and_gradient,
        lower_bounds=np.full(kc, -config.input_bound),
        upper_bounds=np.full(kc, config.input_bound),
        exact_gradient=True,
    )
    warm_cost, warm_start = rollout(warm)
    try:
        # control-grade accuracy: inputs are O(1), so 1e-4 KKT residual is
        # far below actuator resolution and keeps per-step solves cheap
        sol = minimize(problem, warm, SolverSettings(kkt_tolerance=1e-4), start=warm_start)
        status = sol.status
        sequence = sol.minimizer
        final_cost = cost(sequence)
    except (QpInfeasibleError, np.linalg.LinAlgError):
        status, sequence, final_cost = "fallback", warm, warm_cost
    if final_cost > warm_cost or final_cost >= _DIVERGED_COST or not np.all(np.isfinite(sequence)):
        status, sequence, final_cost = "fallback", warm, warm_cost
    return ControlStep(
        applied_input=float(sequence[0]),
        predicted_cost=float(final_cost),
        solver_status=status,
        evaluations=evals,
        optimized_sequence=sequence,
    )


@dataclass(frozen=True)
class AdaptationLoop:
    """Settings of the online parameter update; the adapting fuzzy model
    starts from the closed loop's AdaptiveFuzzyPredictor, and the update is
    driven by P b with P the closed loop's lyapunov_p and b = e4, the
    channel the input enters."""

    gain: float
    theta_bound: float

    def __post_init__(self) -> None:
        # not >= 0 and not > 0, so that NaN fails too
        if not self.gain >= 0.0:
            raise ValueError(f"gain must be non-negative, got {self.gain}")
        if not self.theta_bound > 0.0:
            raise ValueError(f"theta_bound must be positive, got {self.theta_bound}")


@dataclass(frozen=True)
class ClosedLoop:
    """Everything run_receding_horizon needs to simulate one controller."""

    model: object  # NominalPredictor | AdaptiveFuzzyPredictor
    config: MpcConfig
    true_coeffs: CoeffSet
    x_ref_fn: Callable[[float], np.ndarray]  # 4-state reference at time t
    lyapunov_p: np.ndarray
    disturbance: Optional[DisturbanceSpec] = None
    plant_dt: float = 1e-3
    adaptation: Optional[AdaptationLoop] = None

    def __post_init__(self) -> None:
        # not > 0, so that NaN fails too; round() below would raise on it
        if not self.plant_dt > 0.0:
            raise ValueError(f"plant_dt must be positive, got {self.plant_dt}")
        # a predictor of another step would span the wrong horizon
        if self.model.dt != self.config.dt:
            raise ValueError(f"model.dt {self.model.dt} differs from config.dt {self.config.dt}")
        ratio = self.config.dt / self.plant_dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("config.dt must be a positive multiple of plant_dt")
        if self.adaptation is not None and not isinstance(self.model, AdaptiveFuzzyPredictor):
            raise ValueError("adaptation needs an AdaptiveFuzzyPredictor model")


@dataclass
class TrajectoryLog:
    """Per-control-period records of a closed-loop run: each array or list
    field, t to evaluations, holds one entry per period, and in field order
    they are the period's record and the CSV columns (states as x1..x4)."""

    t: np.ndarray
    states: np.ndarray  # (n, 4), state at each solve instant
    u: np.ndarray
    y_ref: np.ndarray
    e: np.ndarray  # y_ref - y
    V: np.ndarray  # 0.5 * err' P err with the full 4-state error
    w_diag: np.ndarray
    predicted_cost: np.ndarray
    solver_status: list
    evaluations: np.ndarray
    diverged: bool = False
    final_fuzzy: Optional[fz.FuzzyModel] = None

    def __len__(self) -> int:
        return self.t.shape[0]


def _predicted_disturbances(spec: Optional[DisturbanceSpec], t: float, kp: int, dt: float) -> np.ndarray:
    """Known deterministic kinds are fed forward; noise predicts zero."""
    if spec is None or spec.kind in ("none", "band_limited_noise"):
        return np.zeros(kp)
    return np.array([disturbance_value(spec, t + (p + 1) * dt) for p in range(kp)])


def run_receding_horizon(x0: np.ndarray, loop: ClosedLoop, steps: int) -> TrajectoryLog:
    """Simulate the closed loop for `steps` control periods.

    Each period: solve with the current (frozen) model, apply the first
    input across the fast plant sub-steps, and, for the adaptive variant,
    update the fuzzy parameters once per sub-step from the latest
    measurement. Terminates early on plant divergence, parameter blow-up or
    a degenerate rule firing, with the log collected so far preserved. The
    adapting model is local to the run, which starts from loop.model.fuzzy
    and returns the last model as final_fuzzy; the loop itself is never
    written.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    cfg = loop.config
    n_sub = round(cfg.dt / loop.plant_dt)
    x = np.asarray(x0, dtype=float).copy()
    warm = np.zeros(cfg.control_horizon)
    true_b2 = loop.true_coeffs.b2
    ad = loop.adaptation
    fuzzy = None if ad is None else loop.model.fuzzy
    # P e4, copied: a strided column would change fz.adapt's dot product in
    # the last bits
    pb = None if ad is None else loop.lyapunov_p[:, 3].copy()

    rows: list[tuple] = []  # one record per period, in TrajectoryLog field order
    diverged = False

    for k in range(steps):
        t = k * cfg.dt
        model = loop.model if ad is None else replace(loop.model, fuzzy=fuzzy)
        x_ref_seq = np.stack(
            [loop.x_ref_fn(t + (p + 1) * cfg.dt) for p in range(cfg.prediction_horizon)]
        )
        d_seq = _predicted_disturbances(loop.disturbance, t, cfg.prediction_horizon, cfg.dt)
        ctrl = solve_step(model, x, x_ref_seq, cfg, warm, d_seq)
        u = ctrl.applied_input

        xr_now = loop.x_ref_fn(t)
        err = xr_now - x
        v_val = 0.5 * float(err @ (loop.lyapunov_p @ err))
        if ad is not None:
            f_true = (
                loop.true_coeffs.a2 * x[1]
                + loop.true_coeffs.a3 * np.sin(x[2])
                + loop.true_coeffs.a4 * x[3]
            )
            w_val = (f_true - fz.f_hat(fuzzy, x)) + (true_b2 - fz.g_hat(fuzzy, x)) * u
        else:
            w_val = 0.0

        rows.append((
            t, x.copy(), u, float(xr_now[2]), float(xr_now[2] - x[2]), v_val, float(w_val),
            ctrl.predicted_cost, ctrl.solver_status, ctrl.evaluations,
        ))

        try:
            for i in range(n_sub):
                t_sub = t + i * loop.plant_dt
                x = plant_step(
                    x, u, loop.plant_dt, loop.true_coeffs, loop.disturbance, t_sub
                )
                if ad is not None:
                    # parameter update from the freshest measurement
                    e_sub = loop.x_ref_fn(t_sub + loop.plant_dt) - x
                    fuzzy = fz.adapt(
                        fuzzy,
                        e_sub,
                        pb,
                        x,
                        u,
                        loop.plant_dt,
                        gain=ad.gain,
                        theta_bound=ad.theta_bound,
                    )
        except (IntegrationDivergenceError, fz.ParameterBlowupError, fz.DegenerateFiringError):
            diverged = True
            break
        warm = shift_warm_start(ctrl.optimized_sequence)

    return TrajectoryLog(
        # one column per record field; a column of strings stays a list
        *(list(col) if isinstance(col[0], str) else np.array(col) for col in zip(*rows)),
        diverged=diverged,
        final_fuzzy=fuzzy,
    )
