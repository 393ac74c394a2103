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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .plant import CoeffSet, DisturbanceSpec, IntegrationDivergenceError, disturbance_value, pendulum_field, rk4, step as plant_step
from . import fuzzy as fz
from .nlp_optimizer import NlpProblem, QpInfeasibleError, SolverSettings, minimize

__all__ = [
    "MpcConfig",
    "NominalPredictor",
    "AdaptiveFuzzyPredictor",
    "ControlStep",
    "TrajectoryLog",
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


class _SolveConstants(NamedTuple):
    """What a solve takes from its MpcConfig alone; every array read-only."""

    weights: np.ndarray  # Q's diagonal, config.state_weight
    w2: np.ndarray  # 2 Q's diagonal as a (4, 1) column, which scales S to 2 Q S
    r2_eye: np.ndarray  # 2 R I, the input term of the Hessian
    lower: np.ndarray  # the input box, -input_bound per input
    upper: np.ndarray
    r2: float  # 2 R
    settings: SolverSettings


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

    @functools.cached_property
    def _solve_constants(self) -> _SolveConstants:
        # built once per instance, not per equal config: input_bound 0.0 and
        # -0.0 compare equal, but their boxes differ in the sign of zero
        kc = self.control_horizon
        weights = np.asarray(self.state_weight, dtype=float)
        r2 = 2.0 * self.input_weight
        arrays = (weights, 2.0 * weights[:, None], r2 * np.eye(kc), np.full(kc, -self.input_bound),
                  np.full(kc, self.input_bound))
        for array in arrays:
            array.setflags(write=False)
        # control-grade accuracy: inputs are O(1), so 1e-4 KKT residual is far
        # below actuator resolution; solve_step explains the budget of two
        # iterations
        return _SolveConstants(*arrays, r2, SolverSettings(kkt_tolerance=1e-4, max_iterations=2))


@dataclass(frozen=True)
class NominalPredictor:
    """One-step predictor integrating the rigid-body model at the control period."""

    coeffs: CoeffSet
    dt: float

    def predict(self, x, u: float, d: float = 0.0, tangents=None):
        """The state one control period ahead from the 4 floats x, as 4
        floats; with tangents, also the tangents carried through the step
        (see plant.rk4)."""
        return rk4(pendulum_field(self.coeffs, u), x, self.dt, (d, d, d), tangents)


@dataclass(frozen=True)
class AdaptiveFuzzyPredictor:
    """Predictor with the pendulum acceleration replaced by the fuzzy estimates.

    Arm channels keep the nominal linear model; the x4 derivative becomes
    f_hat(X) + g_hat(X) * (u + d). The closed loop builds one predictor per
    control period around the current fuzzy model, so a single solve sees
    frozen parameters. Between solves, exactly when its model is this
    predictor, it adapts them: after the period's plant sub-steps, one
    fz.adapt step per sub-step with drive (plant_dt * gain) (e . P e4) and
    theta_bound (see run_receding_horizon).

    Every stage, plain or linearized, makes one product of the basis eps
    with _jacobian_sums (n_rules x 26), which gives f_hat, the raw g_hat and
    the 24 sums the gradient needs. Both paths take the same product, so the
    states of a sensitivity rollout are those of a plain one, bit for bit.

    Linearized, the field differentiates theta . eps(X) in closed form.
    eps is a softmax of the log firing strengths s(X), whose gradient is
    D_ij = 2 M_ij x_j + M_i,4+j with M the first 8 columns of the model's
    coefficient matrix [M | c] (fz.FuzzyModel), so
        d(theta . eps)/dx = (theta o eps)' D - (theta . eps)(eps' D).
    g_hat has zero gradient while its floor is active.
    """

    fuzzy: fz.FuzzyModel
    coeffs: CoeffSet
    dt: float
    gain: float
    theta_bound: float

    def __post_init__(self) -> None:
        # not >= 0 and not > 0, so that NaN fails too
        if not self.gain >= 0.0:
            raise ValueError(f"gain must be non-negative, got {self.gain}")
        if not self.theta_bound > 0.0:
            raise ValueError(f"theta_bound must be positive, got {self.theta_bound}")

    @functools.cached_property
    def _jacobian_sums(self) -> np.ndarray:
        # (rules x 26): [theta_f, theta_g, theta_f * M, theta_g * M, M], each
        # M block being the 4 quadratic then the 4 linear coefficients of s(X)
        fuz = self.fuzzy
        m = fuz._s_coef[:, :8]
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

        def field_fn(x1, x2, x3, x4, dd: float, linearize: bool = False):
            # v holds f_hat, the raw g_hat, then (theta_f o eps)' M,
            # (theta_g o eps)' M and eps' M
            v = fz.basis(fuz, (x1, x2, x3, x4)).dot(sums).tolist()
            f_est, g_raw = v[0], v[1]
            clamped = g_raw < g_floor
            g_est = g_floor if clamped else g_raw
            k = (x2, a1 * x2 + b1 * u, x4, f_est + g_est * (u + dd))
            if not linearize:
                return k
            # gradient of the x4 derivative, d f_hat/dx_j + (u + d) d g_hat/dx_j,
            # de the j-th entry of eps' D
            ud = 0.0 if clamped else u + dd
            tx = 2.0 * x1
            de = tx * v[18] + v[22]
            r1 = (tx * v[2] + v[6]) - f_est * de + ud * ((tx * v[10] + v[14]) - g_raw * de)
            tx = 2.0 * x2
            de = tx * v[19] + v[23]
            r2 = (tx * v[3] + v[7]) - f_est * de + ud * ((tx * v[11] + v[15]) - g_raw * de)
            tx = 2.0 * x3
            de = tx * v[20] + v[24]
            r3 = (tx * v[4] + v[8]) - f_est * de + ud * ((tx * v[12] + v[16]) - g_raw * de)
            tx = 2.0 * x4
            de = tx * v[21] + v[25]
            r4 = (tx * v[5] + v[9]) - f_est * de + ud * ((tx * v[13] + v[17]) - g_raw * de)

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
    PredictionDivergenceError when any predicted state is non-finite, and
    ValueError when x0 or a predicted state is not 4 floats.

    With sensitivities, returns (states, S) with S[p] = dx_p/dU, shape
    (len(d), 4, len(U)) and C-ordered, so that solve_step's reshape to
    (len(d) * 4, len(U)) is a view: each predictor call also carries one
    tangent per input U_j that has reached slot p through its RK4 stages
    (the later ones are still zero). The states are those of the plain
    rollout, bit for bit. A non-finite sensitivity counts as divergence
    too.
    """
    U = np.atleast_1d(np.asarray(U, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    kp, kc = d.shape[0], U.shape[0]
    # Python floats, so that no slot makes a numpy scalar; each predictor
    # call takes the 4 floats the one before returned
    x = np.asarray(x0, dtype=float).tolist()
    if len(x) != 4:
        raise ValueError(f"x0 has {len(x)} states, not 4")
    u_seq, d_seq = U.tolist(), d.tolist()
    states = []
    tangents = None
    if sensitivities:
        moved = []  # state tangents of U_0 .. U_j, j the last input applied so far
        flat = []  # per slot, per input, its 4 state tangents, the later inputs' zero
    for p in range(kp):
        u = u_seq[p] if p < kc else u_seq[-1]
        if sensitivities:
            if p < kc:
                moved.append((0.0, 0.0, 0.0, 0.0))  # U_p enters at slot p
            # the slot applies the last input, du = 1; the earlier ones hold
            tangents = [t + (0.0,) for t in moved[:-1]]
            tangents.append(moved[-1] + (1.0,))
        try:
            # sin() of an overflowed stage state raises; fold that into divergence
            out = model.predict(x, u, d_seq[p], tangents)
        except (ValueError, OverflowError, fz.DegenerateFiringError) as exc:
            raise PredictionDivergenceError(f"prediction divergence at slot {p + 1}") from exc
        if sensitivities:
            x, moved = out
            for t in moved:
                flat += t
            flat += (0.0, 0.0, 0.0, 0.0) * (kc - len(moved))
        else:
            x = out
        if len(x) != 4:
            raise ValueError(f"the predictor returned {len(x)} states at slot {p + 1}, not 4")
        if not all(map(math.isfinite, x)):
            raise PredictionDivergenceError(f"prediction divergence at slot {p + 1}")
        states.append(x)
    states = np.array(states)
    if not sensitivities:
        return states
    if not all(map(math.isfinite, flat)):
        raise PredictionDivergenceError("prediction sensitivities diverged")
    # one copy to C order: packing (4, kc) rows in Python costs more
    return states, np.array(flat).reshape(kp, kc, 4).transpose(0, 2, 1).copy()


def horizon_cost(err: np.ndarray, u: np.ndarray, config: MpcConfig) -> float:
    """Sum of Q-weighted squared state errors err = states - x_ref plus
    R-weighted squared inputs u, Q the diagonal config.state_weight."""
    state_term = float(np.einsum("pi,i,pi->", err, config._solve_constants.weights, err))
    return state_term + config.input_weight * float(u.dot(u))


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

    x_ref holds the reference of each predicted slot, shape
    (prediction_horizon, 4), and d the predicted disturbance of each,
    shape (prediction_horizon,), zeros when None; the warm start has
    control_horizon entries. Another shape raises a ValueError that names
    the input. What depends on the config alone (the weights, the input box
    and the solver settings) is built on the config's first solve and kept
    on it, read-only.

    The solver's point is applied as returned: minimize keeps every
    iterate inside the input box. Never returns a worse sequence than the
    warm start: if the solver's point does not improve the horizon cost,
    the warm start is applied and the status flags the fallback. So does a
    point whose rollout diverged or whose cost, gradient or Hessian
    overflowed: the objective returns _DIVERGED_COST with a zero gradient
    there, which the solver reports as converged. So does a point whose
    cost is NaN, as when x_ref holds a NaN; the period then reports the
    warm start's cost, NaN too. So does solver trouble: a
    QpInfeasibleError or LinAlgError out of minimize; any other exception
    propagates. The program has box bounds only, so p = 0 is always
    feasible for its QPs: QpInfeasibleError here means numerical trouble,
    such as a non-finite gradient, not an empty QP. Any other period takes
    minimize's status: converged, max_iter (its iteration budget ran out)
    or stalled (it stopped short of both, see minimize).

    The work per period is bounded, as in the real-time iteration (Diehl,
    Bock, Schloeder 2005): minimize gets a budget of two SQP iterations
    from the shifted warm start, so a solve takes at most two steps and
    2 * nlp_optimizer._MAX_BACKTRACKS + 2 = 62 rollouts. An accepted
    step's residual comes from its trial rollout. A solve that meets the
    1e-4 KKT tolerance on the way returns converged; one whose budget runs
    out returns its latest iterate, converged if that iterate meets the
    tolerance with the multipliers of its own QP, and max_iter, the usual
    status of an afmpc period, if not. One iteration is too few: on the
    default afmpc run it takes criterion 7's fraction to 0.899 (it needs
    0.90); two keep 0.916, as do three.

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
    d = np.zeros(kp) if d is None else np.asarray(d, dtype=float)
    if d.shape != (kp,):
        raise ValueError(f"d must have shape (prediction_horizon,) = ({kp},), got {d.shape}")
    x_ref = np.asarray(x_ref, dtype=float)
    if x_ref.shape != (kp, 4):
        raise ValueError(f"x_ref must have shape (prediction_horizon, 4) = ({kp}, 4), got {x_ref.shape}")
    warm = np.minimum(
        np.maximum(np.atleast_1d(np.asarray(warm_start, dtype=float)), -config.input_bound),
        config.input_bound,
    )
    if warm.shape != (kc,):
        raise ValueError(f"warm start must have length {kc}")

    evals = 0
    consts = config._solve_constants
    w2, r2_eye, r2 = consts.w2, consts.r2_eye, consts.r2

    def cost(U: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        try:
            states = predict_trajectory(model, x_k, U, d)
        except PredictionDivergenceError:
            return _DIVERGED_COST
        return horizon_cost(states - x_ref, U, config)

    def rollout(U: np.ndarray):
        """The horizon cost at U and the objective's (f, gradient, Hessian)
        there, from one sensitivity rollout."""
        nonlocal evals
        evals += 1
        try:
            states, sens = predict_trajectory(model, x_k, U, d, sensitivities=True)
        except PredictionDivergenceError:
            return _DIVERGED_COST, (_DIVERGED_COST, np.zeros(kc), r2_eye)
        # S and 2 Q S, each flattened to (kp * 4, kc), views of C-ordered arrays
        s = sens.reshape(-1, kc)
        qs = (w2 * sens).reshape(-1, kc)
        err = states - x_ref
        # an overflow here, or the NaN of overflows of both signs, is caught by
        # the one finiteness test below (on Python floats, cheaper at this size)
        with np.errstate(over="ignore", invalid="ignore"):
            f = horizon_cost(err, U, config)
            grad = err.ravel().dot(qs) + r2 * U
            hess = s.T.dot(qs) + r2_eye
        if not all(map(math.isfinite, [f, *grad.tolist(), *hess.ravel().tolist()])):
            # finite states and sensitivities whose products overflow: as
            # useless to the solver as a diverged rollout; the cost stands
            return f, (_DIVERGED_COST, np.zeros(kc), r2_eye)
        return f, (f, grad, hess)

    def cost_and_gradient(U: np.ndarray):
        return rollout(U)[1]

    problem = NlpProblem(
        dimension=kc,
        objective=cost_and_gradient,
        lower_bounds=consts.lower,
        upper_bounds=consts.upper,
        exact_gradient=True,
    )
    warm_cost, warm_start = rollout(warm)
    try:
        sol = minimize(problem, warm, consts.settings, start=warm_start)
        status = sol.status
        sequence = sol.minimizer
        final_cost = cost(sequence)
    except (QpInfeasibleError, np.linalg.LinAlgError):
        sequence, final_cost = warm, math.nan
    finite = all(map(math.isfinite, sequence.tolist()))
    # not <=, so that a NaN cost (solver trouble, or a NaN reference) falls back too
    if not final_cost <= warm_cost or final_cost >= _DIVERGED_COST or not finite:
        status, sequence, final_cost = "fallback", warm, warm_cost
    return ControlStep(
        applied_input=float(sequence[0]),
        predicted_cost=float(final_cost),
        solver_status=status,
        evaluations=evals,
        optimized_sequence=sequence,
    )


def _whole_multiple(total: float, step: float) -> bool:
    """Whether total / step is finite and within 1e-9 of a positive integer."""
    ratio = total / step
    return math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9


@dataclass(frozen=True)
class ClosedLoop:
    """Everything run_receding_horizon needs to simulate one controller.

    plant_dt is also the adaptation's step: when model is an
    AdaptiveFuzzyPredictor, each sub-step's fz.adapt drive is
    (plant_dt * model.gain) times that sub-step's tracking error dotted
    with P e4, P = lyapunov_p.
    """

    model: object  # NominalPredictor | AdaptiveFuzzyPredictor
    config: MpcConfig
    true_coeffs: CoeffSet
    # the 4-state reference at the times t: shape (4,) for a float t, (n, 4)
    # for an array of n times
    x_ref_fn: Callable[[float | np.ndarray], np.ndarray]
    lyapunov_p: np.ndarray
    disturbance: DisturbanceSpec = DisturbanceSpec()
    plant_dt: float = 1e-3

    def __post_init__(self) -> None:
        # not > 0, so that NaN fails too; the multiple test divides by it
        if not self.plant_dt > 0.0:
            raise ValueError(f"plant_dt must be positive, got {self.plant_dt}")
        # a predictor of another step would span the wrong horizon
        if self.model.dt != self.config.dt:
            raise ValueError(f"model.dt {self.model.dt} differs from config.dt {self.config.dt}")
        if not _whole_multiple(self.config.dt, self.plant_dt):
            raise ValueError("config.dt must be a positive multiple of plant_dt")


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


def _predicted_disturbances(spec: DisturbanceSpec, t: float, kp: int, dt: float) -> np.ndarray:
    """Known deterministic kinds are fed forward; noise predicts zero."""
    if spec.kind in ("none", "band_limited_noise"):
        return np.zeros(kp)
    return np.array([disturbance_value(spec, t + (p + 1) * dt) for p in range(kp)])


def run_receding_horizon(x0: np.ndarray, loop: ClosedLoop, steps: int) -> TrajectoryLog:
    """Simulate the closed loop for `steps` control periods.

    Each period has three parts. First what depends only on time: one
    x_ref_fn call over the period's times, which are t, the horizon's
    t + (p + 1) dt and, when the run adapts, the times (t + i plant_dt) +
    plant_dt that end the plant sub-steps. Then the solve with the current
    (frozen) model, and the plant: the first input applied across the fast
    sub-steps, whose states do not depend on the model being adapted. Last,
    when loop.model is an AdaptiveFuzzyPredictor, the adaptation: the
    tracking errors E of all sub-steps at once and their products E_i . P e4
    from one np.vecdot, then one fz.adapt step per sub-step, in order, at
    its measured state, with drive k = (plant_dt gain) (E_i . P e4), input
    u and the predictor's theta_bound. The result is that of adapting after
    every sub-step, bit for bit.

    An adapting run logs w_diag = (f - f_hat(x)) + (b2 - g_hat(x)) u at the
    period's x and u, with f the plant's pendulum_field x4' at u = d = 0.

    Terminates early on plant divergence, parameter blow-up or a degenerate
    rule firing, with the log collected so far preserved. A firing that
    degenerates at the period's own state logs the period with w_diag NaN
    and ends the run before its plant sub-steps. A plant divergence at
    sub-step j ends the run after the adaptation over the sub-steps before
    j; an adaptation failure ends it with the last good model, and the
    period's sub-steps after that step are taken but discarded. The
    adapting model is local to the run, which starts from loop.model.fuzzy
    and returns the last model as final_fuzzy; the loop itself is never
    written.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    cfg = loop.config
    kp = cfg.prediction_horizon
    n_sub = round(cfg.dt / loop.plant_dt)
    # the state between solves, as the 4 floats plant_step takes and returns
    x = tuple(np.asarray(x0, dtype=float).tolist())
    warm = np.zeros(cfg.control_horizon)
    plant_dt, true_coeffs = loop.plant_dt, loop.true_coeffs
    disturbance, x_ref_fn = loop.disturbance, loop.x_ref_fn
    # offsets of the reference times from t: 0, then (p + 1) dt, rounded as
    # the scalar products are (t + 0.0 is t, as t >= 0); and i plant_dt
    period_offsets = np.arange(kp + 1) * cfg.dt
    sub_offsets = np.arange(n_sub) * plant_dt
    # the adaptive predictor, whose fuzzy model the run adapts, or None
    ad = loop.model if isinstance(loop.model, AdaptiveFuzzyPredictor) else None
    fuzzy = None if ad is None else ad.fuzzy
    # P e4, copied: a strided column would change the drive's dot product in
    # the last bits
    pb = None if ad is None else loop.lyapunov_p[:, 3].copy()
    drive_scale = None if ad is None else plant_dt * ad.gain
    true_drift = pendulum_field(true_coeffs, 0.0)  # x4' at u = d = 0, for w_diag

    rows: list[tuple] = []  # one record per period, in TrajectoryLog field order
    diverged = False

    for k in range(steps):
        t = k * cfg.dt
        x_k = np.array(x)  # the period's one ndarray, for the solve and the log
        model = loop.model if ad is None else replace(ad, fuzzy=fuzzy)
        times = t + period_offsets
        if ad is not None:
            times = np.concatenate([times, (t + sub_offsets) + plant_dt])
        refs = x_ref_fn(times)
        d_seq = _predicted_disturbances(disturbance, t, kp, cfg.dt)
        xr_now = refs[0]
        # a huge but finite state, as in a run about to diverge, overflows in
        # the solve's rollouts (the fuzzy basis among them), in V and in w_diag:
        # the solve then falls back, V logs inf (or NaN), and w_diag's
        # DegenerateFiringError or the plant ends the run diverged
        with np.errstate(over="ignore", invalid="ignore"):
            ctrl = solve_step(model, x_k, refs[1 : kp + 1], cfg, warm, d_seq)
            u = ctrl.applied_input
            err = xr_now - x_k
            v_val = 0.5 * float(err.dot(loop.lyapunov_p.dot(err)))
            if ad is not None:
                f_true = true_drift(*x, 0.0)[3]
                try:
                    w_val = (f_true - fz.f_hat(fuzzy, x)) + (true_coeffs.b2 - fz.g_hat(fuzzy, x)) * u
                except fz.DegenerateFiringError:
                    w_val, diverged = math.nan, True  # logged, then the run ends
            else:
                w_val = 0.0

        rows.append((
            t, x_k, u, float(xr_now[2]), float(xr_now[2] - x[2]), v_val, float(w_val),
            ctrl.predicted_cost, ctrl.solver_status, ctrl.evaluations,
        ))
        if diverged:
            break

        measured = []  # the state after each plant sub-step
        try:
            for i in range(n_sub):
                x = plant_step(x, u, plant_dt, true_coeffs, disturbance, t + i * plant_dt)
                measured.append(x)
        except IntegrationDivergenceError:
            diverged = True
        if ad is not None and measured:
            # a state about to diverge overflows in the errors and the basis;
            # the adaptation then fails by name, so numpy need not warn
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    errors = refs[kp + 1 : kp + 1 + len(measured)] - np.array(measured)
                    # vecdot calls per row the BLAS ddot that e_i.dot(pb) calls,
                    # so each drive is the per-sub-step float, bit for bit;
                    # E @ pb, np.inner, einsum and (E * pb).sum(1) round differently
                    drives = np.vecdot(errors, pb).tolist()
                    for e_pb, x_i in zip(drives, measured):
                        fuzzy = fz.adapt(fuzzy, drive_scale * e_pb, x_i, u, theta_bound=ad.theta_bound)
            except (fz.ParameterBlowupError, fz.DegenerateFiringError):
                diverged = True
        if diverged:
            break
        warm = shift_warm_start(ctrl.optimized_sequence)

    return TrajectoryLog(
        # one column per record field; a column of strings stays a list
        *(list(col) if isinstance(col[0], str) else np.array(col) for col in zip(*rows)),
        diverged=diverged,
        final_fuzzy=fuzzy,
    )
