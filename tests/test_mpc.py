"""Tests for the receding-horizon controller and its prediction models."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from afmpc import fuzzy as fz
from afmpc import harness, mpc
from afmpc.nlp_optimizer import QpInfeasibleError
from afmpc.plant import (
    DisturbanceSpec,
    PlantParams,
    derive_coefficients,
    disturbance_value,
    rk4,
    step as plant_step,
)

COEFFS = derive_coefficients(PlantParams())

WIDE_RANGES = ((-math.pi, math.pi), (-8.0, 8.0), (-math.pi / 2, math.pi / 2), (-8.0, 8.0))


def zero_ref(t: float) -> np.ndarray:
    return np.zeros(4)


def true_drift(X: np.ndarray) -> np.ndarray:
    return COEFFS.a2 * X[:, 1] + COEFFS.a3 * np.sin(X[:, 2]) + COEFFS.a4 * X[:, 3]


def state_matrices(coeffs) -> tuple[np.ndarray, np.ndarray]:
    # continuous-time (A, B) of the model once the sine term is removed
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, coeffs.a1, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, coeffs.a2, 0.0, coeffs.a4],
        ]
    )
    B = np.array([0.0, coeffs.b1, 0.0, coeffs.b2])
    return A, B


def rk4_transition(coeffs, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-step update of the linear model is x+ = Phi x + Gamma u.

    Phi is the degree-4 truncation of the matrix exponential, the exact map
    realized by one RK4 step on a linear field; Gamma is the matching input
    convolution for a zero-order-hold input.
    """
    A, B = state_matrices(coeffs)
    Phi = np.eye(4)
    term = np.eye(4)
    for j in range(1, 5):
        term = term @ (h * A) / j
        Phi = Phi + term
    Gamma_mat = h * np.eye(4)
    term = h * np.eye(4)
    for j in range(2, 5):
        term = term @ (h * A) / j
        Gamma_mat = Gamma_mat + term
    return Phi, Gamma_mat @ B


class InfinitePredictor:
    """Stub model whose rollout immediately leaves the finite range."""

    def predict(self, x, u, d=0.0, tangents=None):
        if tangents is None:
            return (math.inf,) * 4
        return (math.inf,) * 4, [tuple(t[:4]) for t in tangents]


class BrokenAfterWarmStartPredictor:
    """Nominal predictor that raises KeyError once the warm-start rollout is done."""

    def __init__(self, cfg: mpc.MpcConfig):
        self.inner = mpc.NominalPredictor(COEFFS, cfg.dt)
        self.calls_left = cfg.prediction_horizon

    def predict(self, x, u, d=0.0, tangents=None):
        if self.calls_left == 0:
            raise KeyError("predictor bug")
        self.calls_left -= 1
        return self.inner.predict(x, u, d, tangents)


def test_config_defaults():
    cfg = mpc.MpcConfig()
    assert cfg.prediction_horizon == 5
    assert cfg.control_horizon == 3
    assert cfg.state_weight == (0.1, 0.1, 0.1, 0.1)
    assert cfg.input_weight == pytest.approx(0.3)
    assert cfg.input_bound == pytest.approx(5.0)
    assert cfg.dt == pytest.approx(0.05)


def test_config_rejects_bad_horizons():
    with pytest.raises(ValueError, match="control_horizon"):
        mpc.MpcConfig(control_horizon=0)
    with pytest.raises(ValueError, match="control_horizon"):
        mpc.MpcConfig(prediction_horizon=3, control_horizon=4)


def test_config_rejects_bad_state_weight():
    # the weights are the diagonal of Q: three entries, a zero, a negative
    # and a NaN, which fails every comparison, so each entry is checked
    for weights in [
        (0.1, 0.1, 0.1),
        (1.0, 1.0, 1.0, 0.0),
        (1.0, -0.5, 1.0, 1.0),
        (1.0, 1.0, math.nan, 1.0),
    ]:
        with pytest.raises(ValueError, match="state_weight must be 4 positive diagonal weights"):
            mpc.MpcConfig(state_weight=weights)


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError, match="input_weight"):
        mpc.MpcConfig(input_weight=0.0)
    with pytest.raises(ValueError, match="input_bound"):
        mpc.MpcConfig(input_bound=-1.0)
    with pytest.raises(ValueError, match="dt"):
        mpc.MpcConfig(dt=0.0)
    # NaN fails every comparison, so each guard must reject it too
    with pytest.raises(ValueError, match="input_weight"):
        mpc.MpcConfig(input_weight=math.nan)
    with pytest.raises(ValueError, match="input_bound"):
        mpc.MpcConfig(input_bound=math.nan)
    with pytest.raises(ValueError, match="dt"):
        mpc.MpcConfig(dt=math.nan)


def test_config_accepts_zero_input_bound():
    cfg = mpc.MpcConfig(input_bound=0.0)
    assert cfg.input_bound == 0.0


def test_nominal_predictor_matches_plant_step():
    # same integrator, same coefficients: predictions equal the plant bitwise
    model = mpc.NominalPredictor(COEFFS, 0.05)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(scale=0.5, size=4)
        u = float(rng.uniform(-5.0, 5.0))
        assert np.array_equal(model.predict(x, u), plant_step(x, u, 0.05, COEFFS))


def test_nominal_predictor_linear_map_when_sine_removed():
    coeffs0 = dataclasses.replace(COEFFS, a3=0.0)
    h = 0.05
    Phi, Gamma = rk4_transition(coeffs0, h)
    model = mpc.NominalPredictor(coeffs0, h)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(scale=1.0, size=4)
        u = float(rng.uniform(-5.0, 5.0))
        np.testing.assert_allclose(model.predict(x, u), Phi @ x + Gamma * u, atol=1e-12)


def test_predict_trajectory_equilibrium_stays_zero():
    model = mpc.NominalPredictor(COEFFS, 0.05)
    states = mpc.predict_trajectory(model, np.zeros(4), np.zeros(3), np.zeros(5))
    assert states.shape == (5, 4)
    assert np.all(states == 0.0)


def test_predict_trajectory_holds_last_input():
    model = mpc.NominalPredictor(COEFFS, 0.05)
    x0 = np.array([0.1, 0.0, -0.05, 0.2])
    U = np.array([1.0, -2.0])
    d = np.zeros(4)
    states = mpc.predict_trajectory(model, x0, U, d)
    x = x0
    for p, u in enumerate([1.0, -2.0, -2.0, -2.0]):
        x = model.predict(x, u, 0.0)
        assert np.array_equal(states[p], x)


def test_predict_trajectory_raises_on_nonfinite_prediction():
    with pytest.raises(mpc.PredictionDivergenceError, match="slot 1"):
        mpc.predict_trajectory(InfinitePredictor(), np.zeros(4), np.zeros(3), np.zeros(5))


class NonFiniteAtSlotPredictor:
    """Nominal predictor whose state turns non-finite at one slot."""

    def __init__(self, slot: int, value: float):
        self.inner = mpc.NominalPredictor(COEFFS, 0.05)
        self.slot, self.value, self.calls = slot, value, 0

    def predict(self, x, u, d=0.0, tangents=None):
        self.calls += 1
        out = self.inner.predict(x, u, d, tangents)
        state = list(out if tangents is None else out[0])
        if self.calls == self.slot:
            state[1] = self.value
        return tuple(state) if tangents is None else (tuple(state), out[1])


@pytest.mark.parametrize("sensitivities", [False, True])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_predict_trajectory_names_the_slot_of_a_non_finite_state(value, sensitivities):
    model = NonFiniteAtSlotPredictor(3, value)
    with pytest.raises(mpc.PredictionDivergenceError, match=r"at slot 3$"):
        mpc.predict_trajectory(model, np.zeros(4), np.ones(3), np.zeros(5), sensitivities)
    assert model.calls == 3


@functools.cache
def default_fuzzy_model() -> fz.FuzzyModel:
    """The default afmpc scenario's 81-rule model, fitted to its nominal prior."""
    config = dataclasses.replace(harness.default_config(), controller="afmpc")
    loop, _, _ = harness.build_closed_loop(config)
    return loop.model.fuzzy


@st.composite
def fuzzy_predictors(draw):
    """The default fuzzy predictor with drawn consequents.

    theta_g sits on one side of the g floor everywhere (theta_g . eps is a
    convex combination): above it, or below it so that the clamp is active
    at every stage.
    """
    fuzzy_model = default_fuzzy_model()
    floor = fuzzy_model.g_floor
    level = draw(st.one_of(st.floats(floor + 0.5, 2.0 * COEFFS.b2), st.floats(-5.0, floor - 0.5)))
    noise = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=fuzzy_model.n_rules, max_size=fuzzy_model.n_rules)))
    theta_f = fuzzy_model.theta_f + 10.0 * noise
    theta_g = level + 0.4 * noise[::-1]
    return mpc.AdaptiveFuzzyPredictor(fuzzy_model._replace_thetas(theta_f, theta_g), COEFFS, 0.05)


@st.composite
def start_states(draw):
    """A state within 3x the fuzzy ranges' half-widths of their centers,
    so inside and outside them."""
    ranges = default_fuzzy_model().state_ranges
    centers = np.array([0.5 * (lo + hi) for lo, hi in ranges])
    half = np.array([0.5 * (hi - lo) for lo, hi in ranges])
    return centers + 3.0 * half * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))


@st.composite
def sensitivity_cases(draw):
    """A predictor, a start state, an input sequence and disturbances.

    A fuzzy predictor's rollout never crosses the g-floor clamp's kink,
    where differences would not match the one-sided derivative.
    """
    if draw(st.booleans()):
        model = mpc.NominalPredictor(COEFFS, 0.05)
    else:
        model = draw(fuzzy_predictors())
    x0 = draw(start_states())
    kc = draw(st.integers(1, 3))
    U = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=kc, max_size=kc)))
    nonzero = st.one_of(st.floats(-2.0, -0.01), st.floats(0.01, 2.0))
    d = np.array(draw(st.lists(nonzero, min_size=5, max_size=5)))
    return model, x0, U, d


@hyp_settings(max_examples=80, deadline=None)
@given(case=sensitivity_cases())
def test_rollout_sensitivities_match_central_differences(case):
    model, x0, U, d = case
    plain = mpc.predict_trajectory(model, x0, U, d)
    states, sens = mpc.predict_trajectory(model, x0, U, d, sensitivities=True)
    # the tangents ride along: the states are those of the plain rollout
    assert np.array_equal(states, plain)
    assert sens.shape == (5, 4, U.shape[0])
    h = 1e-5
    fd = np.empty_like(sens)
    for j in range(U.shape[0]):
        step = np.zeros_like(U)
        step[j] = h
        up = mpc.predict_trajectory(model, x0, U + step, d)
        down = mpc.predict_trajectory(model, x0, U - step, d)
        fd[:, :, j] = (up - down) / (2.0 * h)
    assert np.abs(sens - fd).max() <= 1e-6 * np.abs(sens).max()


@hyp_settings(max_examples=60, deadline=None)
@given(case=sensitivity_cases(), ref=st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20))
def test_objective_value_is_horizon_cost_of_the_plain_rollout(case, ref):
    # the solver's objective rolls out with sensitivities and forms its
    # cost from the same state errors as its gradient; its value must be
    # horizon_cost of the plain rollout, bit for bit
    model, x0, U, d = case
    cfg = mpc.MpcConfig(control_horizon=U.shape[0])
    x_ref = np.array(ref).reshape(cfg.prediction_horizon, 4)
    objectives = []

    def capture(problem, z0, settings=None, start=None):
        objectives.append(problem.objective)
        raise QpInfeasibleError("objective captured")

    inner = mpc.minimize
    mpc.minimize = capture
    try:
        mpc.solve_step(model, x0, x_ref, cfg, U, d)
    finally:
        mpc.minimize = inner
    f, _, _ = objectives[0](U)
    try:
        states = mpc.predict_trajectory(model, x0, U, d)
    except mpc.PredictionDivergenceError:
        assert f == mpc._DIVERGED_COST
        return
    assert f == mpc.horizon_cost(states, U, x_ref, cfg)


@hyp_settings(max_examples=60, deadline=None)
@given(model=fuzzy_predictors(), x0=start_states(), u=st.floats(-5.0, 5.0), d=st.floats(-2.0, 2.0))
def test_fused_fuzzy_field_matches_f_hat_and_g_hat(model, x0, u, d):
    # the predictor's one product per stage against the field spelled out
    # with the fuzzy module's own estimates
    fuzzy_model, c = model.fuzzy, model.coeffs

    def field(s, dd):
        g = fz.g_hat(fuzzy_model, s)
        return (s[1], c.a1 * s[1] + c.b1 * u, s[3], fz.f_hat(fuzzy_model, s) + g * (u + dd))

    x0 = x0.tolist()
    want = np.array(rk4(field, x0, model.dt, (d, d, d)))
    scale = 1e-12 * np.abs(want).max()
    assert np.abs(np.array(model.predict(x0, u, d)) - want).max() <= scale
    state, _ = model.predict(x0, u, d, [(1.0, 0.0, 0.0, 0.0, 0.0)])
    assert np.abs(np.array(state) - want).max() <= scale


def test_fuzzy_sensitivities_ignore_theta_g_while_clamped():
    # below the floor everywhere, g_hat is the constant floor, so theta_g
    # changes neither the states nor the sensitivities
    base = default_fuzzy_model()
    x0 = np.array([0.1, -0.5, 0.05, 0.3])
    U, d = np.array([1.0, -0.5, 0.2]), np.full(5, 0.1)
    out = [
        mpc.predict_trajectory(
            mpc.AdaptiveFuzzyPredictor(base._replace_thetas(base.theta_f, theta_g), COEFFS, 0.05),
            x0, U, d, sensitivities=True,
        )
        for theta_g in (np.zeros(base.n_rules), np.linspace(-3.0, 0.5, base.n_rules))
    ]
    assert np.array_equal(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])


def test_horizon_cost_hand_example():
    cfg = mpc.MpcConfig()
    states = np.array([[2.0, 0.0, 0.0, 0.0]])
    x_ref = np.zeros((1, 4))
    # 0.1*2^2 state term plus 0.3*1^2 input term
    assert mpc.horizon_cost(states, np.array([1.0]), x_ref, cfg) == pytest.approx(0.7)


def test_horizon_cost_accumulates_slots():
    cfg = mpc.MpcConfig()
    states = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    x_ref = np.zeros((2, 4))
    got = mpc.horizon_cost(states, np.array([0.5, -0.5]), x_ref, cfg)
    assert got == pytest.approx(0.1 * 1.0 + 0.1 * 4.0 + 0.3 * 0.5)


def test_horizon_cost_input_term_scales_quadratically():
    cfg = mpc.MpcConfig()
    states = np.zeros((3, 4))
    x_ref = np.zeros((3, 4))
    u = np.array([1.0, -2.0, 0.5])
    base = mpc.horizon_cost(states, u, x_ref, cfg)
    assert mpc.horizon_cost(states, 2.0 * u, x_ref, cfg) == pytest.approx(4.0 * base)


def test_shift_warm_start_repeats_last():
    np.testing.assert_array_equal(
        mpc.shift_warm_start(np.array([1.0, 2.0, 3.0])), np.array([2.0, 3.0, 3.0])
    )


def test_solve_step_equilibrium_returns_zero():
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    ctrl = mpc.solve_step(model, np.zeros(4), x_ref, cfg, np.zeros(3))
    assert ctrl.applied_input == pytest.approx(0.0, abs=1e-9)
    assert ctrl.predicted_cost == pytest.approx(0.0, abs=1e-12)
    assert ctrl.evaluations >= 2


def test_solve_step_validates_warm_start_length():
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    with pytest.raises(ValueError, match="warm start must have length 3"):
        mpc.solve_step(model, np.zeros(4), x_ref, cfg, np.zeros(2))


def test_solve_step_applies_first_input_within_bounds():
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    x = np.array([0.2, -0.5, 0.3, 1.0])
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    ctrl = mpc.solve_step(model, x, x_ref, cfg, np.zeros(3))
    assert ctrl.applied_input == ctrl.optimized_sequence[0]
    assert np.all(np.abs(ctrl.optimized_sequence) <= cfg.input_bound + 1e-12)


def test_solve_step_zero_bound_pins_input():
    cfg = mpc.MpcConfig(input_bound=0.0)
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    x = np.array([0.2, -0.5, 0.3, 1.0])
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    ctrl = mpc.solve_step(model, x, x_ref, cfg, np.zeros(3))
    assert ctrl.applied_input == 0.0
    assert np.all(ctrl.optimized_sequence == 0.0)


def test_solve_step_never_worse_than_warm_start():
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    rng = np.random.default_rng(29)
    for _ in range(15):
        x = rng.normal(scale=0.4, size=4)
        x_ref = np.tile(rng.normal(scale=0.1, size=4), (cfg.prediction_horizon, 1))
        warm = rng.uniform(-5.0, 5.0, size=3)
        d = np.zeros(cfg.prediction_horizon)
        warm_cost = mpc.horizon_cost(
            mpc.predict_trajectory(model, x, warm, d), warm, x_ref, cfg
        )
        ctrl = mpc.solve_step(model, x, x_ref, cfg, warm)
        assert np.isfinite(ctrl.predicted_cost)
        assert ctrl.predicted_cost <= warm_cost + 1e-12


@st.composite
def solve_step_cases(draw):
    """A state inside the fuzzy ranges, a reference per slot, a warm start
    (clipped by solve_step) and one of three input bounds."""
    cfg = mpc.MpcConfig(input_bound=draw(st.sampled_from([0.0, 0.5, 5.0])))
    x = np.array([draw(st.floats(lo, hi)) for lo, hi in WIDE_RANGES])
    x_ref = np.array(
        [[draw(st.floats(lo, hi)) for lo, hi in WIDE_RANGES] for _ in range(cfg.prediction_horizon)]
    )
    warm = np.array([draw(st.floats(-6.0, 6.0)) for _ in range(cfg.control_horizon)])
    return cfg, x, x_ref, warm


@hyp_settings(max_examples=60, deadline=None)
@given(case=solve_step_cases())
def test_solve_step_never_above_warm_start_cost(case):
    cfg, x, x_ref, warm = case
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    clipped = np.clip(warm, -cfg.input_bound, cfg.input_bound)
    d = np.zeros(cfg.prediction_horizon)
    warm_cost = mpc.horizon_cost(mpc.predict_trajectory(model, x, clipped, d), clipped, x_ref, cfg)
    ctrl = mpc.solve_step(model, x, x_ref, cfg, warm)
    assert ctrl.predicted_cost <= warm_cost
    assert abs(ctrl.applied_input) <= cfg.input_bound
    assert ctrl.solver_status in ("converged", "max_iter", "stalled", "fallback")


def test_solve_step_propagates_predictor_errors():
    # a bug inside the rollout is not solver trouble: it must surface
    # instead of being relabelled as a fallback period
    cfg = mpc.MpcConfig()
    model = BrokenAfterWarmStartPredictor(cfg)
    x = np.array([0.2, -0.5, 0.3, 1.0])
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    with pytest.raises(KeyError, match="predictor bug"):
        mpc.solve_step(model, x, x_ref, cfg, np.zeros(3))
    assert model.calls_left == 0


def test_solve_step_falls_back_on_qp_infeasibility(monkeypatch):
    def infeasible_minimize(*args, **kwargs):
        raise QpInfeasibleError("QP infeasible")

    monkeypatch.setattr(mpc, "minimize", infeasible_minimize)
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    x = np.array([0.2, -0.5, 0.3, 1.0])
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    warm = np.array([0.7, -0.2, 0.1])
    d = np.zeros(cfg.prediction_horizon)
    warm_cost = mpc.horizon_cost(mpc.predict_trajectory(model, x, warm, d), warm, x_ref, cfg)
    ctrl = mpc.solve_step(model, x, x_ref, cfg, warm)
    assert ctrl.solver_status == "fallback"
    assert ctrl.applied_input == 0.7
    np.testing.assert_array_equal(ctrl.optimized_sequence, warm)
    assert ctrl.predicted_cost == warm_cost


def test_solve_step_rolls_out_the_warm_start_once(monkeypatch):
    # the warm start's sensitivity rollout gives its horizon cost and is
    # minimize's first evaluation too; no plain rollout repeats it
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    warm = np.array([0.7, -0.2, 6.0])
    clipped = np.array([0.7, -0.2, cfg.input_bound])
    inner = mpc.predict_trajectory
    rollouts = []

    def spy(model, x0, U, d, sensitivities=False):
        rollouts.append(np.array(U))
        return inner(model, x0, U, d, sensitivities)

    monkeypatch.setattr(mpc, "predict_trajectory", spy)
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    ctrl = mpc.solve_step(model, np.array([0.2, -0.5, 0.3, 1.0]), x_ref, cfg, warm)
    # the solve moved, so the final cost's rollout is not at the warm start
    assert ctrl.solver_status == "converged"
    assert not np.array_equal(ctrl.optimized_sequence, clipped)
    assert sum(np.array_equal(U, clipped) for U in rollouts) == 1
    assert len(rollouts) == ctrl.evaluations


class OverflowingSensitivitiesPredictor:
    """Nominal predictor whose input tangents are scaled by 1e200: the
    states and sensitivities stay finite, the Gauss-Newton Hessian overflows."""

    def __init__(self, dt: float):
        self.inner = mpc.NominalPredictor(COEFFS, dt)

    def predict(self, x, u, d=0.0, tangents=None):
        if tangents is None:
            return self.inner.predict(x, u, d)
        return self.inner.predict(x, u, d, [tuple(t[:4]) + (1e200 * t[4],) for t in tangents])


def test_solve_step_keeps_the_warm_start_cost_when_its_hessian_overflows(monkeypatch):
    # the objective scores such a point as diverged, but the warm start's
    # horizon cost, which a fallback period reports, is that of its states
    def infeasible_minimize(*args, **kwargs):
        raise QpInfeasibleError("QP infeasible")

    monkeypatch.setattr(mpc, "minimize", infeasible_minimize)
    cfg = mpc.MpcConfig()
    model = OverflowingSensitivitiesPredictor(cfg.dt)
    x = np.array([0.2, -0.5, 0.3, 1.0])
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    warm = np.array([0.7, -0.2, 0.1])
    d = np.zeros(cfg.prediction_horizon)
    warm_cost = mpc.horizon_cost(mpc.predict_trajectory(model, x, warm, d), warm, x_ref, cfg)
    # numpy warns of the overflow in the Hessian's product, which the
    # objective detects by its non-finite entries
    with np.errstate(over="ignore"):
        ctrl = mpc.solve_step(model, x, x_ref, cfg, warm)
    assert ctrl.solver_status == "fallback"
    assert ctrl.predicted_cost == warm_cost < mpc._DIVERGED_COST


def test_solve_step_falls_back_when_every_rollout_diverges():
    # every rollout scores the flat divergence cost, whose zero gradient
    # minimize reports as converged; with no finite prediction the period
    # applies the warm start and says so
    cfg = mpc.MpcConfig()
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    warm = np.array([0.7, -0.2, 0.1])
    ctrl = mpc.solve_step(InfinitePredictor(), np.zeros(4), x_ref, cfg, warm)
    assert ctrl.solver_status == "fallback"
    assert ctrl.applied_input == 0.7
    np.testing.assert_array_equal(ctrl.optimized_sequence, warm)
    assert ctrl.predicted_cost == mpc._DIVERGED_COST


def test_solve_step_counts_minimize_evaluations_plus_warm_and_final(monkeypatch):
    solutions = []
    inner = mpc.minimize

    def recording(*args, **kwargs):
        solutions.append(inner(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(mpc, "minimize", recording)
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    ctrl = mpc.solve_step(model, np.array([0.2, -0.5, 0.3, 1.0]), x_ref, cfg, np.zeros(3))
    assert ctrl.solver_status == "converged"
    assert ctrl.evaluations == solutions[0].objective_evaluations + 2


@pytest.mark.parametrize("k", [0, 1, 7])
def test_solve_step_counts_evaluations_made_before_minimize_raised(monkeypatch, k):
    def failing_minimize(problem, z0, settings=None, start=None):
        for _ in range(k):
            problem.objective(z0)
        raise QpInfeasibleError("QP infeasible")

    monkeypatch.setattr(mpc, "minimize", failing_minimize)
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(COEFFS, cfg.dt)
    x_ref = np.zeros((cfg.prediction_horizon, 4))
    ctrl = mpc.solve_step(model, np.array([0.2, -0.5, 0.3, 1.0]), x_ref, cfg, np.zeros(3))
    assert ctrl.solver_status == "fallback"
    assert ctrl.evaluations == 1 + k


@pytest.mark.parametrize("controller", ["classical", "afmpc"])
def test_default_loop_evaluations_per_solve(monkeypatch, controller):
    # with the exact gradient and the Gauss-Newton Hessian from the rollout
    # sensitivities, a default solve takes about 3.0 (classical) and 4.2
    # (afmpc) objective evaluations after period 0; a differenced gradient
    # alone would cost two rollouts per input, six per gradient at the
    # default control horizon of 3, so the bound holds only on the exact path
    evals = []
    inner = mpc.minimize

    def counting(*args, **kwargs):
        sol = inner(*args, **kwargs)
        evals.append(sol.objective_evaluations)
        return sol

    monkeypatch.setattr(mpc, "minimize", counting)
    config = dataclasses.replace(harness.default_config(), controller=controller)
    loop, x0, _ = harness.build_closed_loop(config)
    mpc.run_receding_horizon(x0, loop, 40)
    assert len(evals) == 40
    assert np.mean(evals[1:]) <= 10.0


def test_solve_step_matches_linear_quadratic_closed_form():
    # with the sine removed and a single horizon slot the program is a
    # one-dimensional convex quadratic with an interior optimum:
    #   u* = -Gamma'Q(Phi x - r) / (Gamma'Q Gamma + R)
    coeffs0 = dataclasses.replace(COEFFS, a3=0.0)
    cfg = mpc.MpcConfig(prediction_horizon=1, control_horizon=1)
    Phi, Gamma = rk4_transition(coeffs0, cfg.dt)
    x = np.array([0.1, 0.0, 0.05, 0.0])
    r = np.array([0.0, 0.0, 0.02, 0.0])
    Q = np.diag(cfg.state_weight)
    curvature = float(Gamma @ Q @ Gamma) + cfg.input_weight
    u_star = -float(Gamma @ Q @ (Phi @ x - r)) / curvature

    model = mpc.NominalPredictor(coeffs0, cfg.dt)
    ctrl = mpc.solve_step(model, x, r[None, :], cfg, np.zeros(1))
    # the solver stops at a 1e-4 stationarity residual; for a quadratic the
    # input error is bounded by residual / (2 * curvature)
    assert abs(ctrl.applied_input - u_star) <= (1e-4 + 1e-6) / (2.0 * curvature)


@st.composite
def linear_solve_cases(draw):
    """A state and a reference per slot with entries in +-20, and a warm
    start in +-6 V (clipped by solve_step), for the default horizons."""
    kp, kc = mpc.MpcConfig().prediction_horizon, mpc.MpcConfig().control_horizon
    entries = lambda size: np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=size, max_size=size)))
    warm = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=kc, max_size=kc)))
    return entries(4), entries(4 * kp).reshape(kp, 4), warm


@hyp_settings(max_examples=200, deadline=None)
@given(case=linear_solve_cases())
def test_linear_model_solve_takes_one_newton_step(case):
    # without the sine the rollout is linear in the inputs, so the
    # Gauss-Newton Hessian is the exact one of the quadratic program and
    # the first QP step, box included, lands on its minimizer: one
    # iteration and three rollouts (the warm start's, which is minimize's
    # first point, its one trial, final cost); a warm start that already
    # meets the tolerance takes none and one rollout fewer
    x, x_ref, warm = case
    cfg = mpc.MpcConfig()
    model = mpc.NominalPredictor(dataclasses.replace(COEFFS, a3=0.0), cfg.dt)
    solutions = []
    inner = mpc.minimize

    def recording(*args, **kwargs):
        solutions.append(inner(*args, **kwargs))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpc, "minimize", recording)
        ctrl = mpc.solve_step(model, x, x_ref, cfg, warm)
    (sol,) = solutions
    assert ctrl.solver_status == "converged"
    assert sol.iterations <= 1
    assert ctrl.evaluations == 2 + sol.iterations


def test_fuzzy_predictor_consistent_with_nominal_when_fitted():
    # a rollout evaluates the drift at intermediate integrator stages, which
    # overshoot the sampling box on fast transients; the fitted grid must
    # cover that envelope for the predictions to agree
    h = 0.05
    envelope = ((-4.0, 4.0), (-21.0, 21.0), (-4.0, 4.0), (-68.0, 68.0))
    grid = fz.build_rule_grid((3, 9, 7, 9), envelope)
    model = fz.fit_consequents_lsq(grid, true_drift, g_value=COEFFS.b2, n_samples=8000, seed=0)

    nominal = mpc.NominalPredictor(COEFFS, h)
    fitted = mpc.AdaptiveFuzzyPredictor(model, COEFFS, h)
    rng = np.random.default_rng(7)
    lo = np.array([-math.pi, -10.0, -math.pi, -10.0])
    X = rng.uniform(lo, -lo, size=(400, 4))
    U = rng.uniform(-5.0, 5.0, size=400)
    nom = np.stack([nominal.predict(x, float(u)) for x, u in zip(X, U)])
    fuz = np.stack([fitted.predict(x, float(u)) for x, u in zip(X, U)])
    rel = np.sqrt(np.mean(np.sum((fuz - nom) ** 2, axis=1))) / np.sqrt(
        np.mean(np.sum(nom**2, axis=1))
    )
    assert rel <= 0.01


def test_closed_loop_requires_dt_multiple():
    with pytest.raises(ValueError, match="multiple of plant_dt"):
        mpc.ClosedLoop(
            model=mpc.NominalPredictor(COEFFS, 0.05),
            config=mpc.MpcConfig(),
            true_coeffs=COEFFS,
            x_ref_fn=zero_ref,
            lyapunov_p=np.eye(4),
            plant_dt=3e-4,
        )


def test_closed_loop_rejects_zero_plant_dt():
    # raised ZeroDivisionError in the period-ratio check
    with pytest.raises(ValueError, match="plant_dt must be positive"):
        mpc.ClosedLoop(
            model=mpc.NominalPredictor(COEFFS, 0.05),
            config=mpc.MpcConfig(),
            true_coeffs=COEFFS,
            x_ref_fn=zero_ref,
            lyapunov_p=np.eye(4),
            plant_dt=0.0,
        )


def test_closed_loop_rejects_nan_plant_dt():
    # raised "cannot convert float NaN to integer" in round()
    with pytest.raises(ValueError, match="plant_dt must be positive"):
        mpc.ClosedLoop(
            model=mpc.NominalPredictor(COEFFS, 0.05),
            config=mpc.MpcConfig(),
            true_coeffs=COEFFS,
            x_ref_fn=zero_ref,
            lyapunov_p=np.eye(4),
            plant_dt=math.nan,
        )


@pytest.mark.parametrize(
    "gain, theta_bound, match",
    [
        (-1.0, 1e6, "gain must be non-negative"),
        (math.nan, 1e6, "gain must be non-negative"),
        (1.0, 0.0, "theta_bound must be positive"),
        (1.0, math.nan, "theta_bound must be positive"),
    ],
)
def test_adaptation_loop_rejects_bad_settings(gain, theta_bound, match):
    # was accepted: a negative gain drives theta up the Lyapunov gradient,
    # and a NaN gain or bound raised ParameterBlowupError on the first step
    with pytest.raises(ValueError, match=match):
        mpc.AdaptationLoop(gain=gain, theta_bound=theta_bound)


def test_closed_loop_rejects_predictor_of_another_period():
    # was accepted, and every rollout then spanned the wrong horizon
    with pytest.raises(ValueError, match=r"model\.dt 0\.1 differs from config\.dt 0\.05"):
        mpc.ClosedLoop(
            model=mpc.NominalPredictor(COEFFS, 0.1),
            config=mpc.MpcConfig(),
            true_coeffs=COEFFS,
            x_ref_fn=zero_ref,
            lyapunov_p=np.eye(4),
        )


def test_run_receding_horizon_rejects_zero_steps():
    loop = mpc.ClosedLoop(
        model=mpc.NominalPredictor(COEFFS, 0.05),
        config=mpc.MpcConfig(),
        true_coeffs=COEFFS,
        x_ref_fn=zero_ref,
        lyapunov_p=np.eye(4),
    )
    with pytest.raises(ValueError, match="steps must be at least 1"):
        mpc.run_receding_horizon(np.zeros(4), loop, 0)


def test_closed_loop_log_structure_and_regulation():
    cfg = mpc.MpcConfig()
    loop = mpc.ClosedLoop(
        model=mpc.NominalPredictor(COEFFS, cfg.dt),
        config=cfg,
        true_coeffs=COEFFS,
        x_ref_fn=zero_ref,
        lyapunov_p=np.eye(4),
    )
    x0 = np.array([0.0, 0.0, 0.3, 0.0])
    log = mpc.run_receding_horizon(x0, loop, 40)
    assert len(log) == 40
    assert not log.diverged
    assert log.final_fuzzy is None
    np.testing.assert_allclose(np.diff(log.t), cfg.dt)
    assert np.array_equal(log.states[0], x0)
    np.testing.assert_array_equal(log.y_ref, np.zeros(40))
    np.testing.assert_allclose(log.e, -log.states[:, 2], atol=1e-15)
    assert np.all(log.w_diag == 0.0)
    assert np.all(np.abs(log.u) <= cfg.input_bound + 1e-12)
    assert np.all(log.V >= 0.0)
    # V uses the full 4-state error with the supplied matrix
    expect_v = 0.5 * np.sum(log.states**2, axis=1)
    np.testing.assert_allclose(log.V, expect_v, rtol=1e-12)
    assert set(log.solver_status) <= {"converged", "max_iter", "stalled", "fallback"}
    assert log.evaluations.dtype.kind == "i" and np.all(log.evaluations >= 2)
    # the pendulum offset must be regulated away, not just logged
    assert abs(log.states[-1, 2]) < 0.05


def test_closed_loop_flags_plant_divergence():
    # dt far beyond the integrator stability limit blows the state up
    cfg = mpc.MpcConfig(dt=2.0)
    loop = mpc.ClosedLoop(
        model=mpc.NominalPredictor(COEFFS, cfg.dt),
        config=cfg,
        true_coeffs=COEFFS,
        x_ref_fn=zero_ref,
        lyapunov_p=np.eye(4),
        plant_dt=2.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        log = mpc.run_receding_horizon(np.array([0.0, 1.0, 0.0, 0.0]), loop, 60)
    assert log.diverged
    assert 0 < len(log) < 60
    assert np.all(np.isfinite(log.t))


def test_closed_loop_flags_parameter_blowup():
    cfg = mpc.MpcConfig()
    grid = fz.build_rule_grid((3, 3, 3, 3), WIDE_RANGES)
    adaptation = mpc.AdaptationLoop(gain=1.0, theta_bound=1e-12)
    loop = mpc.ClosedLoop(
        model=mpc.AdaptiveFuzzyPredictor(grid, COEFFS, cfg.dt),
        config=cfg,
        true_coeffs=COEFFS,
        x_ref_fn=zero_ref,
        lyapunov_p=np.eye(4),
        adaptation=adaptation,
    )
    log = mpc.run_receding_horizon(np.array([0.0, 0.0, 0.5, 0.0]), loop, 5)
    assert log.diverged
    assert len(log) == 1
    assert log.final_fuzzy is not None


def adaptive_loop(cfg: mpc.MpcConfig, gain: float, plant_dt: float = 1e-3) -> mpc.ClosedLoop:
    grid = fz.build_rule_grid((3, 3, 3, 3), WIDE_RANGES)
    model = fz.fit_consequents_lsq(grid, true_drift, g_value=COEFFS.b2, n_samples=2000, seed=0)
    return mpc.ClosedLoop(
        model=mpc.AdaptiveFuzzyPredictor(model, COEFFS, cfg.dt),
        config=cfg,
        true_coeffs=COEFFS,
        x_ref_fn=zero_ref,
        lyapunov_p=np.eye(4),
        plant_dt=plant_dt,
        adaptation=mpc.AdaptationLoop(gain=gain, theta_bound=1e6),
    )


@hyp_settings(max_examples=12, deadline=None)
@given(
    adaptive=st.booleans(),
    dt=st.floats(2.0, 3.0),
    gain=st.sampled_from([0.0, 1e-12, 1.0]),
    arm_velocity=st.floats(0.01, 1.0),
)
# gain 0 on the adaptive loop: the state overflows x*x in the fuzzy basis
# inside the sub-step adaptation, a DegenerateFiringError
@example(adaptive=True, dt=2.0, gain=0.0, arm_velocity=1.0)
def test_runtime_divergence_ends_the_log_without_raising(adaptive, dt, gain, arm_velocity):
    cfg = mpc.MpcConfig(dt=dt)
    if adaptive:
        loop = adaptive_loop(cfg, gain, plant_dt=dt)
    else:
        loop = mpc.ClosedLoop(
            model=mpc.NominalPredictor(COEFFS, dt),
            config=cfg,
            true_coeffs=COEFFS,
            x_ref_fn=zero_ref,
            lyapunov_p=np.eye(4),
            plant_dt=dt,
        )
    steps = 60
    with np.errstate(over="ignore", invalid="ignore"):
        log = mpc.run_receding_horizon(np.array([0.0, arm_velocity, 0.0, 0.0]), loop, steps)
    assert log.diverged
    assert 0 < len(log) < steps
    assert np.all(np.isfinite(log.t))


def test_adaptive_loop_runs_twice_identically():
    # the run adapts a model of its own; the loop it is given stays as built
    loop = adaptive_loop(mpc.MpcConfig(), gain=32.0)
    theta_f = loop.model.fuzzy.theta_f.copy()
    x0 = np.array([0.0, 0.0, 0.2, 0.0])
    first = mpc.run_receding_horizon(x0, loop, 20)
    second = mpc.run_receding_horizon(x0, loop, 20)
    assert np.array_equal(loop.model.fuzzy.theta_f, theta_f)
    assert not np.array_equal(first.final_fuzzy.theta_f, theta_f)
    for name in ("states", "u", "V", "w_diag", "predicted_cost"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert first.solver_status == second.solver_status
    assert np.array_equal(first.final_fuzzy.theta_f, second.final_fuzzy.theta_f)
    assert np.array_equal(first.final_fuzzy.theta_g, second.final_fuzzy.theta_g)


def test_closed_loop_adaptation_needs_fuzzy_predictor():
    with pytest.raises(ValueError, match="AdaptiveFuzzyPredictor"):
        mpc.ClosedLoop(
            model=mpc.NominalPredictor(COEFFS, 0.05),
            config=mpc.MpcConfig(),
            true_coeffs=COEFFS,
            x_ref_fn=zero_ref,
            lyapunov_p=np.eye(4),
            adaptation=mpc.AdaptationLoop(gain=1.0, theta_bound=1e6),
        )


def test_adaptation_disabled_at_zero_gain():
    loop = adaptive_loop(mpc.MpcConfig(), gain=0.0)
    model = loop.model.fuzzy
    log = mpc.run_receding_horizon(np.array([0.0, 0.0, 0.2, 0.0]), loop, 10)
    assert not log.diverged
    assert log.final_fuzzy is not None
    # zero gain must leave every consequent bit-identical
    assert np.array_equal(log.final_fuzzy.theta_f, model.theta_f)
    assert np.array_equal(log.final_fuzzy.theta_g, model.theta_g)
    # the model-mismatch diagnostic still reports the residual fit error
    assert np.any(log.w_diag != 0.0)


def test_predicted_disturbances_feed_forward_known_kinds():
    kp, dt, t = 4, 0.05, 0.3
    assert np.all(mpc._predicted_disturbances(None, t, kp, dt) == 0.0)
    noise = DisturbanceSpec(kind="band_limited_noise", amplitude=1.0, seed=2)
    assert np.all(mpc._predicted_disturbances(noise, t, kp, dt) == 0.0)
    sine = DisturbanceSpec(kind="sinusoid", amplitude=0.5, frequency=1.3)
    got = mpc._predicted_disturbances(sine, t, kp, dt)
    expect = [disturbance_value(sine, t + (p + 1) * dt) for p in range(kp)]
    np.testing.assert_allclose(got, expect, rtol=1e-15)
    const = DisturbanceSpec(kind="constant", amplitude=0.7)
    np.testing.assert_allclose(mpc._predicted_disturbances(const, t, kp, dt), 0.7)
