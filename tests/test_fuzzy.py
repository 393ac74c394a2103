"""Tests for the fuzzy approximator: membership, basis, and adaptation."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from afmpc.fuzzy import (
    DegenerateFiringError,
    FuzzyModel,
    GaussianMF,
    ParameterBlowupError,
    adapt,
    basis,
    basis_matrix,
    build_rule_grid,
    f_hat,
    fit_consequents_lsq,
    g_hat,
    membership,
)

UNIT_RANGES = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))


def two_rule_model() -> FuzzyModel:
    # two MFs on the first state, singletons elsewhere
    return build_rule_grid((2, 1, 1, 1), UNIT_RANGES)


def test_membership_basic_values():
    mf = GaussianMF(center=0.3, width=0.7)
    assert membership(mf, 0.3) == 1.0
    got = membership(mf, 0.3 + 0.7)
    assert got == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert got == pytest.approx(0.6065306597126334, rel=1e-12)
    assert membership(mf, 0.3 - 0.7) == pytest.approx(got, rel=1e-12)


def test_membership_width_validation():
    with pytest.raises(ValueError):
        GaussianMF(center=0.0, width=0.0)
    with pytest.raises(ValueError):
        GaussianMF(center=0.0, width=-1.0)


def test_membership_rejects_nan_width():
    # NaN fails every comparison; it passed the old width <= 0 guard
    with pytest.raises(ValueError, match="membership width must be positive"):
        GaussianMF(center=0.0, width=math.nan)


def test_basis_singleton_grid():
    model = build_rule_grid((1, 1, 1, 1), UNIT_RANGES)
    np.testing.assert_allclose(basis(model, np.zeros(4)), [1.0])


def test_basis_two_term_hand_evaluation():
    model = two_rule_model()
    centers = [m.center for m in model.mfs[0]]
    width = model.mfs[0][0].width
    X = np.array([centers[0], 0.0, 0.0, 0.0])
    delta = centers[1] - centers[0]
    raw = np.array([1.0, math.exp(-0.5 * (delta / width) ** 2)])
    np.testing.assert_allclose(basis(model, X), raw / raw.sum(), rtol=1e-12)


def test_basis_sum_and_nonnegativity_random_states():
    model = build_rule_grid(
        (3, 2, 3, 2), ((-math.pi, math.pi), (-8.0, 8.0), (-1.5, 1.5), (-8.0, 8.0))
    )
    rng = np.random.default_rng(5)
    X = rng.uniform(-10.0, 10.0, size=(10_000, 4))
    E = basis_matrix(model, X)
    assert np.all(E >= 0.0)
    np.testing.assert_allclose(E.sum(axis=1), 1.0, atol=1e-12)
    # row-by-row evaluation agrees with the batch path
    for i in range(0, 10_000, 2500):
        np.testing.assert_allclose(E[i], basis(model, X[i]), atol=1e-13)


def test_basis_far_outside_ranges_stays_normalized():
    model = build_rule_grid((3, 3, 3, 3), UNIT_RANGES)
    eps = basis(model, np.array([1e6, -1e6, 1e6, -1e6]))
    assert np.all(np.isfinite(eps))
    assert eps.sum() == pytest.approx(1.0, abs=1e-12)


@st.composite
def rule_grids(draw):
    """1-5 memberships per state over ranges centred on 0, like the
    configured grids."""
    counts = tuple(draw(st.integers(1, 5)) for _ in range(4))
    halves = [draw(st.floats(0.5, 10.0)) for _ in range(4)]
    return build_rule_grid(counts, tuple((-h, h) for h in halves))


def states(bound):
    return st.lists(st.floats(-bound, bound), min_size=4, max_size=4).map(np.array)


def direct_basis(model, x):
    """Reference: normalized product of the membership degrees."""
    degrees = [[membership(m, xi) for m in group] for group, xi in zip(model.mfs, x)]
    raw = functools.reduce(np.multiply.outer, degrees).ravel()
    return raw / raw.sum()


@hyp_settings(max_examples=200, deadline=None)
@given(model=rule_grids(), x=states(1e6))
def test_basis_normalized_at_any_state(model, x):
    for eps in (basis(model, x), basis_matrix(model, x[None, :])[0]):
        assert np.all(eps >= 0.0)
        assert abs(eps.sum() - 1.0) <= 1e-12


@hyp_settings(max_examples=200, deadline=None)
@given(model=rule_grids(), units=st.lists(states(10.0), min_size=1, max_size=8))
def test_basis_matrix_rows_equal_basis(model, units):
    # batch and single share one expansion, whose cancellation grows as
    # |x|^2 (up to 6e-11 apart at |x| ~ 1e3 on 625 rules); within 10x the
    # ranges it stays below 1e-12
    X = np.array(units) * np.array([hi for _, hi in model.state_ranges])
    E = basis_matrix(model, X)
    for x, row in zip(X, E):
        np.testing.assert_allclose(row, basis(model, x), rtol=0.0, atol=1e-12)
    # inside the ranges the expansion agrees with the direct form
    for x, row in zip(X / 10.0, basis_matrix(model, X / 10.0)):
        np.testing.assert_allclose(row, direct_basis(model, x), rtol=0.0, atol=1e-12)


WIDE = ((-math.pi, math.pi), (-8.0, 8.0), (-1.5, 1.5), (-8.0, 8.0))


def test_basis_same_bits_for_list_tuple_and_array_input():
    model = build_rule_grid((3, 3, 3, 3), WIDE)
    rng = np.random.default_rng(41)
    for x in rng.uniform(-10.0, 10.0, size=(50, 4)):
        ref = basis(model, x)
        assert np.array_equal(basis(model, x.tolist()), ref)
        assert np.array_equal(basis(model, tuple(x.tolist())), ref)


def test_basis_interleaved_models_match_separate_evaluation():
    # an evaluation writes nothing to its model, and each result is a
    # fresh array that a later evaluation leaves alone
    a = build_rule_grid((3, 3, 3, 3), WIDE)
    b = build_rule_grid((2, 3, 4, 5), UNIT_RANGES)
    # a clone shares the rule grid with the model it came from
    a2 = a._replace_thetas(a.theta_f + 1.0, a.theta_g)
    xs = np.random.default_rng(43).uniform(-2.0, 2.0, size=(20, 4))
    apart = [[basis(m, x).copy() for x in xs] for m in (a, b, a2)]
    together = [[], [], []]
    for x in xs:
        for i, m in enumerate((a, b, a2)):
            together[i].append(basis(m, x))
    for sep, mixed in zip(apart, together):
        for v, w in zip(sep, mixed):
            assert np.array_equal(v, w)


# 1e200 is finite, but its square overflows
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
@pytest.mark.parametrize("slot", range(4))
def test_basis_non_finite_state_raises_degenerate_firing(bad, slot):
    model = build_rule_grid((3, 3, 3, 3), WIDE)
    x = [0.1, -0.2, 0.3, -0.4]
    x[slot] = bad
    message = "rule firing strengths are not finite at state"
    batch = np.zeros((5, 4))
    batch[3] = x
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DegenerateFiringError, match=message):
            basis(model, x)
        with pytest.raises(DegenerateFiringError, match=message):
            basis(model, np.array(x))
        # one non-finite row fails the whole batch, and the error names it
        with pytest.raises(DegenerateFiringError, match=f"{message} .*, row 3$"):
            basis_matrix(model, batch)


def test_rule_order_is_lexicographic_with_last_state_fastest():
    model = build_rule_grid((2, 1, 1, 2), UNIT_RANGES)
    mf1 = model.mfs[0]
    mf4 = model.mfs[3]
    X = np.array([-0.3, 0.0, 0.0, 0.6])
    m1 = [membership(m, X[0]) for m in mf1]
    m4 = [membership(m, X[3]) for m in mf4]
    mid = membership(model.mfs[1][0], 0.0) * membership(model.mfs[2][0], 0.0)
    raw = np.array([m1[0] * m4[0], m1[0] * m4[1], m1[1] * m4[0], m1[1] * m4[1]]) * mid
    np.testing.assert_allclose(basis(model, X), raw / raw.sum(), rtol=1e-12)


def test_f_hat_constant_and_dot_product():
    model = two_rule_model()
    assert f_hat(model, np.zeros(4)) == 0.0
    model5 = model._replace_thetas(np.full(2, 5.0), model.theta_g)
    for x1 in (-0.9, 0.0, 2.3):
        assert f_hat(model5, np.array([x1, 0.0, 0.0, 0.0])) == pytest.approx(5.0)
    # state placed so the two rules fire with weights (0.25, 0.75)
    grid = build_rule_grid((2, 1, 1, 1), ((0.0, 1.0), (-1, 1), (-1, 1), (-1, 1)))
    w = grid.mfs[0][0].width
    x_star = math.log(3.0) * w * w + 0.5
    model13 = grid._replace_thetas(np.array([1.0, 3.0]), grid.theta_g)
    eps = basis(model13, np.array([x_star, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(eps, [0.25, 0.75], rtol=1e-12)
    assert f_hat(model13, np.array([x_star, 0.0, 0.0, 0.0])) == pytest.approx(2.5)


def test_f_hat_convex_combination_bound():
    model = build_rule_grid((3, 2, 2, 3), UNIT_RANGES)
    rng = np.random.default_rng(11)
    theta = rng.normal(scale=10.0, size=model.n_rules)
    model = model._replace_thetas(theta, model.theta_g)
    for _ in range(200):
        X = rng.uniform(-3.0, 3.0, size=4)
        val = f_hat(model, X)
        assert theta.min() - 1e-12 <= val <= theta.max() + 1e-12


def test_g_hat_floor_clamp():
    model = two_rule_model()
    low = model._replace_thetas(model.theta_f, np.full(2, -40.0))
    assert g_hat(low, np.zeros(4)) == pytest.approx(model.g_floor)
    high = model._replace_thetas(model.theta_f, np.full(2, 7.0))
    assert g_hat(high, np.zeros(4)) == pytest.approx(7.0)


def test_adapt_direct_formula():
    model = two_rule_model()
    X = np.zeros(4)  # midway between the two centers: basis = (1/2, 1/2)
    np.testing.assert_allclose(basis(model, X), [0.5, 0.5], rtol=1e-12)
    e = np.array([0.0, 0.0, 0.0, 2.0])
    P = np.eye(4)
    b = np.array([0.0, 0.0, 0.0, 1.0])
    out = adapt(model, e, P @ b, X, u=1.0, dt=1.0, gain=1.0, theta_bound=1e6)
    np.testing.assert_allclose(out.theta_f, [-1.0, -1.0], rtol=1e-12)
    np.testing.assert_allclose(out.theta_g, [-1.0, -1.0], rtol=1e-12)
    # input model untouched (value semantics)
    np.testing.assert_allclose(model.theta_f, 0.0)


def test_adapt_zero_error_and_zero_input():
    model = two_rule_model()
    X = np.array([0.3, 0.0, 0.0, 0.0])
    same = adapt(model, np.zeros(4), np.array([0, 0, 0, 1.0]), X, u=1.0, dt=0.01, gain=1.0, theta_bound=1e6)
    np.testing.assert_allclose(same.theta_f, model.theta_f)
    np.testing.assert_allclose(same.theta_g, model.theta_g)
    e = np.array([0.0, 0.0, 1.0, 1.0])
    out = adapt(model, e, np.array([0, 0, 0, 1.0]), X, u=0.0, dt=0.01, gain=1.0, theta_bound=1e6)
    assert np.any(out.theta_f != model.theta_f)
    np.testing.assert_allclose(out.theta_g, model.theta_g)


def test_adapt_gradient_cancellation_property():
    # the parameter-error derivative cancels the adaptation drive exactly:
    # (theta - theta*) . (dtheta/dt + (e.Pb) eps) == 0
    rng = np.random.default_rng(17)
    model = build_rule_grid((3, 2, 2, 2), UNIT_RANGES)
    for _ in range(25):
        theta = rng.normal(size=model.n_rules)
        m = model._replace_thetas(theta, theta.copy())
        e = rng.normal(size=4)
        W = rng.normal(size=(4, 4))
        P = W @ W.T + np.eye(4)
        b = rng.normal(size=4)
        X = rng.uniform(-1.5, 1.5, size=4)
        u = rng.normal()
        dt = 10 ** rng.uniform(-4, -1)
        out = adapt(m, e, P @ b, X, u, dt, gain=1.0, theta_bound=1e6)
        s = float(e @ P @ b)
        eps = basis(m, X)
        theta_star = rng.normal(size=model.n_rules)
        residual_f = (theta - theta_star) @ ((out.theta_f - theta) / dt + s * eps)
        residual_g = (theta - theta_star) @ ((out.theta_g - theta) / dt + s * eps * u)
        scale = max(1.0, abs(s)) * np.linalg.norm(theta - theta_star)
        assert abs(residual_f) <= 1e-9 * scale
        assert abs(residual_g) <= 1e-9 * scale


def test_adapt_parameter_blowup_guard():
    model = two_rule_model()
    e = np.array([0.0, 0.0, 0.0, 1e5])
    with pytest.raises(ParameterBlowupError):
        adapt(
            model, e, np.array([0, 0, 0, 1.0]),
            np.zeros(4), u=1.0, dt=1.0, gain=1e3, theta_bound=1e6,
        )


@pytest.mark.parametrize("e4, u", [(math.nan, 1.0), (1.0, math.nan)])
def test_adapt_rejects_a_nan_step(e4, u):
    # a NaN error makes every theta NaN, a NaN input every theta_g; NaN
    # fails the bound test, so neither model may be returned
    model = two_rule_model()
    with pytest.raises(ParameterBlowupError, match="nan"):
        adapt(
            model, np.array([0.0, 0.0, 0.0, e4]), np.array([0, 0, 0, 1.0]),
            np.zeros(4), u=u, dt=0.01, gain=1.0, theta_bound=1e6,
        )


def test_adapt_validation():
    model = two_rule_model()
    with pytest.raises(ValueError):
        adapt(model, np.zeros(4), np.zeros(4), np.zeros(4), 0.0, dt=0.0, gain=1.0, theta_bound=1e6)


def test_adapt_rejects_nan_dt():
    # a NaN dt made every theta NaN and raised ParameterBlowupError for a
    # blow-up that never happened
    model = two_rule_model()
    with pytest.raises(ValueError, match="dt must be positive"):
        adapt(
            model, np.ones(4), np.ones(4), np.zeros(4), 1.0,
            dt=math.nan, gain=1.0, theta_bound=1e6,
        )


def test_build_rule_grid_sizes():
    assert build_rule_grid((1, 1, 1, 1), UNIT_RANGES).n_rules == 1
    assert build_rule_grid((3, 3, 3, 3), UNIT_RANGES).n_rules == 81
    assert build_rule_grid((5, 5, 5, 5), UNIT_RANGES).n_rules == 625
    assert build_rule_grid((2, 3, 4, 5), UNIT_RANGES).n_rules == 120


def test_build_rule_grid_geometry():
    model = build_rule_grid((3, 1, 2, 1), ((-2.0, 2.0), (-1.0, 3.0), (0.0, 1.0), (-1.0, 1.0)))
    centers = [m.center for m in model.mfs[0]]
    np.testing.assert_allclose(centers, [-2.0, 0.0, 2.0])
    assert model.mfs[0][0].width == pytest.approx(2.0 / math.sqrt(2.0))
    # adjacent memberships cross at exp(-1/4)
    mid = 0.5 * (centers[0] + centers[1])
    assert membership(model.mfs[0][0], mid) == pytest.approx(math.exp(-0.25), rel=1e-12)
    # single-MF state: center at midrange, width covering the half-range
    assert model.mfs[1][0].center == pytest.approx(1.0)
    assert model.mfs[1][0].width == pytest.approx(2.0)


def test_build_rule_grid_validation():
    with pytest.raises(ValueError):
        build_rule_grid((0, 1, 1, 1), UNIT_RANGES)
    with pytest.raises(ValueError):
        build_rule_grid((2, 2, 2, 2), ((1.0, -1.0), (-1, 1), (-1, 1), (-1, 1)))


def test_g_floor_rejects_nan():
    # a NaN floor passed the old g_floor <= 0 guard, and g_hat's max() then
    # never clamped
    with pytest.raises(ValueError, match="g_floor must be positive"):
        build_rule_grid((1, 1, 1, 1), UNIT_RANGES, g_floor=math.nan)
    with pytest.raises(ValueError, match="g_floor must be positive"):
        FuzzyModel(
            mfs=[[GaussianMF(0.0, 1.0)]] * 4,
            theta_f=np.zeros(1),
            theta_g=np.zeros(1),
            g_floor=math.nan,
        )


def test_theta_length_validation():
    with pytest.raises(ValueError):
        FuzzyModel(
            mfs=[[GaussianMF(0.0, 1.0)]] * 4,
            theta_f=np.zeros(2),
            theta_g=np.zeros(2),
        )
    # basis unpacks exactly 4 state components
    with pytest.raises(ValueError, match="4 states, got 3"):
        FuzzyModel(mfs=[[GaussianMF(0.0, 1.0)]] * 3, theta_f=np.zeros(1), theta_g=np.zeros(1))


def test_fit_consequents_rejects_no_samples():
    # returned theta_f = 0 from an all-zero E^T E, as if that were the fit
    model = build_rule_grid((2, 1, 1, 1), UNIT_RANGES)
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        fit_consequents_lsq(model, lambda X: X[:, 0], n_samples=0, seed=0)


def test_fit_consequents_recovers_representable_target():
    model = build_rule_grid((3, 2, 2, 2), UNIT_RANGES)
    rng = np.random.default_rng(23)
    theta_star = rng.normal(scale=5.0, size=model.n_rules)
    truth = model._replace_thetas(theta_star, model.theta_g)

    def target(batch):
        return basis_matrix(truth, batch) @ theta_star

    fitted = fit_consequents_lsq(model, target, g_value=142.0, n_samples=2000, seed=3)
    X = rng.uniform(-1.0, 1.0, size=(500, 4))
    got = basis_matrix(fitted, X) @ fitted.theta_f
    np.testing.assert_allclose(got, target(X), atol=1e-6)
    # uniform theta_g makes g_hat exactly the requested constant
    for i in range(0, 500, 100):
        assert g_hat(fitted, X[i]) == pytest.approx(142.0, rel=1e-12)


@st.composite
def fit_problems(draw):
    """A 1-4 membership grid, a sample count from 1 to 3x its rule count
    (rank-deficient below the rule count) and a smooth target's weights."""
    counts = tuple(draw(st.integers(1, 4)) for _ in range(4))
    halves = [draw(st.floats(0.5, 10.0)) for _ in range(4)]
    model = build_rule_grid(counts, tuple((-h, h) for h in halves))
    n_samples = draw(st.integers(1, 3 * model.n_rules))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)))
    return model, n_samples, seed, weights


@hyp_settings(max_examples=150, deadline=None)
@given(problem=fit_problems())
def test_fit_consequents_matches_svd_least_squares(problem):
    model, n_samples, seed, weights = problem
    batches = []

    def target(batch):
        batches.append(batch)
        return np.sin(batch @ weights) + batch[:, 0] * batch[:, 3]

    theta = fit_consequents_lsq(model, target, n_samples=n_samples, seed=seed).theta_f
    (X,) = batches
    E = basis_matrix(model, X)
    t = target(X)
    # reference: the SVD least-squares solution of E itself
    theta_ref, *_ = np.linalg.lstsq(E, t, rcond=None)
    assert np.all(np.isfinite(theta))
    residual = np.linalg.norm(E @ theta - t)
    residual_ref = np.linalg.norm(E @ theta_ref - t)
    assert residual <= residual_ref * (1.0 + 1e-9) + 1e-12 * np.linalg.norm(t)
    if n_samples >= 3 * model.n_rules:
        assert np.linalg.norm(theta - theta_ref) <= 1e-8 * np.linalg.norm(theta_ref)
