"""Tests for the fuzzy approximator: memberships, basis, and adaptation."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

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
)
from afmpc.mpc import AdaptiveFuzzyPredictor, ClosedLoop, MpcConfig
from afmpc.plant import PlantParams, derive_coefficients

UNIT_RANGES = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))


def degree(mf: GaussianMF, x: float) -> float:
    """Reference Gaussian membership degree exp(-((x - c) / w)^2 / 2)."""
    z = (x - mf.center) / mf.width
    return math.exp(-0.5 * z * z)


def two_rule_model() -> FuzzyModel:
    # two MFs on the first state, singletons elsewhere
    return build_rule_grid((2, 1, 1, 1), UNIT_RANGES)


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


def log_strengths(model, x):
    """Reference log firing strengths: the sums of the log membership
    degrees, -((x - c) / w)^2 / 2, from the distances themselves."""
    logs = [
        [-0.5 * ((xi - m.center) / m.width) ** 2 for m in group]
        for group, xi in zip(model.mfs, x)
    ]
    return functools.reduce(np.add.outer, logs).ravel()


def direct_basis(model, x):
    """Reference: normalized product of the membership degrees, formed from
    their logs and shifted by the largest, so that it holds at states where
    every degree underflows too."""
    s = log_strengths(model, x)
    raw = np.exp(s - s.max())
    return raw / raw.sum()


def test_direct_basis_is_the_product_of_the_memberships():
    model = build_rule_grid((3, 2, 3, 2), WIDE)
    for x in np.random.default_rng(7).uniform(-4.0, 4.0, size=(20, 4)):
        degrees = [[degree(m, xi) for m in group] for group, xi in zip(model.mfs, x)]
        raw = functools.reduce(np.multiply.outer, degrees).ravel()
        np.testing.assert_allclose(direct_basis(model, x), raw / raw.sum(), rtol=1e-12, atol=0.0)


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

# basis takes the max-shifted form where the unshifted strengths sum below
# 1e-150, that is, from about 26 widths beyond the nearest rule; scaled
# from a tenth of the ranges to 40 times them, every ray of rule_grids
# starts inside and ends past that point (the closest case, 2 memberships
# per state along (1, 1, 1, 1) / 2, ends at a log sum of -361 against
# log(1e-150) = -345), and the expansion's cancellation, which grows as
# |x|^2, stays below 1e-12 there
SCALES = np.geomspace(0.1, 40.0, 30)
LOG_SHIFT_BELOW = math.log(1e-150)

directions = (
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) >= 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)


@hyp_settings(max_examples=200, deadline=None)
@given(
    model=rule_grids(),
    direction=directions,
    bad=st.sampled_from([math.nan, math.inf, -math.inf, 1e200]),
    slot=st.integers(0, 3),
    at=st.integers(0, len(SCALES) - 1),
)
def test_basis_matches_the_direct_form_on_both_sides_of_the_shift(model, direction, bad, slot, at):
    X = SCALES[:, None] * direction * np.array([hi for _, hi in model.state_ranges])
    totals = [np.logaddexp.reduce(log_strengths(model, x)) for x in X]
    assert totals[0] > LOG_SHIFT_BELOW > totals[-1]
    # the batch holds rows on both sides, so its far rows take the
    # row-wise shifted form while the rest stay unshifted
    E = basis_matrix(model, X)
    for x, row, total in zip(X, E, totals):
        ref = direct_basis(model, x)
        np.testing.assert_allclose(basis(model, x), ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(row, ref, rtol=0.0, atol=1e-12)
        # a far row is basis's own result, bit for bit (the margin keeps
        # rows whose sum rounds to either side of the shift out of it)
        if total < LOG_SHIFT_BELOW - 1e-9:
            assert np.array_equal(row, basis(model, x))
    # a non-finite row among in-range and far ones fails the batch, and
    # the error names the first such row
    mixed = X.copy()
    mixed[at, slot] = bad
    mixed[-1, slot] = math.nan
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DegenerateFiringError, match=f", row {at}$"):
            basis_matrix(model, mixed)


def matmul_basis(model, x):
    """Reference: basis spelled with @ in place of ndarray.dot, both
    branches; the same BLAS routine gives the same bits."""
    x1, x2, x3, x4 = x
    v = np.array([x1 * x1, x2 * x2, x3 * x3, x4 * x4, x1, x2, x3, x4, 1.0])
    w = np.exp(model._s_coef @ v)
    total = np.add.reduce(w)
    if not total >= 1e-150:
        s = model._s_coef @ v
        w = np.exp(s - s[s.argmax()])
        total = np.add.reduce(w)
    return w / total


GRID81 = build_rule_grid((3, 3, 3, 3), WIDE)
GRID625 = build_rule_grid((5, 5, 5, 5), WIDE)
DIAGONAL = np.full(4, 0.5)


@hyp_settings(max_examples=200, deadline=None)
@given(
    model=st.one_of(st.sampled_from([GRID81, GRID625]), rule_grids()),
    direction=directions,
    at=st.integers(0, len(SCALES) - 1),
)
@example(model=GRID81, direction=DIAGONAL, at=0)
@example(model=GRID81, direction=DIAGONAL, at=len(SCALES) - 1)
@example(model=GRID625, direction=DIAGONAL, at=0)
@example(model=GRID625, direction=DIAGONAL, at=len(SCALES) - 1)
def test_basis_same_bits_as_the_matmul_spelling(model, direction, at):
    # the first scale is inside the ranges and the last past the shift
    x = SCALES[at] * direction * np.array([hi for _, hi in model.state_ranges])
    assert np.array_equal(basis(model, x), matmul_basis(model, x))


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
        with pytest.raises(DegenerateFiringError, match=message) as single:
            basis(model, x)
        with pytest.raises(DegenerateFiringError, match=message):
            basis(model, np.array(x))
        # one non-finite row fails the whole batch, and the error is
        # basis's own with the row named
        with pytest.raises(DegenerateFiringError, match=f"{message} .*, row 3$") as batched:
            basis_matrix(model, batch)
    assert str(batched.value) == f"{single.value}, row 3"


def test_rule_order_is_lexicographic_with_last_state_fastest():
    model = build_rule_grid((2, 1, 1, 2), UNIT_RANGES)
    mf1 = model.mfs[0]
    mf4 = model.mfs[3]
    X = np.array([-0.3, 0.0, 0.0, 0.6])
    m1 = [degree(m, X[0]) for m in mf1]
    m4 = [degree(m, X[3]) for m in mf4]
    mid = degree(model.mfs[1][0], 0.0) * degree(model.mfs[2][0], 0.0)
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
    k = 1.0 * 1.0 * float(e @ (P @ b))  # dt * gain * (e . P b)
    out = adapt(model, k, X, 1.0, theta_bound=1e6)
    np.testing.assert_allclose(out.theta_f, [-1.0, -1.0], rtol=1e-12)
    np.testing.assert_allclose(out.theta_g, [-1.0, -1.0], rtol=1e-12)
    # input model untouched (value semantics)
    np.testing.assert_allclose(model.theta_f, 0.0)


def test_adapt_zero_error_and_zero_input():
    model = two_rule_model()
    X = np.array([0.3, 0.0, 0.0, 0.0])
    same = adapt(model, 0.0, X, 1.0, theta_bound=1e6)
    np.testing.assert_allclose(same.theta_f, model.theta_f)
    np.testing.assert_allclose(same.theta_g, model.theta_g)
    e = np.array([0.0, 0.0, 1.0, 1.0])
    k = 0.01 * 1.0 * float(e @ np.array([0, 0, 0, 1.0]))
    out = adapt(model, k, X, 0.0, theta_bound=1e6)
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
        s = float(e @ P @ b)
        out = adapt(m, dt * 1.0 * s, X, u, theta_bound=1e6)
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
    k = 1.0 * 1e3 * float(e @ np.array([0, 0, 0, 1.0]))
    with pytest.raises(ParameterBlowupError):
        adapt(model, k, np.zeros(4), 1.0, theta_bound=1e6)


@pytest.mark.parametrize("k, v", [(math.nan, 1.0), (1.0, math.nan)])
def test_adapt_rejects_a_nan_step(k, v):
    # a NaN drive makes every theta NaN, a NaN input every theta_g; NaN
    # fails the bound test, so neither model may be returned
    model = two_rule_model()
    with pytest.raises(ParameterBlowupError, match="nan"):
        adapt(model, k, np.zeros(4), v, theta_bound=1e6)


def adapting_loop(plant_dt: float):
    """A closed loop that adapts two_rule_model at the step plant_dt:
    fz.adapt takes no dt, so the closed loop checks the adaptation's step."""
    coeffs = derive_coefficients(PlantParams())
    return ClosedLoop(
        model=AdaptiveFuzzyPredictor(two_rule_model(), coeffs, 0.05, gain=1.0, theta_bound=1e6),
        config=MpcConfig(),
        true_coeffs=coeffs,
        x_ref_fn=lambda t: np.zeros(np.shape(t) + (4,)),
        lyapunov_p=np.eye(4),
        plant_dt=plant_dt,
    )


def test_adapt_validation():
    with pytest.raises(ValueError):
        adapting_loop(plant_dt=0.0)


def test_adapt_rejects_nan_dt():
    # a NaN step would make every theta NaN and raise ParameterBlowupError
    # for a blow-up that never happened
    with pytest.raises(ValueError, match="plant_dt must be positive"):
        adapting_loop(plant_dt=math.nan)


def reference_adapt(model, theta_f, theta_g, k, X, u, theta_bound):
    """The adaptation step from theta_f and theta_g with the exact peaks
    taken on every step: the new thetas, or the ParameterBlowupError's
    message."""
    drive = k * basis(model, X)
    theta_f = theta_f - drive
    theta_g = theta_g - drive * u
    peak_f = float(np.max(np.abs(theta_f)))
    peak_g = float(np.max(np.abs(theta_g)))
    if not (peak_f <= theta_bound and peak_g <= theta_bound):
        return (
            f"adaptation pushed max |theta_f| to {peak_f:.3e} and max |theta_g| to"
            f" {peak_g:.3e}, beyond bound {theta_bound:.3e}"
        )
    return theta_f, theta_g


SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0])
# P e4 of the default scenario
PB = np.array([0.0, 0.0, 27.77777777777778, 57.870370370370374])


@hyp_settings(max_examples=300, deadline=None)
@given(
    # on one rule the basis is exactly 1, where the carried bound is tight
    model=st.one_of(st.just(build_rule_grid((1, 1, 1, 1), UNIT_RANGES)), rule_grids()),
    theta_bound=st.one_of(st.floats(1e-3, 1e6), st.just(math.inf)),
    start=st.one_of(st.floats(0.0, 1.0), st.just(1.0)),
    flat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(
            st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
            st.lists(st.one_of(st.floats(-1e3, 1e3), SPECIAL), min_size=4, max_size=4).map(np.array),
            st.one_of(st.floats(-10.0, 10.0), SPECIAL),
            st.one_of(st.floats(0.0, 1e4), st.sampled_from([1e300, math.inf, math.nan])),
            st.floats(1e-5, 0.1),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_adapt_carried_bound_acts_as_the_exact_peaks(model, theta_bound, start, flat, seed, steps):
    # the thetas start with their peak at start times the bound, so that
    # the chain's steps cross it, or end at it, from either side; flat,
    # every entry is at the peak, one sign or the other
    rng = np.random.default_rng(seed)
    scale = start * (theta_bound if theta_bound < math.inf else 1e6)
    v = rng.choice([-1.0, 1.0], size=(2, model.n_rules)) if flat else rng.normal(size=(2, model.n_rules))
    theta_f, theta_g = v * (scale / np.max(np.abs(v), axis=1, keepdims=True))
    fuzzy = model._replace_thetas(theta_f, theta_g)
    for X, e, u, gain, dt in steps:
        # the carried bound rests on every basis entry being at most 1
        assert np.max(basis(model, X)) <= 1.0
        with np.errstate(all="ignore"):
            # the drive of the closed loop's tracking-error law
            k = dt * gain * float(e @ PB)
            want = reference_adapt(model, theta_f, theta_g, k, X, u, theta_bound)
            try:
                got = adapt(fuzzy, k, X, u, theta_bound=theta_bound)
            except ParameterBlowupError as exc:
                got = str(exc)
        if isinstance(want, str):
            assert got == want
            break
        theta_f, theta_g = want
        assert got.theta_f.tobytes() == theta_f.tobytes()
        assert got.theta_g.tobytes() == theta_g.tobytes()
        # and the bound it carries holds
        assert got._peak_bounds[0] >= np.max(np.abs(theta_f))
        assert got._peak_bounds[1] >= np.max(np.abs(theta_g))
        fuzzy = got
    assert np.max(basis_matrix(model, np.array([X for X, *_ in steps]))) <= 1.0


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
    assert degree(model.mfs[0][0], mid) == pytest.approx(math.exp(-0.25), rel=1e-12)
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


def test_models_compare_and_hash_by_identity():
    a = build_rule_grid((3, 3, 3, 3), UNIT_RANGES)
    b = build_rule_grid((3, 3, 3, 3), UNIT_RANGES)
    assert a == a
    # equal values, two models: unequal, and no ValueError from the arrays
    assert a != b
    assert a._replace_thetas(a.theta_f, a.theta_g) != a
    assert hash(a) == hash(a) and len({a, b, a}) == 2


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
        fit_consequents_lsq(model, lambda X: X[:, 0], g_value=1.0, n_samples=0, seed=0)


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
# as many samples as rules: cond(E) about 3e6, where two normal-equation
# passes left a residual 160 times the SVD solution's
@example(problem=(build_rule_grid((3, 2, 4, 4), UNIT_RANGES), 96, 163, np.zeros(4)))
# 64 samples of 64 rules, cond(E) 1.3e8: one eigenvalue of E^T E lies below
# n_rules * eps times the largest and the next just above sqrt(eps) times
# it; dropping that one direction left a residual 1e8 times the SVD solution's
@example(problem=(build_rule_grid((4, 4, 1, 4), UNIT_RANGES), 64, 4000, np.zeros(4)))
def test_fit_consequents_matches_svd_least_squares(problem):
    model, n_samples, seed, weights = problem
    batches = []

    def target(batch):
        batches.append(batch)
        return np.sin(batch @ weights) + batch[:, 0] * batch[:, 3]

    theta = fit_consequents_lsq(model, target, g_value=1.0, n_samples=n_samples, seed=seed).theta_f
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
