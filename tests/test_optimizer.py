"""Tests for the dense SQP optimizer: KKT quality on analytic problems."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from afmpc import harness, mpc
from afmpc.nlp_optimizer import (
    NlpProblem,
    QpInfeasibleError,
    SolverSettings,
    _active_set_qp,
    _bound_rows,
    _qp_hessian,
    minimize,
)

TOL = 1e-6


def settings(**kw) -> SolverSettings:
    return SolverSettings(**kw)


def assert_kkt(problem: NlpProblem, sol) -> None:
    assert sol.status == "converged"
    assert sol.kkt_residual <= TOL
    if problem.inequality_constraints is not None:
        c = problem.inequality_constraints(sol.minimizer)
        assert np.all(sol.multipliers >= -1e-12)
        assert np.all(c <= TOL)
        assert np.max(np.abs(sol.multipliers * c)) <= TOL


def test_active_constraint_problem():
    # min (u-3)^2 s.t. u <= 2; hand KKT: u* = 2, lambda* = 2
    p = NlpProblem(1, lambda z: (z[0] - 3.0) ** 2, lambda z: np.array([z[0] - 2.0]))
    sol = minimize(p, np.array([0.0]), settings())
    assert_kkt(p, sol)
    assert sol.minimizer[0] == pytest.approx(2.0, abs=1e-6)
    assert sol.multipliers[0] == pytest.approx(2.0, abs=1e-4)


def test_unconstrained_quadratic():
    p = NlpProblem(2, lambda z: float(z @ z))
    sol = minimize(p, np.array([5.0, -5.0]), settings())
    assert_kkt(p, sol)
    np.testing.assert_allclose(sol.minimizer, [0.0, 0.0], atol=1e-6)
    assert sol.objective_value <= 1e-12


def test_rosenbrock():
    p = NlpProblem(
        2, lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2
    )
    sol = minimize(p, np.array([-1.2, 1.0]), settings())
    assert_kkt(p, sol)
    np.testing.assert_allclose(sol.minimizer, [1.0, 1.0], atol=1e-4)


def test_inactive_constraint_zero_multiplier():
    p = NlpProblem(1, lambda z: z[0] ** 2, lambda z: np.array([z[0] - 1.0]))
    sol = minimize(p, np.array([0.5]), settings())
    assert_kkt(p, sol)
    assert sol.minimizer[0] == pytest.approx(0.0, abs=1e-6)
    assert sol.multipliers[0] == pytest.approx(0.0, abs=1e-6)


def test_active_box_bound():
    p = NlpProblem(1, lambda z: (z[0] - 3.0) ** 2, upper_bounds=np.array([2.0]))
    sol = minimize(p, np.array([0.0]), settings())
    assert sol.status == "converged"
    assert sol.kkt_residual <= TOL
    assert sol.minimizer[0] == pytest.approx(2.0, abs=1e-6)


def test_objective_scaling_argmin_invariance():
    c_fn = lambda z: np.array([z[0] - 2.0])
    p1 = NlpProblem(1, lambda z: (z[0] - 3.0) ** 2, c_fn)
    p2 = NlpProblem(1, lambda z: 100.0 * (z[0] - 3.0) ** 2, c_fn)
    s1 = minimize(p1, np.array([0.0]), settings())
    s2 = minimize(p2, np.array([0.0]), settings())
    assert s1.status == "converged" and s2.status == "converged"
    assert abs(s1.minimizer[0] - s2.minimizer[0]) <= 10.0 * TOL
    assert s2.multipliers[0] == pytest.approx(100.0 * s1.multipliers[0], rel=1e-3)


def test_convex_qp_matches_closed_form():
    Q = np.array([[3.0, 1.0], [1.0, 2.0]])
    q = np.array([1.0, -1.0])
    p = NlpProblem(
        2,
        lambda z: 0.5 * float(z @ Q @ z) + float(q @ z),
        lambda z: np.array([z[0] + z[1] + 1.0]),
    )
    sol = minimize(p, np.array([0.0, 0.0]), settings())
    # the constraint is active at the optimum: solve the equality KKT system
    K = np.zeros((3, 3))
    K[:2, :2] = Q
    K[:2, 2] = 1.0
    K[2, :2] = 1.0
    zstar = np.linalg.solve(K, np.array([-q[0], -q[1], -1.0]))[:2]
    assert_kkt(p, sol)
    np.testing.assert_allclose(sol.minimizer, zstar, atol=1e-8)


def test_random_unconstrained_qps_match_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(10):
        W = rng.normal(size=(3, 3))
        Q = W @ W.T + np.eye(3)
        q = rng.normal(size=3)
        p = NlpProblem(3, lambda z, Q=Q, q=q: 0.5 * float(z @ Q @ z) + float(q @ z))
        sol = minimize(p, rng.normal(size=3), settings())
        assert sol.status == "converged"
        np.testing.assert_allclose(sol.minimizer, -np.linalg.solve(Q, q), atol=1e-6)


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_exact_initial_hessian_converges_in_one_iteration(tol):
    # with the objective's true curvature the first QP step is the Newton
    # step, which lands on the minimizer of a quadratic
    Q = np.array([[3.0, 1.0], [1.0, 2.0]])
    q = np.array([1.0, -1.0])
    f = lambda z: 0.5 * float(z @ Q @ z) + float(q @ z)
    p = NlpProblem(2, lambda z: (f(z), Q @ z + q, Q), exact_gradient=True)
    z0 = np.array([4.0, -3.0])
    sol = minimize(p, z0, settings(kkt_tolerance=tol))
    assert sol.status == "converged"
    assert sol.iterations == 1
    assert sol.objective_evaluations == 2
    np.testing.assert_allclose(sol.minimizer, -np.linalg.solve(Q, q), atol=10.0 * tol)
    assert minimize(NlpProblem(2, f), z0, settings(kkt_tolerance=tol)).iterations > 1


def test_merit_non_increasing_over_accepted_steps():
    p = NlpProblem(
        2, lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2
    )
    sol = minimize(p, np.array([-1.2, 1.0]), settings())
    assert len(sol.merit_decreases) > 0
    for before, after in sol.merit_decreases:
        assert after <= before + 1e-12 * (1.0 + abs(before))


def test_infeasible_problem_flagged():
    p = NlpProblem(1, lambda z: z[0] ** 2, lambda z: np.array([z[0] ** 2 + 1.0]))
    sol = minimize(p, np.array([0.3]), settings())
    assert sol.status == "infeasible"


def test_iteration_cap():
    p = NlpProblem(
        2, lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2
    )
    sol = minimize(p, np.array([-1.2, 1.0]), settings(max_iterations=2))
    assert sol.status == "max_iter"
    assert sol.iterations <= 2


def test_start_point_clamped_to_bounds():
    p = NlpProblem(
        1,
        lambda z: (z[0] - 3.0) ** 2,
        lower_bounds=np.array([-1.0]),
        upper_bounds=np.array([2.0]),
    )
    sol = minimize(p, np.array([10.0]), settings())
    assert sol.minimizer[0] == pytest.approx(2.0, abs=1e-6)
    assert -1.0 - 1e-12 <= sol.minimizer[0] <= 2.0 + 1e-12


def test_determinism():
    p = NlpProblem(
        2, lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2
    )
    a = minimize(p, np.array([-1.2, 1.0]), settings())
    b = minimize(p, np.array([-1.2, 1.0]), settings())
    np.testing.assert_array_equal(a.minimizer, b.minimizer)
    assert a.kkt_residual == b.kkt_residual
    assert a.iterations == b.iterations


def test_problem_validation():
    with pytest.raises(ValueError):
        NlpProblem(
            1,
            lambda z: z[0],
            lower_bounds=np.array([1.0]),
            upper_bounds=np.array([0.0]),
        )


def test_problem_rejects_a_nan_bound_and_keeps_infinite_ones():
    # a NaN bound fails every comparison; minimize used to meet it as a QP
    # row of violation nan
    for lb, ub in [(math.nan, 1.0), (-1.0, math.nan)]:
        with pytest.raises(ValueError, match="NaN"):
            NlpProblem(1, lambda z: z[0], lower_bounds=np.array([lb]), upper_bounds=np.array([ub]))
    p = NlpProblem(
        2,
        lambda z: float(z @ z),
        lower_bounds=np.array([-math.inf, 1.0]),
        upper_bounds=np.array([math.inf, math.inf]),
    )
    sol = minimize(p, np.array([3.0, 3.0]), settings())
    np.testing.assert_allclose(sol.minimizer, [0.0, 1.0], atol=1e-6)


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(kkt_tolerance=0.0)
    # no residual is ever <= NaN, so no solve could converge
    with pytest.raises(ValueError):
        SolverSettings(kkt_tolerance=math.nan)
    with pytest.raises(ValueError):
        SolverSettings(max_iterations=0)


bounds = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e19, -1e19, 2e19, -2e19]),
)


@hyp_settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(bounds, bounds).map(sorted), min_size=1, max_size=5))
def test_bound_rows_match_written_out_rows(pairs):
    # per coordinate i, the upper row e_i with offset ub_i, then the lower
    # row -e_i (its off-diagonal entries -0.0) with offset -lb_i; a row
    # whose offset is not below 1e19 bounds nothing and is left out
    n = len(pairs)
    lb = np.array([lo for lo, _ in pairs])
    ub = np.array([hi for _, hi in pairs])
    want_rows, want_offsets = [], []
    for i in range(n):
        if ub[i] < 1e19:
            want_rows.append([1.0 if j == i else 0.0 for j in range(n)])
            want_offsets.append(ub[i])
        if -lb[i] < 1e19:
            want_rows.append([-1.0 if j == i else -0.0 for j in range(n)])
            want_offsets.append(-lb[i])
    rows, offsets = _bound_rows(NlpProblem(n, lambda z: 0.0, lower_bounds=lb, upper_bounds=ub))
    assert rows.shape == (len(want_rows), n)
    assert rows.tobytes() == np.array(want_rows, dtype=float).tobytes()
    assert offsets.tobytes() == np.array(want_offsets, dtype=float).tobytes()


def box_qp(Q, q, lb, ub) -> NlpProblem:
    return NlpProblem(
        len(q),
        lambda z: 0.5 * float(z @ Q @ z) + float(q @ z),
        lower_bounds=lb,
        upper_bounds=ub,
    )


def enumerated_qp_solution(H, g, A, b) -> np.ndarray:
    """Minimizer of 1/2 p'Hp + g'p s.t. A p <= b: the KKT point over all
    linearly independent subsets of active rows."""
    n, m = len(g), len(b)
    scale = 1e-8 * (1.0 + np.abs(b).max())
    for k in range(min(n, m) + 1):
        for rows in itertools.combinations(range(m), k):
            Aw = A[list(rows)]
            if k and np.linalg.matrix_rank(Aw) < k:
                continue
            kkt = np.block([[H, Aw.T], [Aw, np.zeros((k, k))]])
            sol = np.linalg.solve(kkt, np.concatenate([-g, b[list(rows)]]))
            if np.all(A @ sol[:n] <= b + scale) and np.all(sol[n:] >= -scale):
                return sol[:n]
    raise AssertionError("no KKT point among the row subsets")


def enumerated_minimizer(Q, q, lb, ub) -> np.ndarray:
    """Exact box-QP minimizer: the box as an upper and a lower row per coordinate."""
    n = len(q)
    return enumerated_qp_solution(Q, q, np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([ub, -lb]))


@st.composite
def box_qps(draw):
    """Strictly convex 1-3 dimensional quadratics with a box around 0.

    Each coordinate of the start lies on its lower bound, on its upper
    bound, or inside the box at least 1% of its width from each bound.
    """
    n = draw(st.integers(1, 3))

    def vector(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    W = vector(-20.0, 20.0, n * n).reshape(n, n)
    Q = W @ W.T + draw(st.floats(0.1, 10.0)) * np.eye(n)
    q = vector(-10.0, 10.0, n)
    lb = -vector(0.05, 5.0, n)
    ub = vector(0.05, 5.0, n)
    spot = np.array(
        draw(
            st.lists(
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
                min_size=n,
                max_size=n,
            )
        )
    )
    z0 = np.where(spot == 0.0, lb, np.where(spot == 1.0, ub, lb + spot * (ub - lb)))
    return Q, q, lb, ub, z0


# stiff enough that a one-sided difference's O(h) bias, h*max|Q|/2 = 2e-4,
# would exceed the 1e-4 tolerance: the gradient must be bias-free to converge
STIFF_QP = (
    np.array([[395.92, 104.12], [104.12, 71.06]]),
    np.array([-8.83, 4.67]),
    np.full(2, -4.63),
    np.full(2, 4.63),
    np.array([0.41, -4.25]),
)

# at 1e-6 the merit decrease of the last steps sinks below the objective's
# rounding noise; without the line-search slack of a differenced gradient
# the run ends at max_iter with a residual of 1.3e-6
ROUNDING_QP = (
    np.array([[315.23, -155.19, 85.73], [-155.19, 289.79, -376.66], [85.73, -376.66, 559.66]]),
    np.array([-4.47, -7.23, -6.8]),
    np.array([-0.32, -2.36, -1.1]),
    np.array([2.21, 4.57, 2.06]),
    np.array([0.05, -2.15, 0.52]),
)


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
@hyp_settings(max_examples=300, deadline=None)
@given(qp=box_qps())
@example(qp=STIFF_QP)
@example(qp=ROUNDING_QP)
def test_box_qp_converges_to_enumerated_minimizer(tol, qp):
    # box bounds only, as in an MPC solve, with a differenced gradient: the
    # same central differences at either tolerance
    Q, q, lb, ub, z0 = qp
    sol = minimize(box_qp(Q, q, lb, ub), z0, SolverSettings(kkt_tolerance=tol))
    assert sol.status == "converged"
    assert sol.kkt_residual <= tol
    # strong convexity turns the stationarity residual plus an allowance of
    # h*max|Q| for the difference gradient into a distance to the minimizer
    lam_min = np.linalg.eigvalsh(Q)[0]
    atol = 10.0 * (tol + 1e-6 * np.abs(Q).max()) / lam_min
    np.testing.assert_allclose(sol.minimizer, enumerated_minimizer(Q, q, lb, ub), rtol=0.0, atol=atol)


# started on the bound that holds the minimizer, the first QP step is zero
# up to rounding and raises the cost by 1e-13; a line search with the
# slack of a differenced gradient would accept it
ON_BOUND_QP = (np.array([[0.109375]]), np.array([9.5]), np.array([-1.0]), np.array([1.0]), np.array([-1.0]))


# Q's subnormal off-diagonal entry leaves the QP a subnormal dlam, and the
# ratio test's -lam / dlam overflows: it reads +inf, never, without the
# RuntimeWarning that numpy's division raised
SUBNORMAL_QP = (
    np.array([[0.75, -1.11253693e-311], [-1.11253693e-311, 0.5]]),
    np.array([1.0, 1.0]),
    np.full(2, -1.0),
    np.full(2, 1.0),
    np.array([-1.0, -1.0]),
)


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
@hyp_settings(max_examples=300, deadline=None)
@given(qp=box_qps())
@example(qp=STIFF_QP)
@example(qp=ROUNDING_QP)
@example(qp=ON_BOUND_QP)
@example(qp=SUBNORMAL_QP)
def test_box_qp_with_exact_gradient_converges_to_enumerated_minimizer(tol, qp):
    # the MPC path since its rollouts carry sensitivities: each evaluation
    # returns (f, grad f, Hessian), counts once, and no difference is ever
    # taken
    Q, q, lb, ub, z0 = qp
    calls = []

    def f(z):
        return 0.5 * float(z @ Q @ z) + float(q @ z)

    def objective(z):
        calls.append(z.copy())
        return f(z), Q @ z + q, Q

    problem = NlpProblem(len(q), objective, lower_bounds=lb, upper_bounds=ub, exact_gradient=True)
    sol = minimize(problem, z0, SolverSettings(kkt_tolerance=tol))
    assert sol.status == "converged"
    assert sol.kkt_residual <= tol
    assert sol.objective_evaluations == len(calls)
    # no line search accepts a cost rise on the exact path
    assert sol.objective_value <= f(z0)
    # no difference bias: strong convexity turns the residual alone into a
    # distance to the minimizer
    lam_min = np.linalg.eigvalsh(Q)[0]
    atol = 10.0 * tol / lam_min
    np.testing.assert_allclose(sol.minimizer, enumerated_minimizer(Q, q, lb, ub), rtol=0.0, atol=atol)


def stopping_rule_case(case, exact):
    """(problem, z0) for a named problem or a drawn box QP, its objective
    returning (f, gradient, Hessian) when exact is set."""
    if case == "rosenbrock":
        # the sum of squares of r = (1 - z0, 10 (z1 - z0^2)), with the
        # Gauss-Newton Hessian 2 J'J
        def objective(z):
            r = np.array([1.0 - z[0], 10.0 * (z[1] - z[0] ** 2)])
            J = np.array([[-1.0, 0.0], [-20.0 * z[0], 10.0]])
            return (float(r @ r), 2.0 * J.T @ r, 2.0 * J.T @ J) if exact else float(r @ r)

        return NlpProblem(2, objective, exact_gradient=exact), np.array([-1.2, 1.0])
    if case == "criterion_4":
        # criterion 4's active-constraint problem: min (z-3)^2 s.t. z <= 2
        def objective(z):
            f = (z[0] - 3.0) ** 2
            return (f, np.array([2.0 * (z[0] - 3.0)]), np.array([[2.0]])) if exact else f

        problem = NlpProblem(1, objective, lambda z: np.array([z[0] - 2.0]), exact_gradient=exact)
        return problem, np.array([0.0])
    Q, q, lb, ub, z0 = case

    def objective(z):
        f = 0.5 * float(z @ Q @ z) + float(q @ z)
        return (f, Q @ z + q, Q) if exact else f

    return NlpProblem(len(q), objective, lower_bounds=lb, upper_bounds=ub, exact_gradient=exact), z0


@pytest.mark.parametrize("exact", [False, True])
@hyp_settings(max_examples=100, deadline=None)
@given(case=st.one_of(st.sampled_from(["rosenbrock", "criterion_4"]), box_qps()))
@example(case="rosenbrock")
@example(case="criterion_4")
@example(case=STIFF_QP)
def test_kkt_tolerance_is_only_a_stopping_rule(exact, case):
    # the tolerance picks no derivative scheme, so a looser one stops the
    # same iteration sooner: its accepted steps are the first ones of the
    # tighter run, bit for bit
    problem, z0 = stopping_rule_case(case, exact)
    loose = minimize(problem, z0, SolverSettings(kkt_tolerance=1e-4))
    tight = minimize(problem, z0, SolverSettings(kkt_tolerance=1e-6))
    assert loose.merit_decreases == tight.merit_decreases[: len(loose.merit_decreases)]
    assert loose.iterations <= tight.iterations


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_objective_evaluations_count_callback_calls(exact, tol):
    calls = []

    def objective(z):
        calls.append(z.copy())
        # the sum of squares of the residuals r = (1 - z0, 10 (z1 - z0^2))
        r = np.array([1.0 - z[0], 10.0 * (z[1] - z[0] ** 2)])
        if not exact:
            return float(r @ r)
        J = np.array([[-1.0, 0.0], [-20.0 * z[0], 10.0]])
        # the gradient 2 J'r and the Gauss-Newton Hessian 2 J'J
        return float(r @ r), 2.0 * J.T @ r, 2.0 * J.T @ J

    p = NlpProblem(2, objective, exact_gradient=exact)
    sol = minimize(p, np.array([-1.2, 1.0]), SolverSettings(kkt_tolerance=tol))
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.minimizer, [1.0, 1.0], atol=1e-3)
    assert sol.objective_evaluations == len(calls)


def test_exact_gradient_shape_checked():
    p = NlpProblem(2, lambda z: (float(z @ z), np.zeros(3), np.eye(2)), exact_gradient=True)
    with pytest.raises(ValueError, match="gradient must have shape"):
        minimize(p, np.zeros(2))


@pytest.mark.parametrize(
    "hessian, message",
    [
        pytest.param(np.eye(3), "2x2", id="hessian3-2x2"),
        pytest.param(np.ones(2), "2x2", id="hessian4-2x2"),
        pytest.param(np.array([[1.0, 0.0], [0.0, np.nan]]), "finite", id="hessian5-finite"),
    ],
)
def test_initial_hessian_validation(hessian, message):
    # the objective's Hessian at the start point is the first one the QP
    # would take; a wrong shape or a non-finite entry stops the solve there
    p = NlpProblem(2, lambda z: (float(z @ z), 2.0 * z, hessian), exact_gradient=True)
    with pytest.raises(ValueError, match=f"Hessian must be .*{message}"):
        minimize(p, np.zeros(2), settings())


@pytest.mark.parametrize(
    "objective, exact",
    [
        (lambda z: 1e30 * float(z[0]), False),
        (lambda z: (1e30 * float(z[0]), np.array([1e30]), np.eye(1)), True),
    ],
)
def test_zero_step_that_repeats_ends_the_run(objective, exact):
    # a slope this steep loses the QP's bound step to cancellation, so the
    # step is zero with the multipliers unchanged and the residual stays
    # at the slope: each further iteration would repeat the same QP
    box = np.array([-5.0]), np.array([5.0])
    p = NlpProblem(1, objective, lower_bounds=box[0], upper_bounds=box[1], exact_gradient=exact)
    sol = minimize(p, np.array([0.0]), settings(kkt_tolerance=1e-4))
    assert sol.status == "stalled"
    assert sol.iterations <= 2


def test_two_failed_line_searches_end_the_run_stalled():
    # the objective reports the wrong-sign gradient of z^2, so every QP step
    # points uphill and no backtrack finds a decrease: the run stops after
    # two failed line searches, with most of its iteration budget unused
    p = NlpProblem(
        1,
        lambda z: (float(z @ z), -2.0 * z, np.eye(1)),
        lower_bounds=np.array([-5.0]),
        upper_bounds=np.array([5.0]),
        exact_gradient=True,
    )
    sol = minimize(p, np.array([1.0]), settings())
    assert sol.status == "stalled"
    assert sol.iterations == 2
    assert sol.minimizer[0] == 1.0
    assert sol.merit_decreases == ()


@functools.cache
def default_mpc_loops() -> tuple:
    """The default scenario's closed loops, classical and afmpc."""
    return tuple(
        harness.build_closed_loop(dataclasses.replace(harness.default_config(), controller=c))[0]
        for c in ("classical", "afmpc")
    )


@st.composite
def mpc_problems(draw):
    """The default controllers' solve_step program, (problem, warm start),
    at a drawn state, reference and warm start."""
    loop = draw(st.sampled_from(default_mpc_loops()))
    cfg = loop.config
    entries = lambda lo, hi, size: np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))
    x = entries(-1.0, 1.0, 4)
    x_ref = entries(-1.0, 1.0, 4 * cfg.prediction_horizon).reshape(cfg.prediction_horizon, 4)
    warm = entries(-6.0, 6.0, cfg.control_horizon)
    captured = []

    def capture(problem, z0, settings=None, start=None):
        captured.append((problem, z0))
        raise QpInfeasibleError("problem captured")

    inner = mpc.minimize
    mpc.minimize = capture
    try:
        mpc.solve_step(loop.model, x, x_ref, cfg, warm)
    finally:
        mpc.minimize = inner
    return captured[0]


def solution_fields(sol) -> tuple:
    """Every field of a Solution but objective_evaluations, bit for bit."""
    return (
        sol.minimizer.tobytes(),
        sol.multipliers.tobytes(),
        repr(sol.objective_value),
        repr(sol.kkt_residual),
        sol.iterations,
        sol.status,
        repr(sol.merit_decreases),
    )


@hyp_settings(max_examples=100, deadline=None)
@given(
    case=st.one_of(
        st.one_of(st.sampled_from(["rosenbrock", "criterion_4"]), box_qps()).map(
            lambda c: stopping_rule_case(c, True)
        ),
        mpc_problems(),
    )
)
@example(case=stopping_rule_case(STIFF_QP, True))
def test_start_stands_in_for_the_first_evaluation(case):
    # the objective's value at the clipped start point, handed in, gives
    # the run without it, one evaluation fewer
    problem, z0 = case
    settings = SolverSettings(kkt_tolerance=1e-4)
    plain = minimize(problem, z0, settings)
    z = np.minimum(np.maximum(z0, problem.lower_bounds), problem.upper_bounds)
    started = minimize(problem, z0, settings, start=problem.objective(z))
    assert solution_fields(started) == solution_fields(plain)
    assert started.objective_evaluations == plain.objective_evaluations - 1


GOOD_START = (0.0, np.zeros(2), np.eye(2))


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param((0.0, np.zeros(3), np.eye(2)), id="gradient-shape"),
        pytest.param((0.0, np.zeros(2), np.eye(3)), id="hessian-shape"),
        pytest.param((0.0, np.zeros(2), np.diag([1.0, math.inf])), id="hessian-finite"),
        pytest.param((0.0, np.zeros(2)), id="arity"),
    ],
)
def test_malformed_start_raises_as_a_malformed_objective(bad):
    with pytest.raises(ValueError) as from_objective:
        minimize(NlpProblem(2, lambda z: bad, exact_gradient=True), np.zeros(2))
    with pytest.raises(ValueError) as from_start:
        minimize(NlpProblem(2, lambda z: GOOD_START, exact_gradient=True), np.zeros(2), start=bad)
    assert str(from_start.value) == str(from_objective.value)


def test_start_needs_an_exact_gradient_problem():
    with pytest.raises(ValueError, match="start needs an exact_gradient problem"):
        minimize(NlpProblem(2, lambda z: float(z @ z)), np.zeros(2), start=GOOD_START)


def test_box_qp_cycling():
    # p = 0 is always feasible for box rows, so no QP here may raise; a
    # working-set iteration that can revisit its working sets cycles on
    # this problem until its cap and reports the QP infeasible
    Q = np.array([[589.76, 225.48, 217.23], [225.48, 197.61, 160.47], [217.23, 160.47, 655.9]])
    q = np.array([-8.97, -9.34, -8.5])
    lb = np.full(3, -0.57)
    ub = np.full(3, 0.57)
    sol = minimize(box_qp(Q, q, lb, ub), np.array([-0.3, -0.24, 0.54]), SolverSettings(kkt_tolerance=1e-4))
    assert sol.status == "converged"
    np.testing.assert_allclose(sol.minimizer, enumerated_minimizer(Q, q, lb, ub), atol=1e-3)


def test_box_qp_start_on_bound():
    # the first step from the lower bound overshoots to the upper bound and
    # is halved onto the minimizer 0, with the upper bound's multiplier 1
    # from the full step; at 0 the gradient vanishes, so the next QP step is
    # zero, and only adopting that QP's multipliers (no active bound) lets
    # the residual at 0 drop below the tolerance
    Q = np.array([[3.0]])
    sol = minimize(
        box_qp(Q, np.zeros(1), np.array([-1.0]), np.array([1.0])),
        np.array([-1.0]),
        SolverSettings(kkt_tolerance=1e-4),
    )
    assert sol.status == "converged"
    assert abs(sol.minimizer[0]) <= 1e-4


def test_inconsistent_linear_rows_raise():
    # z <= -1 and z >= 1 linearize to the same two rows at every iterate
    p = NlpProblem(1, lambda z: z[0] ** 2, lambda z: np.array([z[0] + 1.0, 1.0 - z[0]]))
    with pytest.raises(QpInfeasibleError, match="no finite step makes row 1 feasible"):
        minimize(p, np.array([0.0]), settings())


@st.composite
def general_qps(draw):
    """Strictly convex 1-3 dimensional QPs with 1-4 rows feasible by construction:
    b = A p0 + s with s >= 0.

    Row entries are 0 or at least 0.1 in magnitude, because the QP's
    feasibility tolerance is absolute in row units.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))

    def vector(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    W = vector(-20.0, 20.0, n * n).reshape(n, n)
    H = W @ W.T + draw(st.floats(0.1, 10.0)) * np.eye(n)
    g = vector(-10.0, 10.0, n)
    entry = st.one_of(st.just(0.0), st.floats(0.1, 5.0), st.floats(-5.0, -0.1))
    A = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    p0 = vector(-5.0, 5.0, n)
    s = vector(0.0, 5.0, m)
    return H, g, A, A @ p0 + s


@hyp_settings(max_examples=300, deadline=None)
@given(qp=general_qps())
def test_active_set_qp_matches_enumeration(qp):
    H, g, A, b = qp
    p, lam = _active_set_qp(H, g, A, b)
    scale = 1e-7 * (1.0 + np.abs(b).max() + np.abs(g).max())
    np.testing.assert_allclose(p, enumerated_qp_solution(H, g, A, b), rtol=0.0, atol=scale)
    assert np.all(A @ p - b <= scale)
    assert np.all(lam >= 0.0)
    # complementary: a row off its boundary carries no multiplier
    assert np.all(np.abs(lam * (b - A @ p)) <= scale * (1.0 + lam.max()))
    np.testing.assert_allclose(H @ p + g + A.T @ lam, 0.0, atol=scale * (1.0 + lam.max()))


@st.composite
def qp_hessians(draw):
    """Symmetric matrices around the QP Hessian reset: positive definite
    ones with a condition number from 1 to 1e14, singular ones, ones with a
    NaN or inf entry and ones with an entry from 1e8 to 1e12, which reset
    only when they make H ill-conditioned."""
    n = draw(st.integers(1, 4))
    # orthonormal eigenvectors from the QR factors of a drawn matrix
    W = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    Q, _ = np.linalg.qr(W + 1e-3 * np.eye(n))
    spread = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    spread[0] = 0.0
    if n > 1:
        spread[-1] = 1.0
    eigs = 10.0 ** (draw(st.floats(-3.0, 7.0)) - draw(st.floats(0.0, 14.0)) * spread)
    H = (Q * eigs) @ Q.T
    H = 0.5 * (H + H.T)
    kind = draw(st.sampled_from(["spd", "singular", "non_finite", "large"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "singular":
        variant = draw(st.sampled_from(["zero", "repeated", "null_eigenvalue"]))
        if variant == "zero":
            H = np.zeros((n, n))
        elif variant == "repeated" and n > 1:
            # two equal rows and columns: exactly singular
            H[1], H[:, 1] = H[0], H[:, 0]
        else:
            eigs[-1] = 0.0
            H = (Q * eigs) @ Q.T
            H = 0.5 * (H + H.T)
    elif kind == "non_finite":
        H[i, j] = H[j, i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "large":
        H[i, j] = H[j, i] = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e8, 1e12))
    return H


@hyp_settings(max_examples=400, deadline=None)
@given(H=qp_hessians())
# condition number exactly 1e10, then one rounding step above it
@example(H=np.diag([1e-2, 1e8]))
@example(H=np.diag([np.nextafter(1e-2, 0.0), 1e8]))
@example(H=np.diag([1.0, 1e10]))
@example(H=np.diag([1.0, np.nextafter(1e10, np.inf)]))
# large entries alone reset nothing: condition number 10
@example(H=np.diag([1e9, 1e10]))
# a non-finite H resets through the same condition test
@example(H=np.diag([1.0, math.nan]))
@example(H=np.diag([math.inf, 1.0]))
def test_qp_hessian_reset_matches_the_rule(H):
    # the rule: H reaches the QP only if it is finite and its 1-norm
    # condition number is at most 1e10; no entry is too large on its own
    with np.errstate(all="ignore"):
        reset = not np.all(np.isfinite(H)) or np.linalg.cond(H, 1) > 1e10
    out = _qp_hessian(H)
    assert (out is not H) == reset
    if reset:
        assert np.array_equal(out, np.eye(H.shape[0]))
