"""End-to-end acceptance tests for the package, one criterion per test.

Each test prints a single `[acceptance] <name>: PASS|FAIL` line; run pytest
with -s to see the lines on success (pytest -v also shows one PASSED/FAILED
row per criterion).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from afmpc import harness
from afmpc import fuzzy as fz
from afmpc.dense_linalg import (
    NotPositiveDefiniteWarning,
    is_positive_definite,
    solve_lyapunov,
)
from afmpc.nlp_optimizer import NlpProblem, SolverSettings, minimize
from afmpc.plant import PlantParams, derive_coefficients, step as plant_step

TRUE_COEFFS = derive_coefficients(PlantParams())
OPERATING_BOX = ((-math.pi, math.pi), (-10.0, 10.0), (-math.pi, math.pi), (-10.0, 10.0))


def report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def default_comparison():
    """Both controllers on the default scenario, with the wall time."""
    cfg = harness.default_config()
    start = time.perf_counter()
    log_c, met_c, log_a, met_a, report_text = harness.run_comparison(cfg)
    wall = time.perf_counter() - start
    return cfg, log_c, met_c, log_a, met_a, report_text, wall


def test_criterion_1_lyapunov_solver():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        M = rng.normal(size=(4, 4))
        skew = rng.normal(size=(4, 4))
        A = -M @ M.T - 0.05 * np.eye(4) + 0.2 * (skew - skew.T)
        W = rng.normal(size=(4, 4))
        Q = W @ W.T + 0.1 * np.eye(4)
        P = solve_lyapunov(A, Q)
        residual = np.linalg.norm(A.T @ P + P @ A + Q)
        ok = ok and residual <= 1e-9 * np.linalg.norm(Q)
        ok = ok and np.allclose(P, P.T, atol=1e-12) and is_positive_definite(P)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0

    # non-Hurwitz example (trace +7): the unique solution exists but cannot
    # be positive definite, and the solver must say so
    A_bad = np.array(
        [
            [0.0, 10.0, 0.0, 0.0],
            [0.0, 0.0, 10.0, 0.0],
            [0.0, 0.0, 0.0, 10.0],
            [-17.2, -20.5, -10.0, 7.0],
        ]
    )
    with pytest.warns(NotPositiveDefiniteWarning):
        P_bad = solve_lyapunov(A_bad, 500.0 * np.eye(4))
    flagged = not is_positive_definite(P_bad)
    ok = ok and flagged
    report("lyapunov solver", ok)
    assert elapsed < 1.0
    assert flagged
    assert ok


def test_criterion_2_integrator_order():
    # the arm-velocity channel decouples with u = 0, so it has the scalar
    # exponential as its exact solution
    def worst_error(dt: float) -> float:
        x = np.array([0.0, 1.0, 0.0, 0.0])
        worst = 0.0
        for k in range(round(1.0 / dt)):
            x = plant_step(x, 0.0, dt, TRUE_COEFFS)
            worst = max(worst, abs(x[1] - math.exp(TRUE_COEFFS.a1 * (k + 1) * dt)))
        return worst

    err_coarse = worst_error(1e-3)
    err_fine = worst_error(5e-4)
    ratio = err_coarse / err_fine
    ok = err_coarse <= 1e-6 and 12.0 <= ratio <= 20.0
    report("integrator order", ok)
    assert err_coarse <= 1e-6
    assert 12.0 <= ratio <= 20.0


def test_criterion_3_fuzzy_capacity():
    start = time.perf_counter()
    grid = fz.build_rule_grid((5, 5, 5, 5), OPERATING_BOX)

    def f_true(X: np.ndarray) -> np.ndarray:
        return (
            TRUE_COEFFS.a2 * X[:, 1]
            + TRUE_COEFFS.a3 * np.sin(X[:, 2])
            + TRUE_COEFFS.a4 * X[:, 3]
        )

    model = fz.fit_consequents_lsq(grid, f_true, g_value=TRUE_COEFFS.b2, n_samples=10000, seed=0)
    axes = [np.linspace(lo, hi, 10) for lo, hi in OPERATING_BOX]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    assert mesh.shape == (10000, 4)
    estimate = fz.basis_matrix(model, mesh) @ model.theta_f
    rel = float(np.linalg.norm(estimate - f_true(mesh)) / np.linalg.norm(f_true(mesh)))
    elapsed = time.perf_counter() - start
    ok = rel <= 0.05 and elapsed < 30.0
    report("fuzzy capacity", ok)
    assert rel <= 0.05
    assert elapsed < 30.0


def test_criterion_4_optimizer_kkt_suite():
    tol = 1e-6
    solutions = []

    # five analytic problems with hand-checkable optima
    p1 = NlpProblem(1, lambda z: (z[0] - 3.0) ** 2, lambda z: np.array([z[0] - 2.0]))
    s1 = minimize(p1, np.array([0.0]), SolverSettings())
    solutions.append((s1, s1.minimizer[0], 2.0, 1e-6))

    p2 = NlpProblem(2, lambda z: float(z @ z))
    s2 = minimize(p2, np.array([5.0, -5.0]), SolverSettings())
    solutions.append((s2, float(np.max(np.abs(s2.minimizer))), 0.0, 1e-6))

    p3 = NlpProblem(2, lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2)
    s3 = minimize(p3, np.array([-1.2, 1.0]), SolverSettings())
    solutions.append((s3, float(np.max(np.abs(s3.minimizer - 1.0))), 0.0, 1e-4))

    p4 = NlpProblem(1, lambda z: z[0] ** 2, lambda z: np.array([z[0] - 1.0]))
    s4 = minimize(p4, np.array([0.5]), SolverSettings())
    solutions.append((s4, s4.minimizer[0], 0.0, 1e-6))

    p5 = NlpProblem(1, lambda z: (z[0] - 3.0) ** 2, upper_bounds=np.array([2.0]))
    s5 = minimize(p5, np.array([0.0]), SolverSettings())
    solutions.append((s5, s5.minimizer[0], 2.0, 1e-6))

    ok = True
    for sol, got, want, atol in solutions:
        ok = ok and sol.status == "converged" and sol.kkt_residual <= tol
        ok = ok and abs(got - want) <= atol

    # objective scaling must not move the argmin
    c_fn = lambda z: np.array([z[0] - 2.0])
    sa = minimize(NlpProblem(1, lambda z: (z[0] - 3.0) ** 2, c_fn), np.array([0.0]), SolverSettings())
    sb = minimize(
        NlpProblem(1, lambda z: 100.0 * (z[0] - 3.0) ** 2, c_fn), np.array([0.0]), SolverSettings()
    )
    scale_ok = abs(sa.minimizer[0] - sb.minimizer[0]) <= 10.0 * tol
    ok = ok and scale_ok
    report("optimizer kkt suite", ok)
    for sol, got, want, atol in solutions:
        assert sol.status == "converged"
        assert sol.kkt_residual <= tol
        assert abs(got - want) <= atol
    assert scale_ok


def test_criterion_5_classical_regulation():
    cfg = harness.load_config(
        "/dev/null",
        {
            "controller": "classical",
            "reference.kind": "zero",
            "mismatch.a3": "1.0",
            "scenario.alpha0": "0.3",
            "run.duration": "3.0",
        },
    )
    log, _ = harness.run_scenario(cfg)
    alpha = np.abs(log.states[:, 2])
    below = np.nonzero(alpha < 0.05)[0]
    reached = below.size > 0
    settled = reached and bool(np.all(alpha[below[0]:] < 0.05))
    ok = (not log.diverged) and reached and settled
    report("classical regulation", ok)
    assert not log.diverged
    assert reached, "pendulum never entered the 0.05 rad band within 3 s"
    assert settled, "pendulum left the 0.05 rad band after entering it"


def test_criterion_6_steady_state_comparison(default_comparison):
    _, _, met_c, _, met_a, _, _ = default_comparison
    ok = met_a.steady_state_error <= 0.02
    ok = ok and met_a.steady_state_error <= 0.25 * met_c.steady_state_error
    report("steady-state comparison", ok)
    assert met_a.steady_state_error <= 0.02
    assert met_a.steady_state_error <= 0.25 * met_c.steady_state_error


def test_criterion_7_lyapunov_decrease_diagnostic(default_comparison):
    cfg, _, _, log_a, _, _, _ = default_comparison
    P = solve_lyapunov(cfg.lyapunov_a, cfg.lyapunov_q_diag * np.eye(4))
    b = np.array([0.0, 0.0, 0.0, 1.0])
    refs = np.stack(
        [harness.state_reference(cfg.reference, TRUE_COEFFS, t) for t in log_a.t]
    )
    drive = (refs - log_a.states) @ (P @ b)
    # largest logged contribution of the model-approximation residual to
    # the Lyapunov derivative; the decrease test is gated on it
    eps_w = float(np.max(np.abs(drive * log_a.w_diag)))
    dv = np.diff(log_a.V)
    after_transient = log_a.t[1:] > 1.0
    passed = dv[after_transient] <= eps_w * cfg.mpc.dt + 1e-15
    fraction = float(np.mean(passed))
    ok = fraction >= 0.90
    report("lyapunov decrease diagnostic", ok)
    assert fraction >= 0.90


def test_criterion_8_end_to_end_performance(default_comparison):
    _, _, met_c, _, met_a, _, wall = default_comparison
    # horizon rollouts per solve, the deterministic measure of solve work
    ok = wall < 60.0
    ok = ok and met_c.mean_evaluations <= 25.0
    ok = ok and met_a.mean_evaluations <= 25.0
    report("end-to-end performance", ok)
    assert wall < 60.0
    assert met_c.mean_evaluations <= 25.0
    assert met_a.mean_evaluations <= 25.0


def test_criterion_9_csv_determinism(default_comparison, tmp_path):
    cfg, _, _, log_a, _, _, _ = default_comparison
    rerun, _ = harness.run_scenario(replace(cfg, controller="afmpc"))
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    harness.export_csv(log_a, str(first))
    harness.export_csv(rerun, str(second))
    identical = first.read_bytes() == second.read_bytes()
    ok = identical and first.read_bytes().startswith(harness.CSV_HEADER.encode())
    report("csv determinism", ok)
    assert identical
