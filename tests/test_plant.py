"""Tests for the pendulum dynamics model and fixed-step integrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from afmpc.plant import (
    CoeffSet,
    DisturbanceSpec,
    IntegrationDivergenceError,
    PlantParams,
    derive_coefficients,
    disturbance_value,
    dynamics,
    rk4,
    step,
)


def default_coeffs() -> CoeffSet:
    return derive_coefficients(PlantParams())


def test_derived_coefficients_closed_form():
    p = PlantParams()
    c = derive_coefficients(p)
    assert c.a1 == pytest.approx(-33.04, rel=1e-12)
    assert c.a2 == pytest.approx(-p.k1 * p.a_p / p.J1, rel=1e-12)
    assert c.a2 == pytest.approx(-62.776, rel=1e-12)
    assert c.a3 == pytest.approx(p.m1 * p.g * p.l1 / p.J1, rel=1e-12)
    assert c.a3 == pytest.approx(95.41135338, rel=1e-9)
    assert c.a4 == pytest.approx(-2.9, rel=1e-12)
    assert c.b1 == pytest.approx(74.89, rel=1e-12)
    assert c.b2 == pytest.approx(p.k1 * p.k_p / p.J1, rel=1e-12)
    assert c.b2 == pytest.approx(142.291, rel=1e-12)


def test_coefficient_cross_identity():
    # a2*b1 == a1*b2 exactly: no input offset can hold a non-zero angle
    c = default_coeffs()
    assert c.a2 * c.b1 == pytest.approx(c.a1 * c.b2, rel=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        PlantParams(m1=-1.0)
    with pytest.raises(ValueError):
        PlantParams(J1=0.0)
    with pytest.raises(ValueError):
        PlantParams(c1=-0.1)


@pytest.mark.parametrize("name", ["m1", "J1", "g", "l1", "k_p", "c1", "k1"])
def test_param_validation_rejects_nan(name):
    # NaN fails every comparison; it passed the old <= 0 and < 0 guards
    with pytest.raises(ValueError, match=f"{name} must be"):
        PlantParams(**{name: math.nan})


def test_dynamics_equilibria():
    c = default_coeffs()
    np.testing.assert_allclose(dynamics(np.zeros(4), 0.0, c), np.zeros(4))
    # hanging-down position is also an equilibrium of the model
    down = np.array([0.0, 0.0, math.pi, 0.0])
    np.testing.assert_allclose(dynamics(down, 0.0, c), np.zeros(4), atol=1e-13)


def test_dynamics_direct_substitution():
    c = default_coeffs()
    dx = dynamics(np.array([0.0, 1.0, 0.0, 0.0]), 0.0, c)
    np.testing.assert_allclose(dx, [1.0, -33.04, 0.0, -62.776], rtol=1e-12)


def test_dynamics_disturbance_enters_pendulum_channel_only():
    c = default_coeffs()
    base = np.asarray(dynamics(np.zeros(4), 0.0, c, d=0.0))
    with_d = np.asarray(dynamics(np.zeros(4), 0.0, c, d=0.5))
    diff = with_d - base
    np.testing.assert_allclose(diff[:3], 0.0)
    assert diff[3] == pytest.approx(0.5 * c.b2, rel=1e-12)


def reference_rk4(x, u, dt, d, c):
    """The classic RK4 formula on ndarrays, stage by stage."""

    def field(s, dd):
        return np.array(
            [
                s[1],
                c.a1 * s[1] + c.b1 * u,
                s[3],
                c.a2 * s[1] + c.a3 * math.sin(s[2]) + c.a4 * s[3] + c.b2 * (u + dd),
            ]
        )

    k1 = field(x, d[0])
    k2 = field(x + 0.5 * dt * k1, d[1])
    k3 = field(x + 0.5 * dt * k2, d[1])
    k4 = field(x + dt * k3, d[2])
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def finite(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


@hyp_settings(max_examples=300, deadline=None)
@given(
    x=st.lists(finite(50.0), min_size=4, max_size=4).map(np.array),
    u=finite(10.0),
    dt=st.floats(1e-5, 0.5),
    d=st.tuples(finite(2.0), finite(2.0), finite(2.0)),
)
def test_rk4_equals_ndarray_formula_bit_for_bit(x, u, dt, d):
    # the float stages keep the ndarray form's operations and their order
    c = default_coeffs()
    got = rk4(lambda s, dd: dynamics(s, u, c, dd), tuple(x.tolist()), dt, d)
    assert isinstance(got, tuple) and all(type(v) is float for v in got) and len(got) == 4
    assert np.array_equal(np.array(got), reference_rk4(x, u, dt, d, c))
    # any 4-sequence gives the same step, an ndarray's numpy scalars too
    assert np.array_equal(np.array(rk4(lambda s, dd: dynamics(s, u, c, dd), x, dt, d)), np.array(got))


def test_step_keeps_equilibrium():
    c = default_coeffs()
    x = step(np.zeros(4), 0.0, 0.05, c)
    np.testing.assert_allclose(x, np.zeros(4), atol=1e-15)


def test_step_one_step_accuracy_against_exponential():
    # arm velocity decouples: x2(t) = exp(a1 t) for u = 0
    c = default_coeffs()
    x0 = np.array([0.0, 1.0, 0.0, 0.0])
    got = step(x0, 0.0, 1e-3, c)[1]
    assert abs(got - math.exp(c.a1 * 1e-3)) <= 1e-9
    got = step(x0, 0.0, 1e-4, c)[1]
    assert abs(got - math.exp(c.a1 * 1e-4)) <= 1e-12


def _arm_global_error(dt: float) -> float:
    c = default_coeffs()
    x = np.array([0.0, 1.0, 0.0, 0.0])
    n = int(round(1.0 / dt))
    worst = 0.0
    for k in range(1, n + 1):
        x = step(x, 0.0, dt, c)
        worst = max(worst, abs(x[1] - math.exp(c.a1 * k * dt)))
    return worst


def test_step_global_error_and_fourth_order_ratio():
    err_coarse = _arm_global_error(1e-3)
    err_fine = _arm_global_error(5e-4)
    assert err_coarse <= 1e-6
    ratio = err_coarse / err_fine
    assert 12.0 <= ratio <= 20.0


def test_step_energy_conservation_about_hanging_position():
    # undamped pendulum (c1 = 0) oscillating about x3 = pi keeps its
    # amplitude; checked through the conserved small-oscillation energy
    params = PlantParams(c1=0.0)
    c = derive_coefficients(params)
    assert c.a4 == 0.0

    def amplitude(x):
        delta = x[2] - math.pi
        return math.hypot(delta, x[3] / math.sqrt(c.a3))

    x = np.array([0.0, 0.0, math.pi + 0.05, 0.0])
    a0 = amplitude(x)
    dt = 1e-4
    for _ in range(int(round(10.0 / dt))):
        x = step(x, 0.0, dt, c)
    assert abs(amplitude(x) - a0) <= 1e-3 * a0


def test_step_determinism():
    c = default_coeffs()
    spec = DisturbanceSpec(kind="band_limited_noise", amplitude=0.3, seed=7)
    x0 = np.array([0.1, -0.2, 0.05, 0.4])
    a = step(x0, 0.7, 0.01, c, spec, t=1.2345)
    b = step(x0, 0.7, 0.01, c, spec, t=1.2345)
    np.testing.assert_array_equal(a, b)


def test_step_rejects_bad_dt():
    c = default_coeffs()
    with pytest.raises(ValueError):
        step(np.zeros(4), 0.0, 0.0, c)


def test_step_rejects_nan_dt():
    # a NaN dt made the state NaN and raised IntegrationDivergenceError for
    # a divergence that never happened
    with pytest.raises(ValueError, match="dt must be positive"):
        step(np.zeros(4), 0.0, math.nan, default_coeffs())


def test_step_divergence_detection():
    c = default_coeffs()
    x = np.array([0.0, 1e308, 0.0, 0.0])
    with np.errstate(over="ignore"), pytest.raises(IntegrationDivergenceError):
        step(x, 0.0, 1.0, c)


@pytest.mark.parametrize("slot, value", [(0, math.nan), (3, math.nan), (0, math.inf)])
def test_step_non_finite_state_raises_divergence(slot, value):
    # a NaN or inf that reaches the output without sin() raising on it
    x = np.zeros(4)
    x[slot] = value
    with pytest.raises(IntegrationDivergenceError, match="t=0.5"):
        step(x, 1.0, 1e-3, default_coeffs(), t=0.5)


def test_disturbance_kinds():
    assert disturbance_value(DisturbanceSpec(), 3.0) == 0.0
    const = DisturbanceSpec(kind="constant", amplitude=0.4)
    assert disturbance_value(const, 0.0) == pytest.approx(0.4)
    assert disturbance_value(const, 9.9) == pytest.approx(0.4)
    sine = DisturbanceSpec(kind="sinusoid", amplitude=0.5, frequency=0.25)
    assert disturbance_value(sine, 0.0) == pytest.approx(0.0)
    assert disturbance_value(sine, 1.0) == pytest.approx(0.5 * math.sin(2.0 * math.pi * 0.25))


def test_disturbance_noise_seeded_and_band_limited():
    a = DisturbanceSpec(kind="band_limited_noise", amplitude=1.0, seed=3)
    b = DisturbanceSpec(kind="band_limited_noise", amplitude=1.0, seed=3)
    other = DisturbanceSpec(kind="band_limited_noise", amplitude=1.0, seed=4)
    ts = np.linspace(0.0, 20.0, 4001)
    va = np.array([disturbance_value(a, t) for t in ts])
    vb = np.array([disturbance_value(b, t) for t in ts])
    vo = np.array([disturbance_value(other, t) for t in ts])
    np.testing.assert_array_equal(va, vb)
    assert np.max(np.abs(va - vo)) > 1e-3
    # unit-amplitude spec has RMS near 1 over a long window
    assert 0.7 <= np.sqrt(np.mean(va**2)) <= 1.3


def test_disturbance_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="ramp")
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="constant", amplitude=-1.0)


@pytest.mark.parametrize("frequency", [math.nan, math.inf, 0.0, -1.0])
def test_sinusoid_disturbance_rejects_a_frequency_not_finite_and_positive(frequency):
    # a NaN frequency made disturbance_value NaN, and step then reported a
    # divergence for a state that never diverged
    with pytest.raises(ValueError, match="sinusoid disturbance frequency must be finite and positive"):
        DisturbanceSpec(kind="sinusoid", amplitude=0.1, frequency=frequency)
    for kind in ("none", "constant", "band_limited_noise"):
        DisturbanceSpec(kind=kind, amplitude=0.1, frequency=frequency)


def test_disturbance_rejects_nan_amplitude():
    # NaN fails every comparison; it passed the old amplitude < 0 guard
    with pytest.raises(ValueError, match="disturbance amplitude must be non-negative"):
        DisturbanceSpec(kind="constant", amplitude=math.nan)
