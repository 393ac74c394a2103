"""Rotational inverted pendulum dynamics and fixed-step integration.

State convention: x = (x1, x2, x3, x4) = (arm angle, arm velocity,
pendulum angle, pendulum velocity), angles in radians, unwrapped.
x3 = 0 is the upright (unstable) equilibrium; the controlled output
is y = x3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlantParams",
    "CoeffSet",
    "DisturbanceSpec",
    "IntegrationDivergenceError",
    "derive_coefficients",
    "disturbance_value",
    "dynamics",
    "rk4",
    "step",
]


class IntegrationDivergenceError(RuntimeError):
    """Raised when an integration step produces a non-finite state."""


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the arm-pendulum assembly."""

    m1: float = 0.0861     # pendulum mass (kg)
    k1: float = 0.0019     # arm-to-pendulum coupling coefficient
    a_p: float = 33.04     # arm dynamic coefficient (1/s)
    J1: float = 0.0010     # pendulum inertia (kg m^2)
    g: float = 9.8066      # gravity (m/s^2)
    l1: float = 0.113      # pendulum length to center of mass (m)
    c1: float = 0.0029     # pendulum viscous damping
    k_p: float = 74.89     # input gain of the arm drive

    def __post_init__(self) -> None:
        # not > 0 and not >= 0, so that NaN fails too
        for name in ("m1", "J1", "g", "l1", "k_p"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("c1", "k1"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass(frozen=True)
class CoeffSet:
    """Derived dynamic coefficients of the state-space model.

    The model is
        x1' = x2
        x2' = a1*x2 + b1*u
        x3' = x4
        x4' = a2*x2 + a3*sin(x3) + a4*x4 + b2*(u + d)
    """

    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    b2: float


def derive_coefficients(params: PlantParams) -> CoeffSet:
    """Compute the six dynamic coefficients from the physical constants."""
    return CoeffSet(
        a1=-params.a_p,
        a2=-params.k1 * params.a_p / params.J1,
        a3=params.m1 * params.g * params.l1 / params.J1,
        a4=-params.c1 / params.J1,
        b1=params.k_p,
        b2=params.k1 * params.k_p / params.J1,
    )


_DISTURBANCE_KINDS = ("none", "constant", "sinusoid", "band_limited_noise")

# band-limited noise is a fixed sum of seeded random tones below this cutoff
_NOISE_CUTOFF_HZ = 2.0
_NOISE_TONES = 16


@dataclass(frozen=True)
class DisturbanceSpec:
    """Additive disturbance on the control channel of the pendulum equation."""

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 1.0   # Hz, sinusoid only
    seed: int = 0            # noise only

    def __post_init__(self) -> None:
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}, expected one of {_DISTURBANCE_KINDS}")
        if not self.amplitude >= 0.0:
            raise ValueError("disturbance amplitude must be non-negative")
        if self.kind == "sinusoid" and not 0.0 < self.frequency < math.inf:
            raise ValueError(f"sinusoid disturbance frequency must be finite and positive, got {self.frequency}")
        if self.seed < 0:
            raise ValueError("disturbance seed must be non-negative")


@functools.cache
def _noise_table(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.05, _NOISE_CUTOFF_HZ, _NOISE_TONES)
    phases = rng.uniform(0.0, 2.0 * math.pi, _NOISE_TONES)
    return freqs, phases


def disturbance_value(spec: DisturbanceSpec, t: float) -> float:
    """Evaluate the disturbance at time t (deterministic for a fixed spec)."""
    if spec.kind == "none" or spec.amplitude == 0.0:
        return 0.0
    if spec.kind == "constant":
        return spec.amplitude
    if spec.kind == "sinusoid":
        return spec.amplitude * math.sin(2.0 * math.pi * spec.frequency * t)
    freqs, phases = _noise_table(spec.seed)
    # unit-RMS tone sum scaled by the amplitude
    s = float(np.sum(np.sin(2.0 * math.pi * freqs * t + phases)))
    return spec.amplitude * s / math.sqrt(_NOISE_TONES / 2.0)


def dynamics(state, u: float, coeffs: CoeffSet, d: float = 0.0) -> tuple[float, float, float, float]:
    """State derivative of the pendulum model, as 4 floats."""
    _, x2, x3, x4 = state
    return (
        x2,
        coeffs.a1 * x2 + coeffs.b1 * u,
        x4,
        coeffs.a2 * x2 + coeffs.a3 * math.sin(x3) + coeffs.a4 * x4 + coeffs.b2 * (u + d),
    )


def rk4(field_fn, x, dt: float, d=(0.0, 0.0, 0.0), tangents=None):
    """One classical RK4 step of x' = field_fn(x, d) from the 4 floats x.

    field_fn maps 4 floats and a disturbance to 4 floats. The stages (k1 to
    k4, components a, b, c, e) run on Python floats, several times cheaper
    than numpy at this size, in the operation order of the ndarray form
    x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), which they match bit
    for bit, and the step returns its 4 floats as a tuple, so that the
    next step takes it as it is. x may be any 4-sequence, but an ndarray's
    entries enter as numpy scalars: a caller holding an ndarray passes
    tolist(). d holds the disturbance at the start, the middle and the end
    of the step; the two middle stages share the middle value.

    With tangents, a sequence of 5-sequences (a state tangent dx and an
    input tangent du each), the step also carries each tangent through the
    same four stages, as the exact derivative of the step. field_fn is then
    called as field_fn(x, d, True) and returns its 4 floats together with
    jvp, the Jacobian-vector product of the field at that stage: jvp(dx1,
    dx2, dx3, dx4, du) gives 4 floats. The state is computed as without
    tangents, bit for bit, and the step returns (state, list of the new
    state tangents as 4-tuples); the input is held over the step, so du is
    the caller's to set for the next one.
    """
    d0, dm, d1 = d
    if tangents is None:
        stage = field_fn
    else:
        jvps = []

        def stage(s, dd):
            k, jvp = field_fn(s, dd, True)
            jvps.append(jvp)
            return k

    x1, x2, x3, x4 = x
    h = 0.5 * dt
    a1, a2, a3, a4 = stage((x1, x2, x3, x4), d0)
    b1, b2, b3, b4 = stage((x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4), dm)
    c1, c2, c3, c4 = stage((x1 + h * b1, x2 + h * b2, x3 + h * b3, x4 + h * b4), dm)
    e1, e2, e3, e4 = stage((x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4), d1)
    w = dt / 6.0
    out = (
        x1 + w * (((a1 + 2.0 * b1) + 2.0 * c1) + e1),
        x2 + w * (((a2 + 2.0 * b2) + 2.0 * c2) + e2),
        x3 + w * (((a3 + 2.0 * b3) + 2.0 * c3) + e3),
        x4 + w * (((a4 + 2.0 * b4) + 2.0 * c4) + e4),
    )
    if tangents is None:
        return out
    ja, jb, jc, je = jvps
    moved = []
    for t1, t2, t3, t4, tu in tangents:
        a1, a2, a3, a4 = ja(t1, t2, t3, t4, tu)
        b1, b2, b3, b4 = jb(t1 + h * a1, t2 + h * a2, t3 + h * a3, t4 + h * a4, tu)
        c1, c2, c3, c4 = jc(t1 + h * b1, t2 + h * b2, t3 + h * b3, t4 + h * b4, tu)
        e1, e2, e3, e4 = je(t1 + dt * c1, t2 + dt * c2, t3 + dt * c3, t4 + dt * c4, tu)
        moved.append(
            (
                t1 + w * (((a1 + 2.0 * b1) + 2.0 * c1) + e1),
                t2 + w * (((a2 + 2.0 * b2) + 2.0 * c2) + e2),
                t3 + w * (((a3 + 2.0 * b3) + 2.0 * c3) + e3),
                t4 + w * (((a4 + 2.0 * b4) + 2.0 * c4) + e4),
            )
        )
    return out, moved


def step(
    state: np.ndarray,
    u: float,
    dt: float,
    coeffs: CoeffSet,
    disturbance: DisturbanceSpec | None = None,
    t: float = 0.0,
) -> np.ndarray:
    """Advance the state one RK4 step with the input held constant; returns
    an ndarray."""
    # not > 0, so that a NaN dt fails here, not as a divergence
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    d = (0.0, 0.0, 0.0)
    if disturbance is not None:
        d = tuple(disturbance_value(disturbance, ti) for ti in (t, t + 0.5 * dt, t + dt))
    x = np.asarray(state, dtype=float).tolist()
    try:
        # sin() of an overflowed angle raises; fold that into divergence
        out = rk4(lambda s, dd: dynamics(s, u, coeffs, dd), x, dt, d)
    except (ValueError, OverflowError) as exc:
        raise IntegrationDivergenceError(f"integration diverged at t={t}") from exc
    if not all(map(math.isfinite, out)):
        raise IntegrationDivergenceError(f"integration diverged at t={t}")
    return np.array(out)
