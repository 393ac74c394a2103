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
        for name in ("m1", "J1", "g", "l1", "k_p"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("c1", "k1"):
            if getattr(self, name) < 0.0:
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
    if params.J1 <= 0.0:
        raise ValueError("J1 must be positive")
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
        if self.amplitude < 0.0:
            raise ValueError("disturbance amplitude must be non-negative")


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


def dynamics(state: np.ndarray, u: float, coeffs: CoeffSet, d: float = 0.0) -> np.ndarray:
    """State derivative of the pendulum model."""
    x2 = state[1]
    x4 = state[3]
    return np.array(
        [
            x2,
            coeffs.a1 * x2 + coeffs.b1 * u,
            x4,
            coeffs.a2 * x2 + coeffs.a3 * math.sin(state[2]) + coeffs.a4 * x4 + coeffs.b2 * (u + d),
        ]
    )


def rk4(field_fn, x: np.ndarray, dt: float, d=(0.0, 0.0, 0.0)) -> np.ndarray:
    """One classical RK4 step of x' = field_fn(x, d).

    d holds the disturbance at the start, the middle and the end of the
    step; the two middle stages share the middle value.
    """
    d0, dm, d1 = d
    k1 = field_fn(x, d0)
    k2 = field_fn(x + 0.5 * dt * k1, dm)
    k3 = field_fn(x + 0.5 * dt * k2, dm)
    k4 = field_fn(x + dt * k3, d1)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(
    state: np.ndarray,
    u: float,
    dt: float,
    coeffs: CoeffSet,
    disturbance: DisturbanceSpec | None = None,
    t: float = 0.0,
) -> np.ndarray:
    """Advance the state one RK4 step with the input held constant."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if disturbance is None:
        d = (0.0, 0.0, 0.0)
    else:
        d = (
            disturbance_value(disturbance, t),
            disturbance_value(disturbance, t + 0.5 * dt),
            disturbance_value(disturbance, t + dt),
        )
    try:
        # sin() of an overflowed angle raises; fold that into divergence
        out = rk4(lambda s, dd: dynamics(s, u, coeffs, dd), state, dt, d)
    except (ValueError, OverflowError) as exc:
        raise IntegrationDivergenceError(f"integration diverged at t={t}") from exc
    if not np.all(np.isfinite(out)):
        raise IntegrationDivergenceError(f"integration diverged at t={t}")
    return out
