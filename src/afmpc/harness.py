"""Scenario configuration, closed-loop experiment runner, metrics, and CSV I/O.

Config files are plain text, one `key = value` per line with dotted section
prefixes and `#` comments. Unknown keys are errors, and every invalid entry
is reported at once. An empty file yields the default scenario: sinusoid
tracking with the adaptive controller's knobs at their tuned defaults and a
+20% gravity-coefficient model mismatch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .dense_linalg import NotPositiveDefiniteWarning, SingularLyapunovError, solve_lyapunov
from .plant import _DISTURBANCE_KINDS, CoeffSet, DisturbanceSpec, PlantParams, derive_coefficients
from . import fuzzy as fz
from .mpc import (
    AdaptationLoop,
    AdaptiveFuzzyPredictor,
    ClosedLoop,
    MpcConfig,
    NominalPredictor,
    TrajectoryLog,
    run_receding_horizon,
)

__all__ = [
    "CONTROLLERS",
    "ConfigError",
    "ReferenceSpec",
    "MismatchFactors",
    "ScenarioConfig",
    "RunMetrics",
    "default_config",
    "load_config",
    "dump_config",
    "reference_trajectory",
    "state_reference",
    "build_closed_loop",
    "run_scenario",
    "compute_metrics",
    "export_csv",
    "load_csv",
    "compare_report",
    "run_comparison",
    "CSV_HEADER",
]

# the CSV columns in file order, (name, type): TrajectoryLog's per-period
# fields in field order, states spread over x1..x4. str(type(v)) writes a
# value, a float in shortest round-trip form, and type(text) reads it back
_COLUMNS = (
    ("t", float), ("x1", float), ("x2", float), ("x3", float), ("x4", float),
    ("u", float), ("y_ref", float), ("e", float), ("V", float), ("w_diag", float),
    ("cost", float), ("status", str), ("evals", int),
)
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)

CONTROLLERS = ("classical", "afmpc")

_STEP_SMOOTH_WINDOW = 0.5  # seconds of quintic ramp after the step time


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists every problem found."""


@dataclass(frozen=True)
class ReferenceSpec:
    kind: str = "sinusoid"  # zero | step | sinusoid
    amplitude: float = 0.2  # rad
    frequency: float = 0.65  # Hz, sinusoid only
    step_time: float = 1.0  # seconds, step only
    consistent_arm: bool = True


@dataclass(frozen=True)
class MismatchFactors:
    """Multiplicative factors applied to the controller's model coefficients."""

    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.2
    a4: float = 1.0
    b1: float = 1.0
    b2: float = 1.0

    def apply(self, c: CoeffSet) -> CoeffSet:
        scaled = {f.name: getattr(c, f.name) * getattr(self, f.name) for f in fields(self)}
        return CoeffSet(**scaled)


@dataclass
class ScenarioConfig:
    plant: PlantParams
    controller: str
    mpc: MpcConfig
    fuzzy_counts: tuple
    fuzzy_ranges: tuple
    fuzzy_g_floor: float
    fuzzy_theta_bound: float
    fuzzy_init: str  # zero | nominal_fit
    fuzzy_init_samples: int
    adapt_gain: float
    lyapunov_a: np.ndarray
    lyapunov_q_diag: float
    reference: ReferenceSpec
    disturbance: DisturbanceSpec
    mismatch: MismatchFactors
    alpha0: float
    duration: float
    plant_dt: float
    seed: int


@dataclass(frozen=True)
class RunMetrics:
    rmse: float
    iae: float
    steady_state_error: float
    mean_evaluations: float  # horizon rollouts per solve
    max_evaluations: int


# config sections that a dataclass holds: section -> (dataclass, {field: key
# name} where the two differ); a key's default is its field's default, and
# the field takes the key's value unchanged
_SECTIONS = {
    "plant": (PlantParams, {"J1": "j1"}),
    "mpc": (
        MpcConfig,
        {
            "prediction_horizon": "kp",
            "control_horizon": "kc",
            "state_weight": "q_diag",
            "input_weight": "r",
            "input_bound": "u_max",
        },
    ),
    "reference": (ReferenceSpec, {}),
    "disturbance": (DisturbanceSpec, {}),
    "mismatch": (MismatchFactors, {}),
}


# section -> {field name: config key}, in field order
_FIELD_KEYS = {
    section: {f.name: f"{section}.{renames.get(f.name, f.name)}" for f in fields(cls)}
    for section, (cls, renames) in _SECTIONS.items()
}


def _section_defaults(section: str) -> dict:
    default = _SECTIONS[section][0]()
    return {key: getattr(default, name) for name, key in _FIELD_KEYS[section].items()}


# every legal key with its default, in file order; a key's type is its
# default's type (float, int, bool, str or a tuple of one of them)
_DEFAULTS: dict = {
    **_section_defaults("plant"),
    "controller": "classical",
    **_section_defaults("mpc"),
    "fuzzy.counts": (3, 3, 3, 3),
    "fuzzy.range_x1": (-math.pi, math.pi),
    "fuzzy.range_x2": (-8.0, 8.0),
    "fuzzy.range_x3": (-math.pi / 2, math.pi / 2),
    "fuzzy.range_x4": (-8.0, 8.0),
    "fuzzy.g_floor": 1.0,
    "fuzzy.theta_bound": 1e6,
    "fuzzy.init": "nominal_fit",
    "fuzzy.init_samples": 4000,
    "adapt.gain": 32.0,
    # corrected error-system matrix: Hurwitz, block-diagonal so the solved P
    # de-weights the unregulated arm channels in the adaptation drive
    "adapt.lyapunov_a": (
        -1.0, 0.0, 0.0, 0.0,
        0.0, -1.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 1.0,
        0.0, 0.0, -9.0, -4.8,
    ),
    "adapt.lyapunov_q_diag": 500.0,
    **_section_defaults("reference"),
    **_section_defaults("disturbance"),
    **_section_defaults("mismatch"),
    "scenario.alpha0": 0.0,
    "run.duration": 10.0,
    "run.dt": 0.001,
    "run.seed": 0,
}

# the legal values of each string key
_CHOICES = {
    "controller": CONTROLLERS,
    "fuzzy.init": ("zero", "nominal_fit"),
    "reference.kind": ("zero", "step", "sinusoid"),
    "disturbance.kind": _DISTURBANCE_KINDS,
}


def _parse_value(default, raw: str, choices: tuple = ()):
    """Parse raw as a value of default's type; a string must be a choice."""
    if isinstance(default, tuple):
        vals = tuple(_parse_value(default[0], v) for v in raw.split())
        if len(vals) != len(default):
            raise ValueError(f"expected {len(default)} values, got {len(vals)}")
        return vals
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ValueError("expected true or false")
    if isinstance(default, str):
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw
    if not isinstance(default, float):
        return int(raw)
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError("expected a finite number")
    return val


def _build_config(flat: dict) -> ScenarioConfig:
    errors: list[str] = []

    def section(name: str):
        kwargs = {field: flat[key] for field, key in _FIELD_KEYS[name].items()}
        try:
            return _SECTIONS[name][0](**kwargs)
        except ValueError as exc:
            errors.append(f"{name}: {exc}")
            return None

    plant = section("plant")
    mpc_cfg = section("mpc")
    ranges = []
    for i in (1, 2, 3, 4):
        lo, hi = flat[f"fuzzy.range_x{i}"]
        if not hi > lo:
            errors.append(f"fuzzy.range_x{i}: range ({lo}, {hi}) is not increasing")
        ranges.append((lo, hi))
    if any(c < 1 for c in flat["fuzzy.counts"]):
        errors.append("fuzzy.counts: every count must be >= 1")
    if flat["fuzzy.g_floor"] <= 0.0:
        errors.append("fuzzy.g_floor: must be positive")
    if flat["fuzzy.theta_bound"] <= 0.0:
        errors.append("fuzzy.theta_bound: must be positive")
    if flat["fuzzy.init_samples"] < 1:
        errors.append("fuzzy.init_samples: must be >= 1")
    if flat["adapt.gain"] < 0.0:
        errors.append("adapt.gain: must be non-negative")
    lyapunov_a = np.array(flat["adapt.lyapunov_a"]).reshape(4, 4)
    q = flat["adapt.lyapunov_q_diag"]
    if q <= 0.0:
        errors.append("adapt.lyapunov_q_diag: must be positive")
    else:
        # build_closed_loop's own solve, so that what passes here builds: P
        # is positive definite exactly when A is Hurwitz (Lyapunov's
        # theorem), and V = e'Pe is then a Lyapunov function of the error
        # system; an A whose P the solve cannot represent fails too
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", NotPositiveDefiniteWarning)
            try:
                solve_lyapunov(lyapunov_a, q * np.eye(4))
            except (SingularLyapunovError, NotPositiveDefiniteWarning):
                errors.append("adapt.lyapunov_a: must be Hurwitz")
    ref = section("reference")
    if flat["reference.kind"] == "sinusoid" and flat["reference.frequency"] <= 0.0:
        errors.append("reference.frequency: must be positive for a sinusoid reference")
    if flat["reference.step_time"] < 0.0:
        errors.append("reference.step_time: must be non-negative")
    dist = section("disturbance")
    for key in _FIELD_KEYS["mismatch"].values():
        if flat[key] <= 0.0:
            errors.append(f"{key}: factor must be positive")
    if flat["run.duration"] <= 0.0:
        errors.append("run.duration: must be positive")
    if flat["run.dt"] <= 0.0:
        errors.append("run.dt: must be positive")
    elif mpc_cfg is not None:
        ratio = mpc_cfg.dt / flat["run.dt"]
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            errors.append("mpc.dt: must be a positive integer multiple of run.dt")
        if flat["run.duration"] < mpc_cfg.dt:
            errors.append("run.duration: shorter than one control period")
    if flat["run.seed"] < 0:
        errors.append("run.seed: must be non-negative")
    if errors:
        raise ConfigError("\n".join(errors))
    return ScenarioConfig(
        plant=plant,
        controller=flat["controller"],
        mpc=mpc_cfg,
        fuzzy_counts=tuple(flat["fuzzy.counts"]),
        fuzzy_ranges=tuple(ranges),
        fuzzy_g_floor=flat["fuzzy.g_floor"],
        fuzzy_theta_bound=flat["fuzzy.theta_bound"],
        fuzzy_init=flat["fuzzy.init"],
        fuzzy_init_samples=flat["fuzzy.init_samples"],
        adapt_gain=flat["adapt.gain"],
        lyapunov_a=lyapunov_a,
        lyapunov_q_diag=flat["adapt.lyapunov_q_diag"],
        reference=ref,
        disturbance=dist,
        mismatch=section("mismatch"),
        alpha0=flat["scenario.alpha0"],
        duration=flat["run.duration"],
        plant_dt=flat["run.dt"],
        seed=flat["run.seed"],
    )


def default_config() -> ScenarioConfig:
    return _build_config(dict(_DEFAULTS))


def _assign(flat: dict, key: str, raw: str, where: str, errors: list) -> None:
    """Parse raw into flat[key], or append the error line to errors."""
    if key not in _DEFAULTS:
        errors.append(f"{where}: unknown key {key!r}")
        return
    try:
        flat[key] = _parse_value(_DEFAULTS[key], raw, _CHOICES.get(key, ()))
    except ValueError as exc:
        errors.append(f"{where}: {key}: {exc}")


def _parse_lines(text: str, source: str) -> dict:
    """Parse key = value lines onto the defaults; all errors at once."""
    flat = dict(_DEFAULTS)
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        _assign(flat, key, raw, f"{source}:{lineno}", errors)
    if errors:
        raise ConfigError("\n".join(errors))
    return flat


def load_config(path: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Read, merge onto defaults, and validate a scenario config file.

    `overrides` maps config keys to raw value strings applied after the
    file (used by the CLI for --controller/--seed).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    flat = _parse_lines(text, path)
    errors: list[str] = []
    for key, raw in (overrides or {}).items():
        _assign(flat, key, raw, "override", errors)
    if errors:
        raise ConfigError("\n".join(errors))
    return _build_config(flat)


def _format_value(default, value) -> str:
    if isinstance(default, tuple):
        return " ".join(_format_value(default[0], v) for v in value)
    if isinstance(default, bool):
        return "true" if value else "false"
    if isinstance(default, float):
        return repr(float(value))
    if isinstance(default, int):
        return str(int(value))
    return str(value)


def dump_config(flat: Optional[dict] = None) -> str:
    """Render a flat key dict (defaults when omitted) as a config file."""
    if flat is None:
        flat = _DEFAULTS
    lines = [f"{key} = {_format_value(default, flat[key])}" for key, default in _DEFAULTS.items()]
    return "\n".join(lines) + "\n"


def reference_trajectory(spec: ReferenceSpec, t: float):
    """Reference output y and its time derivative at time t, as (y, y')."""
    if spec.kind == "zero":
        return (0.0, 0.0)
    if spec.kind == "sinusoid":
        w = 2.0 * math.pi * spec.frequency
        a = spec.amplitude
        return (a * math.sin(w * t), a * w * math.cos(w * t))
    # step: quintic ramp over a fixed smoothing window, then flat
    if t < spec.step_time:
        return (0.0, 0.0)
    tau = (t - spec.step_time) / _STEP_SMOOTH_WINDOW
    if tau >= 1.0:
        return (spec.amplitude, 0.0)
    a = spec.amplitude
    s = tau * tau * tau * (10.0 - 15.0 * tau + 6.0 * tau * tau)
    s1 = 30.0 * tau * tau - 60.0 * tau ** 3 + 30.0 * tau ** 4
    return (a * s, a * s1 / _STEP_SMOOTH_WINDOW)


def state_reference(spec: ReferenceSpec, coeffs: CoeffSet, t: float) -> np.ndarray:
    """Four-state reference for the tracking error.

    The pendulum channels follow the reference output and its derivative.
    For a sinusoid with consistent_arm, the arm channels carry the
    closed-form periodic arm motion that makes the output trajectory
    dynamically realizable (linearized about upright); otherwise the arm
    reference is zero and only the output channels are meaningful.
    """
    y, yd = reference_trajectory(spec, t)
    if (
        spec.consistent_arm
        and spec.kind == "sinusoid"
        and spec.frequency > 0.0
        and spec.amplitude != 0.0
    ):
        w = 2.0 * math.pi * spec.frequency
        a = spec.amplitude
        ratio = coeffs.b1 / coeffs.b2
        x2r = ratio * (a * (w * w + coeffs.a3) / w * math.cos(w * t) - coeffs.a4 * a * math.sin(w * t))
        x1r = ratio * (
            a * (w * w + coeffs.a3) / (w * w) * math.sin(w * t)
            + coeffs.a4 * a / w * math.cos(w * t)
        )
        return np.array([x1r, x2r, y, yd])
    return np.array([0.0, 0.0, y, yd])


def build_closed_loop(config: ScenarioConfig):
    """Assemble the simulation pieces for one scenario.

    Returns (loop, x0, steps). The plant always integrates the true
    coefficients; the controller's prediction model sees the mismatched
    ones.
    """
    true_coeffs = derive_coefficients(config.plant)
    nominal = config.mismatch.apply(true_coeffs)
    p_mat = solve_lyapunov(config.lyapunov_a, config.lyapunov_q_diag * np.eye(4))

    def x_ref_fn(t: float) -> np.ndarray:
        return state_reference(config.reference, true_coeffs, t)

    adaptation = None
    if config.controller == "afmpc":
        model_fz = fz.build_rule_grid(
            config.fuzzy_counts, config.fuzzy_ranges, config.fuzzy_g_floor
        )
        if config.fuzzy_init == "nominal_fit":
            # fair prior: fit the consequents to the same mismatched model
            # the classical controller uses, nothing more
            def target(batch: np.ndarray) -> np.ndarray:
                return (
                    nominal.a2 * batch[:, 1]
                    + nominal.a3 * np.sin(batch[:, 2])
                    + nominal.a4 * batch[:, 3]
                )

            model_fz = fz.fit_consequents_lsq(
                model_fz,
                target,
                g_value=nominal.b2,
                n_samples=config.fuzzy_init_samples,
                seed=config.seed,
            )
        predictor = AdaptiveFuzzyPredictor(model_fz, nominal, config.mpc.dt)
        adaptation = AdaptationLoop(
            gain=config.adapt_gain,
            theta_bound=config.fuzzy_theta_bound,
        )
    elif config.controller == "classical":
        predictor = NominalPredictor(nominal, config.mpc.dt)
    else:
        raise ConfigError(f"unknown controller {config.controller!r}")

    loop = ClosedLoop(
        model=predictor,
        config=config.mpc,
        true_coeffs=true_coeffs,
        x_ref_fn=x_ref_fn,
        lyapunov_p=p_mat,
        disturbance=None if config.disturbance.kind == "none" else config.disturbance,
        plant_dt=config.plant_dt,
        adaptation=adaptation,
    )
    x0 = x_ref_fn(0.0) + np.array([0.0, 0.0, config.alpha0, 0.0])
    steps = int(round(config.duration / config.mpc.dt))
    return loop, x0, steps


def run_scenario(config: ScenarioConfig):
    """Run one closed loop; returns (TrajectoryLog, RunMetrics)."""
    loop, x0, steps = build_closed_loop(config)
    log = run_receding_horizon(x0, loop, steps)
    return log, compute_metrics(log, config.mpc.dt)


def compute_metrics(log: TrajectoryLog, dt: float) -> RunMetrics:
    """Error and solver-effort summary of a run."""
    n = len(log)
    if n == 0:
        raise ValueError("cannot compute metrics of an empty log")
    abs_e = np.abs(log.e)
    tail = abs_e[int(math.floor(0.8 * n)):]
    return RunMetrics(
        rmse=float(np.sqrt(np.mean(log.e ** 2))),
        iae=float(np.sum(abs_e) * dt),
        steady_state_error=float(np.mean(tail)),
        mean_evaluations=float(np.mean(log.evaluations)),
        max_evaluations=int(np.max(log.evaluations)),
    )


def export_csv(log: TrajectoryLog, path: str) -> None:
    """Write the log as CSV, one row per period; floats in shortest round-trip form."""
    # the columns are the log's arrays and lists in field order, states split
    values = [getattr(log, f.name) for f in fields(log)]
    per_period = [v for v in values if isinstance(v, (np.ndarray, list))]
    columns = [col for v in per_period for col in (v.T if np.ndim(v) == 2 else [v])]
    # formatted row by row: all cells at once would raise the peak memory
    rows = (
        ",".join(str(kind(v)) for (_, kind), v in zip(_COLUMNS, row, strict=True))
        for row in zip(*columns)
    )
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


def load_csv(path: str) -> dict:
    """Parse a CSV written by export_csv: status a list of strings, other columns arrays."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise OSError(f"failed reading CSV from {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    columns: list[list] = [[] for _ in _COLUMNS]
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
        for (name, kind), column, part in zip(_COLUMNS, columns, parts):
            try:
                column.append(kind(part))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: column {name}: {exc}") from exc
    return {
        name: column if kind is str else np.array(column)
        for (name, kind), column in zip(_COLUMNS, columns)
    }


def _metrics_line(name: str, m: RunMetrics) -> str:
    return (
        f"{name:<10} rmse={m.rmse:.6f} rad  iae={m.iae:.6f} rad*s  "
        f"steady_state={m.steady_state_error:.6f} rad  "
        f"evals mean={m.mean_evaluations:.3f} max={m.max_evaluations}"
    )


def compare_report(metrics_classical: RunMetrics, metrics_afmpc: RunMetrics) -> str:
    """Plain-text summary of a paired run, including the steady-state ratio."""
    c = metrics_classical.steady_state_error
    a = metrics_afmpc.steady_state_error
    if c > 0.0:
        ratio = a / c
    else:
        ratio = 1.0 if a == c else float("inf")
    return (
        "\n".join(
            [
                "controller comparison on the shared scenario",
                _metrics_line("classical", metrics_classical),
                _metrics_line("afmpc", metrics_afmpc),
                f"steady-state error ratio (afmpc / classical): {ratio:.6f}",
            ]
        )
        + "\n"
    )


def run_comparison(config: ScenarioConfig):
    """Run both controllers on one scenario.

    Returns (log_classical, metrics_classical, log_afmpc, metrics_afmpc,
    report_text).
    """
    log_c, met_c = run_scenario(replace(config, controller="classical"))
    log_a, met_a = run_scenario(replace(config, controller="afmpc"))
    return log_c, met_c, log_a, met_a, compare_report(met_c, met_a)
