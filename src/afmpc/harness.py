"""Scenario configuration, closed-loop experiment runner, metrics, and CSV I/O.

Config files are plain text, one `key = value` per line with dotted section
prefixes and `#` comments. Unknown keys are errors, each number must lie in
its key's interval (`_DOMAINS`), and every invalid entry is reported at
once. An empty file yields the default scenario: sinusoid
tracking with the adaptive controller's knobs at their tuned defaults and a
+20% gravity-coefficient model mismatch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .dense_linalg import NotPositiveDefiniteWarning, SingularLyapunovError, solve_lyapunov
from .plant import _DISTURBANCE_KINDS, CoeffSet, DisturbanceSpec, PlantParams, derive_coefficients
from . import fuzzy as fz
from .mpc import (
    AdaptiveFuzzyPredictor,
    ClosedLoop,
    MpcConfig,
    NominalPredictor,
    TrajectoryLog,
    _whole_multiple,
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


# the end of RK4's stability interval on the negative real axis, -2.7853: the
# nonzero real root of 1 + z + z^2/2 + z^3/6 + z^4/24 = 1, RK4's growth factor
# per step of a mode x' = z x / h; a step whose z lies beyond it grows the mode
_RK4_REAL_LIMIT = 2.785293563405289

# caps that keep a run in memory, far above every scenario in the repo: plant
# steps per control period, fuzzy rules, and float64 entries (2^26 is 512 MB)
# of the nominal_fit prior's init_samples x rules basis matrix
_MAX_SUB_STEPS, _MAX_RULES, _MAX_FIT_ENTRIES = 100_000, 8192, 2**26


class ConfigError(ValueError):
    """Invalid scenario configuration; message lists every problem found."""


_REFERENCE_KINDS = ("zero", "step", "sinusoid")


@dataclass(frozen=True)
class ReferenceSpec:
    kind: str = "sinusoid"  # one of _REFERENCE_KINDS
    amplitude: float = 0.2  # rad
    frequency: float = 0.65  # Hz, sinusoid only
    step_time: float = 1.0  # seconds, step only
    consistent_arm: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _REFERENCE_KINDS:
            raise ValueError(f"unknown reference kind {self.kind!r}, expected one of {_REFERENCE_KINDS}")


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


@dataclass(frozen=True)
class RunMetrics:
    rmse: float
    iae: float
    steady_state_error: float
    mean_evaluations: float  # horizon rollouts per solve
    max_evaluations: int


def _key(name: str, default):
    """A ScenarioConfig field that holds config key `name`'s value as parsed."""
    return field(metadata={"key": name, "default": default})


@dataclass
class ScenarioConfig:
    """The config file's schema: its fields in file order, each a section
    dataclass of _SECTIONS or a single key declared by _key."""

    plant: PlantParams
    controller: str = _key("controller", "classical")
    mpc: MpcConfig
    fuzzy_counts: tuple = _key("fuzzy.counts", (3, 3, 3, 3))
    fuzzy_range_x1: tuple = _key("fuzzy.range_x1", (-math.pi, math.pi))
    fuzzy_range_x2: tuple = _key("fuzzy.range_x2", (-8.0, 8.0))
    fuzzy_range_x3: tuple = _key("fuzzy.range_x3", (-math.pi / 2, math.pi / 2))
    fuzzy_range_x4: tuple = _key("fuzzy.range_x4", (-8.0, 8.0))
    fuzzy_g_floor: float = _key("fuzzy.g_floor", 1.0)
    fuzzy_theta_bound: float = _key("fuzzy.theta_bound", 1e6)
    fuzzy_init: str = _key("fuzzy.init", "nominal_fit")  # zero | nominal_fit
    fuzzy_init_samples: int = _key("fuzzy.init_samples", 4000)
    adapt_gain: float = _key("adapt.gain", 32.0)
    # corrected error-system matrix, row-major: Hurwitz, block-diagonal so
    # the solved P de-weights the unregulated arm channels in the
    # adaptation drive
    lyapunov_a: tuple = _key("adapt.lyapunov_a", (
        -1.0, 0.0, 0.0, 0.0,
        0.0, -1.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 1.0,
        0.0, 0.0, -9.0, -4.8,
    ))
    lyapunov_q_diag: float = _key("adapt.lyapunov_q_diag", 500.0)
    reference: ReferenceSpec
    disturbance: DisturbanceSpec
    mismatch: MismatchFactors
    alpha0: float = _key("scenario.alpha0", 0.0)
    duration: float = _key("run.duration", 10.0)
    plant_dt: float = _key("run.dt", 0.001)
    seed: int = _key("run.seed", 0)


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


def _field_defaults(f) -> dict:
    """The config keys that ScenarioConfig field f holds, with their defaults."""
    if f.name not in _SECTIONS:
        return {f.metadata["key"]: f.metadata["default"]}
    default = _SECTIONS[f.name][0]()
    return {key: getattr(default, name) for name, key in _FIELD_KEYS[f.name].items()}


# every legal key with its default, in file order; a key's type is its
# default's type (float, int, bool, str or a tuple of one of them)
_DEFAULTS: dict = {key: v for f in fields(ScenarioConfig) for key, v in _field_defaults(f).items()}

# the legal values of each string key
_CHOICES = {
    "controller": CONTROLLERS,
    "fuzzy.init": ("zero", "nominal_fit"),
    "reference.kind": _REFERENCE_KINDS,
    "disturbance.kind": _DISTURBANCE_KINDS,
}


# the interval of each number key, as its error line writes it; each entry
# of a tuple key must lie in it. The finite bounds keep the run finite: at
# every corner of the plant, reference.amplitude and reference.frequency
# domains x0 stays below 1e36, and a sinusoid's phase 2 pi f t stays below
# 6.3e15 up to t_end = run.duration + mpc.kp * mpc.dt, as mpc.dt <=
# run.duration. The others are sign rules, each section dataclass's among them
_DOMAINS = {
    **dict.fromkeys((f"plant.{name}" for name in ("m1", "k1", "j1", "g", "l1", "k_p")), "[1e-6, 1e6]"),
    **dict.fromkeys(("plant.a_p", "plant.c1", "reference.step_time", "disturbance.amplitude"), "[0, 1e6]"),
    "mpc.kp": "[1, 1000]",
    **dict.fromkeys(("mpc.kc", "fuzzy.counts", "fuzzy.init_samples"), "[1, inf)"),
    **dict.fromkeys(("mpc.q_diag", "mpc.r", "mpc.dt", "fuzzy.g_floor", "fuzzy.theta_bound", "run.dt"), "(0, inf)"),
    **dict.fromkeys(("adapt.lyapunov_q_diag", *_FIELD_KEYS["mismatch"].values()), "(0, inf)"),
    **dict.fromkeys(("mpc.u_max", "adapt.gain", "disturbance.seed", "run.seed"), "[0, inf)"),
    **dict.fromkeys(("reference.amplitude", "scenario.alpha0"), "[-1e6, 1e6]"),
    **dict.fromkeys(("reference.frequency", "disturbance.frequency"), "[1e-6, 1e6]"),
    "run.duration": "(0, 1e6]",
}


def _parse_value(default, raw: str, choices: tuple = (), domain: Optional[str] = None):
    """Parse raw as a value of default's type; a string must be a choice,
    and a number, or each number of a tuple, must lie in the interval domain."""
    if isinstance(default, tuple):
        value = tuple(_parse_value(default[0], v) for v in raw.split())
        if len(value) != len(default):
            raise ValueError(f"expected {len(default)} values, got {len(value)}")
    elif isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ValueError("expected true or false")
    elif isinstance(default, str):
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw
    elif isinstance(default, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("expected a finite number")
    else:
        value = int(raw)
    if domain is not None:
        # ints compare with the float bounds exactly, however many digits
        lo, hi = (float(bound) for bound in domain[1:-1].split(","))
        for v in value if isinstance(value, tuple) else (value,):
            if not ((lo < v or domain[0] == "[" and v == lo) and (v < hi or domain[-1] == "]" and v == hi)):
                raise ValueError(f"must be in {domain}, got {raw}")
    return value


def _section(flat: dict, name: str):
    """The dataclass of section name, built from flat's values of its keys."""
    return _SECTIONS[name][0](**{attr: flat[key] for attr, key in _FIELD_KEYS[name].items()})


def _build_config(flat: dict) -> ScenarioConfig:
    """The ScenarioConfig of flat, each of whose values lies in its key's
    domain; raises ConfigError listing every check between keys that fails,
    K_c <= K_p among them, so that every section dataclass then builds."""
    errors: list[str] = []
    if flat["mpc.kc"] > flat["mpc.kp"]:
        errors.append(f"mpc.kc: must not exceed mpc.kp = {flat['mpc.kp']}, got {flat['mpc.kc']}")
    rules = math.prod(flat["fuzzy.counts"])
    fit = flat["fuzzy.init_samples"] * rules if flat["fuzzy.init"] == "nominal_fit" else 0
    if rules > _MAX_RULES:
        errors.append(f"fuzzy.counts: gives {rules} rules, beyond the limit {_MAX_RULES}")
    elif fit > _MAX_FIT_ENTRIES:
        errors.append(
            f"fuzzy.init_samples: fuzzy.init_samples * rules is {fit}, beyond the nominal_fit limit {_MAX_FIT_ENTRIES}"
        )
    for i in (1, 2, 3, 4):
        lo, hi = flat[f"fuzzy.range_x{i}"]
        if not hi > lo:
            errors.append(f"fuzzy.range_x{i}: range ({lo}, {hi}) is not increasing")
    # build_closed_loop's own solve, so that what passes here builds: P is
    # positive definite exactly when A is Hurwitz (Lyapunov's theorem), and
    # V = e'Pe is then a Lyapunov function of the error system; an A whose P
    # the solve cannot represent fails too
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", NotPositiveDefiniteWarning)
        try:
            solve_lyapunov(np.reshape(flat["adapt.lyapunov_a"], (4, 4)), flat["adapt.lyapunov_q_diag"] * np.eye(4))
        except (SingularLyapunovError, NotPositiveDefiniteWarning):
            errors.append("adapt.lyapunov_a: must be Hurwitz")
    mpc_dt, run_dt = flat["mpc.dt"], flat["run.dt"]
    if not _whole_multiple(mpc_dt, run_dt):
        errors.append("mpc.dt: must be a positive integer multiple of run.dt")
    # the loop's step count per period is the ratio rounded
    if mpc_dt / run_dt >= _MAX_SUB_STEPS + 0.5:
        errors.append(f"mpc.dt: mpc.dt / run.dt is {mpc_dt / run_dt:.4g}, beyond the limit {_MAX_SUB_STEPS:.4g}")
    if flat["run.duration"] < mpc_dt:
        errors.append("run.duration: shorter than one control period")
    elif not _whole_multiple(flat["run.duration"], mpc_dt):
        # build_closed_loop would round the period count without a word
        errors.append("run.duration: must be a whole number of control periods")
    # each model's fastest decay, a_p or c1 / J1 (a1 = -a_p, a4 = -c1 / J1),
    # over one RK4 step: the plant's at run.dt, the predictor's mismatched
    # coefficients' at mpc.dt
    true_coeffs = derive_coefficients(_section(flat, "plant"))
    steps = (
        ("run.dt", run_dt, true_coeffs, "a_p, c1 / J1"),
        ("mpc.dt", mpc_dt, _section(flat, "mismatch").apply(true_coeffs), "a_p * mismatch.a1, c1 / J1 * mismatch.a4"),
    )
    for key, h, c, rates in steps:
        reach = h * max(-c.a1, -c.a4)
        if reach > _RK4_REAL_LIMIT:
            errors.append(
                f"{key}: {key} * max({rates}) is {reach:.4g}, beyond RK4's stability limit {_RK4_REAL_LIMIT:.4g}"
            )
    if errors:
        raise ConfigError("\n".join(errors))
    keys = {f.name: flat[f.metadata["key"]] for f in fields(ScenarioConfig) if f.name not in _SECTIONS}
    return ScenarioConfig(**keys, **{name: _section(flat, name) for name in _SECTIONS})


def default_config() -> ScenarioConfig:
    return _build_config(dict(_DEFAULTS))


def _assign(flat: dict, key: str, raw: str, where: str, errors: list) -> None:
    """Parse raw into flat[key], or append the error line to errors."""
    if key not in _DEFAULTS:
        errors.append(f"{where}: unknown key {key!r}")
        return
    try:
        flat[key] = _parse_value(_DEFAULTS[key], raw, _CHOICES.get(key, ()), _DOMAINS.get(key))
    except ValueError as exc:
        errors.append(f"{where}: {key}: {exc}")


def load_config(path: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Read, merge onto defaults, and validate a scenario config file.

    `overrides` maps config keys to raw value strings applied after the
    file (used by the CLI for --controller/--seed). Every line of the file
    and every override that does not parse, or whose number lies outside
    its key's domain, is reported, in that order, in one ConfigError; then,
    so that no default standing in for a bad entry adds a line of its own,
    every failed check between keys is reported, each on a key-named line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    flat = dict(_DEFAULTS)
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        _assign(flat, key, raw, f"{path}:{lineno}", errors)
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


def state_reference(spec: ReferenceSpec, coeffs: CoeffSet, t) -> np.ndarray:
    """Four-state reference for the tracking error at the times t: shape
    (4,) for a float t, (n, 4) for n times.

    The pendulum channels carry the reference output y and its time
    derivative. For a sinusoid with consistent_arm, the arm channels carry
    the closed-form periodic arm motion that makes the output trajectory
    dynamically realizable (linearized about upright), from the output's
    own sin(w t) and cos(w t); otherwise the arm reference is zero and only
    the output channels are meaningful.

    Each row is the scalar math module's formula, bit for bit: np.sin and
    np.cos round as math.sin and math.cos, np.float_power as Python's ** on
    floats (numpy's own ** does not), and np.where keeps the exact 0.0 and
    amplitude of the step's flat parts, signs of zero included.
    """
    t = np.asarray(t, dtype=float)
    a = spec.amplitude
    x1r = x2r = y = yd = np.zeros(t.shape)  # zeros_like costs 5 times as much
    if spec.kind == "sinusoid":
        w = 2.0 * math.pi * spec.frequency
        wt = w * t
        sin_wt, cos_wt = np.sin(wt), np.cos(wt)
        y, yd = a * sin_wt, a * w * cos_wt
        if spec.consistent_arm and spec.frequency > 0.0 and a != 0.0:
            ratio = coeffs.b1 / coeffs.b2
            x2r = ratio * (a * (w * w + coeffs.a3) / w * cos_wt - coeffs.a4 * a * sin_wt)
            x1r = ratio * (a * (w * w + coeffs.a3) / (w * w) * sin_wt + coeffs.a4 * a / w * cos_wt)
    elif spec.kind == "step":
        # quintic ramp over a fixed smoothing window, flat before and after
        tau = (t - spec.step_time) / _STEP_SMOOTH_WINDOW
        before, after = t < spec.step_time, tau >= 1.0
        s = tau * tau * tau * (10.0 - 15.0 * tau + 6.0 * tau * tau)
        s1 = 30.0 * tau * tau - 60.0 * np.float_power(tau, 3) + 30.0 * np.float_power(tau, 4)
        y = np.where(before, 0.0, np.where(after, a, a * s))
        yd = np.where(before | after, 0.0, a * s1 / _STEP_SMOOTH_WINDOW)
    # rows in C order, so that each time's reference is contiguous
    return np.array([x1r, x2r, y, yd]).T.copy()


def build_closed_loop(config: ScenarioConfig):
    """Assemble the simulation pieces for one scenario.

    Returns (loop, x0, steps). The plant always integrates the true
    coefficients; the controller's prediction model sees the mismatched
    ones.
    """
    true_coeffs = derive_coefficients(config.plant)
    nominal = config.mismatch.apply(true_coeffs)
    p_mat = solve_lyapunov(np.reshape(config.lyapunov_a, (4, 4)), config.lyapunov_q_diag * np.eye(4))

    def x_ref_fn(t) -> np.ndarray:
        return state_reference(config.reference, true_coeffs, t)

    if config.controller == "afmpc":
        ranges = (config.fuzzy_range_x1, config.fuzzy_range_x2, config.fuzzy_range_x3, config.fuzzy_range_x4)
        model_fz = fz.build_rule_grid(config.fuzzy_counts, ranges, config.fuzzy_g_floor)
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
        predictor = AdaptiveFuzzyPredictor(
            model_fz, nominal, config.mpc.dt, gain=config.adapt_gain, theta_bound=config.fuzzy_theta_bound
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
        disturbance=config.disturbance,
        plant_dt=config.plant_dt,
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
    # a run that diverged may log huge errors, whose squares and sums
    # overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
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
