"""Tests for scenario configuration, references, metrics, and CSV I/O."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hyp_settings, strategies as st
from hypothesis.extra import numpy as hnp

from afmpc import harness, mpc
from afmpc.dense_linalg import is_positive_definite
from afmpc.mpc import TrajectoryLog
from afmpc.nlp_optimizer import _MAX_BACKTRACKS
from afmpc.plant import DisturbanceSpec, PlantParams, derive_coefficients

TRUE_COEFFS = derive_coefficients(PlantParams())
STATUSES = ("converged", "max_iter", "stalled", "fallback")


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def synthetic_log(e: np.ndarray, dt: float, evaluations: np.ndarray) -> TrajectoryLog:
    n = e.shape[0]
    t = dt * np.arange(n)
    return TrajectoryLog(
        t=t,
        states=np.zeros((n, 4)),
        u=np.linspace(-1.0, 1.0, n),
        y_ref=np.zeros(n),
        e=e,
        V=np.abs(e),
        w_diag=np.zeros(n),
        predicted_cost=np.ones(n),
        solver_status=["converged"] * n,
        evaluations=evaluations,
    )


def test_default_config_values():
    cfg = harness.default_config()
    assert cfg.controller == "classical"
    assert cfg.mpc.prediction_horizon == 5
    assert cfg.mpc.control_horizon == 3
    assert cfg.mpc.dt == 0.05
    assert cfg.mpc.input_bound == 5.0
    assert cfg.mpc.input_weight == 0.3
    assert cfg.mpc.state_weight == (0.1, 0.1, 0.1, 0.1)
    assert cfg.fuzzy_counts == (3, 3, 3, 3)
    assert cfg.fuzzy_range_x1 == (-math.pi, math.pi)
    assert cfg.fuzzy_range_x2 == (-8.0, 8.0)
    assert cfg.fuzzy_range_x3 == (-math.pi / 2, math.pi / 2)
    assert cfg.fuzzy_range_x4 == (-8.0, 8.0)
    assert cfg.fuzzy_g_floor == 1.0
    assert cfg.fuzzy_theta_bound == 1e6
    assert cfg.fuzzy_init == "nominal_fit"
    assert cfg.adapt_gain == 32.0
    assert cfg.lyapunov_q_diag == 500.0
    # arm block is -I; pendulum block is a damped oscillator companion form
    np.testing.assert_array_equal(
        np.reshape(cfg.lyapunov_a, (4, 4)),
        np.array(
            [
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -9.0, -4.8],
            ]
        ),
    )
    assert cfg.reference.kind == "sinusoid"
    assert cfg.reference.amplitude == 0.2
    assert cfg.reference.frequency == 0.65
    assert cfg.reference.consistent_arm is True
    assert cfg.disturbance.kind == "none"
    assert cfg.mismatch.a3 == 1.2
    assert (cfg.mismatch.a1, cfg.mismatch.a2, cfg.mismatch.a4) == (1.0, 1.0, 1.0)
    assert (cfg.mismatch.b1, cfg.mismatch.b2) == (1.0, 1.0)
    assert cfg.alpha0 == 0.0
    assert cfg.duration == 10.0
    assert cfg.plant_dt == 0.001
    assert cfg.seed == 0


def test_default_config_matches_dataclass_defaults():
    # one default scenario: the registry and the dataclasses agree
    cfg = harness.default_config()
    assert cfg.reference == harness.ReferenceSpec()
    assert cfg.disturbance == DisturbanceSpec()


def test_load_config_empty_file_gives_defaults(tmp_path):
    path = write_config(tmp_path, "# nothing but a comment\n\n")
    assert harness.load_config(path) == harness.default_config()


def test_load_config_parses_values_and_comments(tmp_path):
    path = write_config(
        tmp_path,
        "\n".join(
            [
                "controller = afmpc   # trailing comment",
                "mpc.kp = 8",
                "mpc.kc = 4",
                "fuzzy.counts = 2 3 2 3",
                "reference.kind = step",
                "reference.consistent_arm = false",
                "disturbance.kind = sinusoid",
                "disturbance.amplitude = 0.4",
                "run.seed = 11",
            ]
        ),
    )
    cfg = harness.load_config(path)
    assert cfg.controller == "afmpc"
    assert cfg.mpc.prediction_horizon == 8
    assert cfg.mpc.control_horizon == 4
    assert cfg.fuzzy_counts == (2, 3, 2, 3)
    assert cfg.reference.kind == "step"
    assert cfg.reference.consistent_arm is False
    assert cfg.disturbance.kind == "sinusoid"
    assert cfg.disturbance.amplitude == 0.4
    assert cfg.seed == 11


def test_load_config_missing_file():
    with pytest.raises(harness.ConfigError, match="cannot read config file"):
        harness.load_config("/nonexistent/scenario.cfg")


def test_load_config_reports_every_parse_error(tmp_path):
    path = write_config(
        tmp_path,
        "\n".join(
            [
                "just words without an equals sign",
                "mpc.bogus = 1",
                "mpc.kp = five",
                "controller = pid",
                "fuzzy.counts = 3 3 3",
                "reference.consistent_arm = yes",
            ]
        ),
    )
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    msg = str(excinfo.value)
    assert "expected 'key = value'" in msg
    assert "unknown key 'mpc.bogus'" in msg
    assert "mpc.kp" in msg
    assert "expected one of classical, afmpc" in msg
    assert "expected 4 values, got 3" in msg
    assert "expected true or false" in msg
    # one line per problem, tagged with file and line number
    assert msg.count(f"{path}:") == 6


def test_load_config_rejects_kc_exceeding_kp(tmp_path):
    path = write_config(tmp_path, "mpc.kc = 6\n")
    with pytest.raises(harness.ConfigError, match="K_c <= K_p violated") as excinfo:
        harness.load_config(path)
    # one problem, one line
    assert len(str(excinfo.value).splitlines()) == 1


def test_build_validation_reports_all_problems(tmp_path):
    path = write_config(
        tmp_path,
        "\n".join(
            [
                "fuzzy.g_floor = 0.0",
                "adapt.gain = -1.0",
                "mismatch.b2 = 0.0",
                "fuzzy.range_x2 = 2.0 -2.0",
                "run.duration = 0.0",
            ]
        ),
    )
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    msg = str(excinfo.value)
    for fragment in (
        "fuzzy.g_floor: must be positive",
        "adapt.gain: must be non-negative",
        "mismatch.b2: factor must be positive",
        "fuzzy.range_x2: range (2.0, -2.0) is not increasing",
        "run.duration: must be positive",
    ):
        assert fragment in msg


@pytest.mark.parametrize(
    "line, message",
    [
        ("fuzzy.counts = 0 3 3 3", "fuzzy.counts: every count must be >= 1"),
        ("fuzzy.theta_bound = 0.0", "fuzzy.theta_bound: must be positive"),
        ("fuzzy.init_samples = 0", "fuzzy.init_samples: must be >= 1"),
        ("adapt.lyapunov_q_diag = 0.0", "adapt.lyapunov_q_diag: must be positive"),
        ("reference.step_time = -1.0", "reference.step_time: must be non-negative"),
        ("run.dt = 0.0", "run.dt: must be positive"),
        # b2 = k1 k_p / J1 = 0 leaves the pendulum no input, and the
        # consistent arm reference's b1 / b2 raised ZeroDivisionError
        ("plant.k1 = 0.0", "plant: k1 must be positive, got 0.0"),
        # x0's consistent arm reference at t = 0 overflows at the largest
        # amplitudes as it does at the tiniest frequencies (tests/test_cli.py)
        (
            "reference.amplitude = 1e308",
            "reference.frequency: too small for reference.amplitude, the state reference at t = 0 is not finite",
        ),
        (
            "reference.frequency = 1e-160",
            "reference.frequency: too small for reference.amplitude, the state reference at t = 0 is not finite",
        ),
        # (2 pi f)^2 overflows the arm channels from about 1.3e154 Hz, and 2 pi f
        # itself the output's derivative at 1e308; each read "too small"
        ("reference.frequency = 1e154", "reference.frequency: too large, the state reference at t = 0 is not finite"),
        ("reference.frequency = 1e200", "reference.frequency: too large, the state reference at t = 0 is not finite"),
        ("reference.frequency = 1e308", "reference.frequency: too large, the state reference at t = 0 is not finite"),
        (
            "reference.frequency = 1e308\nreference.consistent_arm = false",
            "reference.frequency: too large, the state reference at t = 0 is not finite",
        ),
    ],
)
def test_build_rule_reports_its_one_message(tmp_path, line, message):
    path = write_config(tmp_path, line + "\n")
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    assert str(excinfo.value) == message


def test_control_period_must_divide_into_plant_steps(tmp_path):
    path = write_config(tmp_path, "run.dt = 0.0003\n")
    with pytest.raises(harness.ConfigError, match="integer multiple of run.dt"):
        harness.load_config(path)
    # a ratio that overflows to inf raised OverflowError in round()
    path = write_config(tmp_path, "mpc.dt = 1e300\nrun.dt = 1e-300\n")
    with pytest.raises(harness.ConfigError, match="integer multiple of run.dt"):
        harness.load_config(path)
    path = write_config(tmp_path, "run.duration = 0.01\n")
    with pytest.raises(harness.ConfigError, match="shorter than one control period"):
        harness.load_config(path)


@pytest.mark.parametrize("duration", ["0.08", "0.12", "10.01"])
def test_duration_must_be_a_whole_number_of_control_periods(tmp_path, duration):
    # the period count was rounded without a word: 0.08 s and 0.12 s both
    # simulated two 0.05 s periods
    path = write_config(tmp_path, f"run.duration = {duration}\n")
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    assert str(excinfo.value) == "run.duration: must be a whole number of control periods"


def test_overrides_apply_after_file(tmp_path):
    path = write_config(tmp_path, "controller = classical\nrun.seed = 1\n")
    cfg = harness.load_config(path, {"controller": "afmpc", "run.seed": "3"})
    assert cfg.controller == "afmpc"
    assert cfg.seed == 3
    with pytest.raises(harness.ConfigError, match="override: unknown key"):
        harness.load_config(path, {"nope": "1"})
    with pytest.raises(harness.ConfigError, match="override: run.seed"):
        harness.load_config(path, {"run.seed": "x"})


def test_load_config_reports_file_and_override_errors_together(tmp_path):
    # a file error raised before the overrides were parsed, and hid theirs
    path = write_config(tmp_path, "run.dt = abc\n")
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path, {"run.seed": "x", "nope": "1"})
    assert str(excinfo.value) == (
        f"{path}:1: run.dt: could not convert string to float: 'abc'\n"
        "override: run.seed: invalid literal for int() with base 10: 'x'\n"
        "override: unknown key 'nope'"
    )


# entries that do not parse, (key, raw value) -> the rest of their error line
BAD_ENTRIES = {
    ("run.dt", "abc"): "run.dt: could not convert string to float: 'abc'",
    ("run.seed", "x"): "run.seed: invalid literal for int() with base 10: 'x'",
    ("nope", "1"): "unknown key 'nope'",
    ("controller", "pid"): "controller: expected one of classical, afmpc",
    ("fuzzy.counts", "3 3 3"): "fuzzy.counts: expected 4 values, got 3",
    ("reference.consistent_arm", "yes"): "reference.consistent_arm: expected true or false",
    ("plant.m1", "inf"): "plant.m1: expected a finite number",
}
BAD_LINES = {f"{key} = {raw}": rest for (key, raw), rest in BAD_ENTRIES.items()}
BAD_LINES["just words"] = "expected 'key = value', got 'just words'"
GOOD_LINES = ("", "# a comment", "run.seed = 2", "mpc.kp = 6", "controller = afmpc")
GOOD_OVERRIDES = (("mpc.kc", "2"), ("run.duration", "5.0"))


@st.composite
def bad_config_entries(draw):
    """Good file lines with 0-3 bad ones among them, and good overrides with
    0-3 bad ones among them; the report that they give, None if none is bad."""
    bad_lines = draw(st.lists(st.sampled_from(sorted(BAD_LINES)), max_size=3))
    lines = draw(st.permutations(bad_lines + draw(st.lists(st.sampled_from(GOOD_LINES), max_size=4))))
    bad_overrides = draw(st.lists(st.sampled_from(sorted(BAD_ENTRIES)), max_size=3, unique_by=lambda e: e[0]))
    overrides = dict(draw(st.permutations(bad_overrides + list(GOOD_OVERRIDES))))
    report = [f"<cfg>:{n}: {BAD_LINES[line]}" for n, line in enumerate(lines, start=1) if line in BAD_LINES]
    report += [f"override: {BAD_ENTRIES[key, raw]}" for key, raw in overrides.items() if (key, raw) in BAD_ENTRIES]
    return "".join(line + "\n" for line in lines), overrides, "\n".join(report) or None


@hyp_settings(max_examples=150, deadline=None)
@given(case=bad_config_entries())
def test_load_config_reports_one_line_per_bad_entry_in_order(tmp_path_factory, case):
    text, overrides, report = case
    path = write_config(tmp_path_factory.mktemp("cfg"), text)
    if report is None:
        assert harness.load_config(path, overrides).duration == 5.0
        return
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path, overrides)
    assert str(excinfo.value).replace(path, "<cfg>") == report


def test_dump_config_round_trips_defaults(tmp_path):
    text = harness.dump_config()
    for key in ("controller =", "mpc.kp =", "adapt.gain = 32.0", "reference.frequency = 0.65"):
        assert key in text
    path = write_config(tmp_path, text)
    assert harness.load_config(path) == harness.default_config()


# one line of each parse error kind, and the full report they give
PARSE_ERROR_LINES = """\
just words without an equals sign
mpc.bogus = 1
mpc.kp = five
mpc.r = fast
controller = pid
reference.kind = ramp
disturbance.kind = gust
fuzzy.counts = 3 3 3
reference.consistent_arm = yes
"""
PARSE_ERRORS = """\
<cfg>:1: expected 'key = value', got 'just words without an equals sign'
<cfg>:2: unknown key 'mpc.bogus'
<cfg>:3: mpc.kp: invalid literal for int() with base 10: 'five'
<cfg>:4: mpc.r: could not convert string to float: 'fast'
<cfg>:5: controller: expected one of classical, afmpc
<cfg>:6: reference.kind: expected one of zero, step, sinusoid
<cfg>:7: disturbance.kind: expected one of none, constant, sinusoid, band_limited_noise
<cfg>:8: fuzzy.counts: expected 4 values, got 3
<cfg>:9: reference.consistent_arm: expected true or false"""

# one line of each build error kind, and the full report they give
BUILD_ERROR_LINES = """\
plant.m1 = -1.0
mpc.kc = 6
fuzzy.range_x2 = 2.0 -2.0
fuzzy.g_floor = 0.0
adapt.gain = -1.0
mismatch.b2 = 0.0
disturbance.amplitude = -0.1
reference.frequency = 0.0
run.duration = 0.0
"""
BUILD_ERRORS = """\
plant: m1 must be positive, got -1.0
mpc: K_c <= K_p violated: control_horizon 6 exceeds prediction_horizon 5
fuzzy.range_x2: range (2.0, -2.0) is not increasing
fuzzy.g_floor: must be positive
adapt.gain: must be non-negative
reference.frequency: must be positive for a sinusoid reference
disturbance: disturbance amplitude must be non-negative
mismatch.b2: factor must be positive
run.duration: must be positive"""


@pytest.mark.parametrize(
    "lines, report",
    [(PARSE_ERROR_LINES, PARSE_ERRORS), (BUILD_ERROR_LINES, BUILD_ERRORS)],
    ids=["parse", "build"],
)
def test_config_error_report_golden(tmp_path, lines, report):
    path = write_config(tmp_path, lines)
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    assert str(excinfo.value).replace(path, "<cfg>") == report


@pytest.mark.parametrize(
    "line",
    [
        "run.dt = nan",
        "run.duration = nan",
        "run.duration = inf",
        "mpc.dt = nan",
        "plant.m1 = nan",
        "adapt.gain = nan",
        "mpc.q_diag = 0.1 0.1 nan 0.1",
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, line):
    # a NaN passes every sign check, and NaN or inf would reach round() in
    # the period count; the parser names the key instead
    key = line.split(" = ")[0]
    path = write_config(tmp_path, line + "\n")
    with pytest.raises(harness.ConfigError, match=f": {re.escape(key)}: expected a finite number$"):
        harness.build_closed_loop(harness.load_config(path))


@pytest.mark.parametrize(
    "lines, message",
    [
        ("run.seed = -1\n", "run.seed: must be non-negative"),
        (
            "disturbance.kind = band_limited_noise\ndisturbance.amplitude = 0.1\ndisturbance.seed = -1\n",
            "disturbance: disturbance seed must be non-negative",
        ),
    ],
    ids=["run", "disturbance"],
)
def test_config_rejects_negative_seeds(tmp_path, lines, message):
    # numpy's generators take no negative seed
    path = write_config(tmp_path, lines)
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.build_closed_loop(harness.load_config(path))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("frequency", ["-1.0", "0.0"])
def test_config_rejects_a_sinusoid_disturbance_without_a_positive_frequency(tmp_path, frequency):
    path = write_config(
        tmp_path, f"disturbance.kind = sinusoid\ndisturbance.amplitude = 0.1\ndisturbance.frequency = {frequency}\n"
    )
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    assert str(excinfo.value) == (
        f"disturbance: sinusoid disturbance frequency must be finite and positive, got {float(frequency)}"
    )


@pytest.mark.parametrize(
    "values",
    [
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
        "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1",
        # the default with the x4 damping removed: eigenvalues +-3i on the axis
        "-1 0 0 0 0 -1 0 0 0 0 0 1 0 0 -9 0",
    ],
    ids=["singular", "identity", "imaginary-axis"],
)
def test_config_rejects_non_hurwitz_lyapunov_a(tmp_path, values):
    # a singular A made the Lyapunov solve raise, and an unstable one gave a
    # P that is not positive definite, so V was no Lyapunov function
    path = write_config(tmp_path, f"adapt.lyapunov_a = {values}\n")
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    assert str(excinfo.value) == "adapt.lyapunov_a: must be Hurwitz"


def load_lyapunov_config(tmp_path_factory, a: np.ndarray, q: float = 500.0):
    """load_config of the default scenario with adapt.lyapunov_a = a and
    adapt.lyapunov_q_diag = q, every float written in full."""
    path = tmp_path_factory.getbasetemp() / "lyapunov.cfg"
    values = " ".join(repr(float(v)) for v in a.ravel())
    path.write_text(f"adapt.lyapunov_a = {values}\nadapt.lyapunov_q_diag = {q!r}\n", encoding="utf-8")
    return harness.load_config(str(path))


@st.composite
def triangular_lyapunov_draws(draw):
    """An upper-triangular A with diagonal -10^d, d in [-5, 5], so Hurwitz,
    and off-diagonal entries 0 or +-10^k, k in [-10, 200]; q = 10^e, e in
    [-100, 100]. The large entries overflow the Lyapunov solve."""
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, i] = -(10.0 ** draw(st.floats(-5.0, 5.0)))
        for j in range(i + 1, 4):
            if draw(st.booleans()):
                a[i, j] = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-10.0, 200.0))
    return a, 10.0 ** draw(st.floats(-100.0, 100.0))


@hyp_settings(max_examples=300, deadline=None)
@given(triangular_lyapunov_draws())
def test_config_and_build_agree_on_lyapunov_a(tmp_path_factory, a_q):
    # whatever the config accepts must build a usable P: an eigenvalue test
    # passed such an A, and the build then raised SingularLyapunovError or
    # logged V = nan on every row
    a, q = a_q
    try:
        cfg = load_lyapunov_config(tmp_path_factory, a, q)
    except harness.ConfigError as exc:
        assert str(exc) == "adapt.lyapunov_a: must be Hurwitz"
        return
    loop, _, _ = harness.build_closed_loop(cfg)
    assert np.isfinite(loop.lyapunov_p).all()
    assert is_positive_definite(loop.lyapunov_p)


@st.composite
def shifted_matrices(draw):
    """A = W + s I with the entries of W in [-20, 20] and s in [-10, 10]."""
    w = draw(st.lists(st.floats(-20.0, 20.0), min_size=16, max_size=16))
    return np.array(w).reshape(4, 4) + draw(st.floats(-10.0, 10.0)) * np.eye(4)


@hyp_settings(max_examples=300, deadline=None)
@given(shifted_matrices())
def test_config_hurwitz_test_matches_eigenvalue_oracle(tmp_path_factory, a):
    # away from the imaginary axis, the config accepts A exactly when every
    # eigenvalue has a negative real part
    top = float(np.max(np.linalg.eigvals(a).real))
    assume(abs(top) >= 1e-3 * (1.0 + float(np.max(np.abs(a)))))
    try:
        load_lyapunov_config(tmp_path_factory, a)
        accepted = True
    except harness.ConfigError as exc:
        assert str(exc) == "adapt.lyapunov_a: must be Hurwitz"
        accepted = False
    assert accepted == (top < 0.0)


def config_values(cfg) -> dict:
    """The value of every config key as a ScenarioConfig holds it, in file order."""
    m = cfg.mpc
    values = {f"plant.{f.name.lower()}": getattr(cfg.plant, f.name) for f in dataclasses.fields(cfg.plant)}
    values.update(
        {
            "controller": cfg.controller,
            "mpc.kp": m.prediction_horizon,
            "mpc.kc": m.control_horizon,
            "mpc.q_diag": m.state_weight,
            "mpc.r": m.input_weight,
            "mpc.u_max": m.input_bound,
            "mpc.dt": m.dt,
            "fuzzy.counts": cfg.fuzzy_counts,
            "fuzzy.range_x1": cfg.fuzzy_range_x1,
            "fuzzy.range_x2": cfg.fuzzy_range_x2,
            "fuzzy.range_x3": cfg.fuzzy_range_x3,
            "fuzzy.range_x4": cfg.fuzzy_range_x4,
            "fuzzy.g_floor": cfg.fuzzy_g_floor,
            "fuzzy.theta_bound": cfg.fuzzy_theta_bound,
            "fuzzy.init": cfg.fuzzy_init,
            "fuzzy.init_samples": cfg.fuzzy_init_samples,
            "adapt.gain": cfg.adapt_gain,
            "adapt.lyapunov_a": cfg.lyapunov_a,
            "adapt.lyapunov_q_diag": cfg.lyapunov_q_diag,
        }
    )
    for section in ("reference", "disturbance", "mismatch"):
        spec = getattr(cfg, section)
        values.update({f"{section}.{f.name}": getattr(spec, f.name) for f in dataclasses.fields(spec)})
    values.update(
        {
            "scenario.alpha0": cfg.alpha0,
            "run.duration": cfg.duration,
            "run.dt": cfg.plant_dt,
            "run.seed": cfg.seed,
        }
    )
    return values


@st.composite
def valid_flats(draw):
    """Random values, valid together, for every config key in file order.

    Each key's type is written here independently of the harness, so a
    default of the wrong type (a float written as 1) fails the round trip.
    """

    def num(lo=-1e3, hi=1e3):
        return draw(st.floats(lo, hi))

    def pos():
        return num(1e-3, 1e3)

    def count(lo, hi):
        return draw(st.integers(lo, hi))

    def pick(*options):
        return draw(st.sampled_from(options))

    kp = count(1, 12)
    run_dt = num(1e-4, 1e-2)
    mpc_dt = run_dt * count(1, 100)
    flat = {f"plant.{name}": pos() for name in ("m1", "k1", "a_p", "j1", "g", "l1", "c1", "k_p")}
    flat["controller"] = pick("classical", "afmpc")
    flat["mpc.kp"] = kp
    flat["mpc.kc"] = count(1, kp)
    flat["mpc.q_diag"] = tuple(pos() for _ in range(4))
    flat["mpc.r"] = pos()
    flat["mpc.u_max"] = num(0.0)
    flat["mpc.dt"] = mpc_dt
    flat["fuzzy.counts"] = tuple(count(1, 9) for _ in range(4))
    for i in (1, 2, 3, 4):
        lo = num()
        flat[f"fuzzy.range_x{i}"] = (lo, lo + pos())
    flat["fuzzy.g_floor"] = pos()
    flat["fuzzy.theta_bound"] = pos()
    flat["fuzzy.init"] = pick("zero", "nominal_fit")
    flat["fuzzy.init_samples"] = count(1, 10_000)
    flat["adapt.gain"] = num(0.0)
    # strictly diagonally dominant with a negative diagonal, so Hurwitz by
    # Gershgorin with a margin far above the Lyapunov solve's rounding
    a = [[0.0 if i == j else num() for j in range(4)] for i in range(4)]
    for i in range(4):
        a[i][i] = -sum(map(abs, a[i])) - pos()
    flat["adapt.lyapunov_a"] = tuple(v for row in a for v in row)
    flat["adapt.lyapunov_q_diag"] = pos()
    flat["reference.kind"] = pick("zero", "step", "sinusoid")
    flat["reference.amplitude"] = num()
    flat["reference.frequency"] = pos()
    flat["reference.step_time"] = num(0.0)
    flat["reference.consistent_arm"] = draw(st.booleans())
    flat["disturbance.kind"] = pick("none", "constant", "sinusoid", "band_limited_noise")
    flat["disturbance.amplitude"] = num(0.0)
    # only a sinusoid needs a positive frequency; other kinds ignore it
    flat["disturbance.frequency"] = pos() if flat["disturbance.kind"] == "sinusoid" else num()
    flat["disturbance.seed"] = count(0, 2**31)
    flat.update({f"mismatch.{name}": pos() for name in ("a1", "a2", "a3", "a4", "b1", "b2")})
    flat["scenario.alpha0"] = num()
    # a whole number of control periods, the only durations the config takes
    flat["run.duration"] = mpc_dt * count(1, 1000)
    flat["run.dt"] = run_dt
    flat["run.seed"] = count(0, 2**31)
    # each RK4 step inside its stability interval, with a margin: the
    # plant's decay rates a_p and c1 / J1 at run.dt, the predictor's
    # mismatched ones at mpc.dt
    reach = 2.7
    flat["plant.a_p"] = num(1e-3, min(1e3, reach / run_dt, reach / (mpc_dt * flat["mismatch.a1"])))
    flat["plant.c1"] = flat["plant.j1"] * num(1e-3, min(1e3, reach / run_dt, reach / (mpc_dt * flat["mismatch.a4"])))
    return flat


@hyp_settings(max_examples=80, deadline=None)
@given(flat=valid_flats())
def test_dump_load_round_trips_every_key(tmp_path_factory, flat):
    text = harness.dump_config(flat)
    assert [line.split(" = ")[0] for line in text.splitlines()] == list(flat)
    path = tmp_path_factory.mktemp("round_trip") / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    loaded = config_values(harness.load_config(str(path)))
    assert list(loaded) == list(flat)
    for key, value in flat.items():
        # repr tells 1 from 1.0 and keeps every float digit
        assert repr(loaded[key]) == repr(value), key


@st.composite
def small_flats(draw):
    """valid_flats, kept small enough to run: at most 3 rules per axis,
    300 fit samples, 8 prediction slots and 2 control periods; plant.k1,
    a_p and c1 also draw their boundary value 0.0, and the reference's and
    a sinusoid disturbance's frequency a few huge values, at which 2 pi f t
    may overflow within the run."""
    flat = draw(valid_flats())
    kp = draw(st.integers(1, 8))
    flat["mpc.kp"] = kp
    flat["mpc.kc"] = draw(st.integers(1, kp))
    flat["fuzzy.counts"] = tuple(draw(st.integers(1, 3)) for _ in range(4))
    flat["fuzzy.init_samples"] = draw(st.integers(1, 300))
    flat["run.duration"] = 2.0 * flat["mpc.dt"]
    for name in ("k1", "a_p", "c1"):
        key = f"plant.{name}"
        flat[key] = draw(st.sampled_from((0.0, flat[key])))
    huge = (1e300, 1e306, 1e307, 1e308)
    flat["reference.frequency"] = draw(st.sampled_from((flat["reference.frequency"], *huge)))
    if flat["disturbance.kind"] == "sinusoid":
        flat["disturbance.frequency"] = draw(st.sampled_from((flat["disturbance.frequency"], *huge)))
    return flat


ZERO_K1 = dict(
    config_values(harness.default_config()), **{"plant.k1": 0.0, "run.duration": 0.1}
)

# x0's x4 is 2 pi f = 6.3e300, and a narrow x4 range gives the fuzzy basis
# coefficients near 1e7: their product with x4 overflowed in the solve's first
# rollout, and the RuntimeWarning escaped the run
HUGE_X4 = dict(
    config_values(harness.default_config()),
    **{
        "controller": "afmpc",
        "mpc.dt": 0.0078125,
        "fuzzy.range_x4": (219.0, 219.0078125),
        "reference.amplitude": 1.0,
        "reference.frequency": 1e300,
        "reference.consistent_arm": False,
        "run.duration": 0.015625,
        "run.dt": 0.0078125,
    },
)


@hyp_settings(max_examples=200, deadline=None)
@given(flat=small_flats())
@example(flat=ZERO_K1)
@example(flat=HUGE_X4)
def test_a_config_that_load_config_accepts_runs(tmp_path_factory, flat):
    path = tmp_path_factory.mktemp("runs") / "scenario.cfg"
    path.write_text(harness.dump_config(flat), encoding="utf-8")
    # a run that diverges passes through huge finite states whose products
    # overflow before the state itself does and the log ends; it must end
    # diverged without a RuntimeWarning, which pytest's filters make an error
    try:
        log, _ = harness.run_scenario(harness.load_config(str(path)))
    except harness.ConfigError:
        # load_config's checks, or build_closed_loop's own
        return
    # two control periods, the second cut short only by a divergence
    assert len(log) == 2 or log.diverged


def test_sinusoid_disturbance_bound_solve_converges(tmp_path, monkeypatch):
    # after the pendulum falls (period 90) the inputs reach the +-5 V bound;
    # a solve that ended a rounding step outside the box cost more than the
    # warm start once clipped, and fell back to it. Every solve whose whole
    # sequence lies on the box must converge, also under the two-iteration
    # budget: the solve applies its latest iterate, and the multipliers of
    # that iterate's own QP show it a KKT point. Solves elsewhere after the
    # fall may end max_iter
    steps = []
    inner = mpc.solve_step

    def recording(*args, **kwargs):
        ctrl = inner(*args, **kwargs)
        steps.append(ctrl)
        return ctrl

    monkeypatch.setattr(mpc, "solve_step", recording)
    path = write_config(
        tmp_path,
        "controller = afmpc\n"
        "disturbance.kind = sinusoid\n"
        "disturbance.amplitude = 0.3\n"
        "run.duration = 10.0\n",
    )
    log, _ = harness.run_scenario(harness.load_config(path))
    assert len(log) == 200
    assert log.t[199] == pytest.approx(9.95)
    fall = next(k for k in range(len(log)) if abs(log.states[k, 2]) >= math.pi / 2)
    on_box = [
        k
        for k, ctrl in enumerate(steps)
        if np.all(np.abs(np.abs(ctrl.optimized_sequence) - 5.0) <= 1e-9)
    ]
    assert on_box
    assert on_box[-1] > fall
    assert all(log.solver_status[k] == "converged" for k in on_box)
    assert "fallback" not in log.solver_status


def test_tight_input_bound_solves_stay_cheap_after_the_fall(tmp_path):
    # with u_max = 0.5 the pendulum falls, and the solves after it sit on
    # large rollout sensitivities; a Hessian reset on entry size alone sent
    # them down steepest descent at about 20 halvings a step, 43.58 rollouts
    # per solve on average; the scale-free condition test gave 18.50 (max
    # 836) with solves run to their tolerance, and 3.10 (max 12) with the
    # two-iteration budget
    path = write_config(
        tmp_path,
        "controller = afmpc\n"
        "mpc.u_max = 0.5\n"
        "run.duration = 3.0\n",
    )
    log, _ = harness.run_scenario(harness.load_config(path))
    assert np.mean(log.evaluations) <= 30.0
    assert "fallback" not in log.solver_status


def test_noise_run_keeps_every_solve_within_the_rollout_budget(tmp_path):
    # band-limited noise 0.3 throws the pendulum at about 1.4 s; solved to
    # their tolerance, the periods after the fall took up to 1,134 rollouts.
    # Two SQP iterations of at most _MAX_BACKTRACKS line-search trials each,
    # plus the warm start's and the final cost's rollouts, bound every period
    path = write_config(
        tmp_path,
        "controller = afmpc\n"
        "disturbance.kind = band_limited_noise\n"
        "disturbance.amplitude = 0.3\n"
        "run.duration = 3.0\n",
    )
    log, _ = harness.run_scenario(harness.load_config(path))
    assert len(log) == 60
    assert np.max(np.abs(log.states[:, 2])) >= math.pi / 2
    assert np.max(log.evaluations) <= 2 * _MAX_BACKTRACKS + 2


@pytest.mark.parametrize(
    "lines, report",
    [
        # a4 run.dt = -18.9 passed the loader, and its run overflowed
        (
            "plant.c1 = 302\nplant.j1 = 0.125\nrun.dt = 0.0078125\nmpc.dt = 0.328125\nrun.duration = 0.65625\n",
            "run.dt: run.dt * max(a_p, c1 / J1) is 18.88, beyond RK4's stability limit 2.785\n"
            "mpc.dt: mpc.dt * max(a_p * mismatch.a1, c1 / J1 * mismatch.a4) is 792.8,"
            " beyond RK4's stability limit 2.785",
        ),
        (
            "mpc.dt = 2.0\nrun.dt = 2.0\nrun.duration = 120\n",
            "run.dt: run.dt * max(a_p, c1 / J1) is 66.08, beyond RK4's stability limit 2.785\n"
            "mpc.dt: mpc.dt * max(a_p * mismatch.a1, c1 / J1 * mismatch.a4) is 66.08,"
            " beyond RK4's stability limit 2.785",
        ),
        # 0.085 a_p = 2.808 lies just beyond the limit
        (
            "mpc.dt = 0.085\nrun.duration = 0.085\n",
            "mpc.dt: mpc.dt * max(a_p * mismatch.a1, c1 / J1 * mismatch.a4) is 2.808,"
            " beyond RK4's stability limit 2.785",
        ),
        # the predictor's rates carry the mismatch factors; the plant's do not
        (
            "mismatch.a1 = 2\n",
            "mpc.dt: mpc.dt * max(a_p * mismatch.a1, c1 / J1 * mismatch.a4) is 3.304,"
            " beyond RK4's stability limit 2.785",
        ),
        (
            "plant.c1 = 0.029\nmismatch.a4 = 1000\n",
            "mpc.dt: mpc.dt * max(a_p * mismatch.a1, c1 / J1 * mismatch.a4) is 1450,"
            " beyond RK4's stability limit 2.785",
        ),
    ],
    ids=["c1-over-j1", "two-second-steps", "mpc-dt-beyond", "mismatch-a1", "mismatch-a4"],
)
def test_config_rejects_steps_beyond_rk4_stability(tmp_path, lines, report):
    path = write_config(tmp_path, lines)
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    assert str(excinfo.value) == report


def test_config_accepts_a_step_just_inside_rk4_stability(tmp_path):
    # 0.084 a_p = 2.775
    cfg = harness.load_config(write_config(tmp_path, "mpc.dt = 0.084\nrun.duration = 0.084\n"))
    assert cfg.mpc.dt == 0.084


def test_logged_lyapunov_value_overflows_without_warning(tmp_path):
    # plant.c1 / plant.j1 = 2416 makes the plant's RK4 step at run.dt unstable:
    # x4 reaches about 2e153 in one period, so err' P err overflows. V logs
    # inf, as the rollouts' costs do, and the run ends diverged; the product
    # warned "overflow encountered in dot" (an error under this suite).
    # load_config rejects these steps, so the config is built in code
    path = write_config(
        tmp_path,
        "controller = classical\n"
        "mpc.kp = 1\n"
        "mpc.kc = 1\n"
        "mpc.u_max = 0\n"
        "reference.kind = sinusoid\n"
        "reference.amplitude = 1\n"
        "reference.consistent_arm = false\n",
    )
    cfg = harness.load_config(path)
    cfg = dataclasses.replace(
        cfg,
        plant=PlantParams(c1=302.0, J1=0.125),
        mpc=dataclasses.replace(cfg.mpc, dt=0.328125),
        plant_dt=0.0078125,
        duration=0.65625,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log, _ = harness.run_scenario(cfg)
    assert log.diverged
    assert len(log) == 2
    assert np.isfinite(log.V[0]) and log.V[1] == math.inf


def test_reference_trajectory_sinusoid_derivatives():
    spec = harness.ReferenceSpec(kind="sinusoid", amplitude=0.2, frequency=0.65)
    w = 2.0 * math.pi * 0.65
    y0 = harness.state_reference(spec, TRUE_COEFFS, 0.0)[2:]
    assert y0[0] == 0.0
    assert y0[1] == pytest.approx(0.2 * w, rel=1e-12)
    # the second entry is the time derivative of the first
    h = 1e-6
    for t in (0.13, 0.7, 1.9):
        vals = harness.state_reference(spec, TRUE_COEFFS, t)[2:]
        plus = harness.state_reference(spec, TRUE_COEFFS, t + h)[2:]
        minus = harness.state_reference(spec, TRUE_COEFFS, t - h)[2:]
        fd = (plus[0] - minus[0]) / (2.0 * h)
        assert fd == pytest.approx(vals[1], abs=1e-5)


def test_reference_trajectory_zero_kind():
    spec = harness.ReferenceSpec(kind="zero", amplitude=0.3)
    for t in (0.0, 0.5, 4.0):
        assert tuple(harness.state_reference(spec, TRUE_COEFFS, t)[2:]) == (0.0, 0.0)


def test_reference_spec_rejects_an_unknown_kind():
    # an unknown kind fell through the reference formulas to the step branch,
    # so a "ramp" reference silently tracked a step
    with pytest.raises(ValueError, match="unknown reference kind 'ramp'"):
        harness.ReferenceSpec(kind="ramp")
    # the config file accepts exactly the kinds the dataclass does
    assert harness._CHOICES["reference.kind"] == harness._REFERENCE_KINDS
    for kind in harness._REFERENCE_KINDS:
        assert harness.ReferenceSpec(kind=kind).kind == kind


def test_reference_trajectory_step_ramp():
    spec = harness.ReferenceSpec(kind="step", amplitude=0.3, step_time=1.0)
    assert tuple(harness.state_reference(spec, TRUE_COEFFS, 0.99)[2:]) == (0.0, 0.0)
    assert tuple(harness.state_reference(spec, TRUE_COEFFS, 1.5)[2:]) == (0.3, 0.0)
    assert tuple(harness.state_reference(spec, TRUE_COEFFS, 9.0)[2:]) == (0.3, 0.0)
    # smooth ramp in between: the derivative agrees with finite differences
    h = 1e-6
    for t in (1.1, 1.25, 1.4):
        vals = harness.state_reference(spec, TRUE_COEFFS, t)[2:]
        assert 0.0 < vals[0] < 0.3
        plus = harness.state_reference(spec, TRUE_COEFFS, t + h)[2:]
        minus = harness.state_reference(spec, TRUE_COEFFS, t - h)[2:]
        fd = (plus[0] - minus[0]) / (2.0 * h)
        assert fd == pytest.approx(vals[1], abs=1e-5)


def test_state_reference_output_channels():
    spec = harness.ReferenceSpec(kind="sinusoid", amplitude=0.2, frequency=0.65)
    for t in (0.0, 0.4, 1.7):
        y, yd = harness.state_reference(spec, TRUE_COEFFS, t)[2:]
        xr = harness.state_reference(spec, TRUE_COEFFS, t)
        assert xr[2] == pytest.approx(y, abs=1e-15)
        assert xr[3] == pytest.approx(yd, abs=1e-15)
    # without the consistent-arm option the arm reference is zero
    plain = harness.ReferenceSpec(kind="sinusoid", amplitude=0.2, frequency=0.65, consistent_arm=False)
    xr = harness.state_reference(plain, TRUE_COEFFS, 0.4)
    assert xr[0] == 0.0 and xr[1] == 0.0


def test_state_reference_consistent_arm_is_realizable():
    # both channels must be driven by one shared input in the linearized
    # model, otherwise the arm reference would fight the output reference
    spec = harness.ReferenceSpec(kind="sinusoid", amplitude=0.2, frequency=0.65)
    c = TRUE_COEFFS
    h = 1e-6
    for t in np.linspace(0.0, 2.0, 21):
        xr = harness.state_reference(spec, c, t)
        dxr = (
            harness.state_reference(spec, c, t + h) - harness.state_reference(spec, c, t - h)
        ) / (2.0 * h)
        u_r = (dxr[3] - c.a2 * xr[1] - c.a3 * xr[2] - c.a4 * xr[3]) / c.b2
        assert dxr[0] == pytest.approx(xr[1], abs=1e-6)
        assert dxr[1] == pytest.approx(c.a1 * xr[1] + c.b1 * u_r, abs=1e-4)
        assert dxr[2] == pytest.approx(xr[3], abs=1e-6)


def scalar_state_reference(spec, coeffs, t: float) -> list:
    """state_reference at one time as the math module computes it: the
    oracle of the array form."""
    a = spec.amplitude
    if spec.kind == "zero":
        y, yd = 0.0, 0.0
    elif spec.kind == "sinusoid":
        w = 2.0 * math.pi * spec.frequency
        y, yd = a * math.sin(w * t), a * w * math.cos(w * t)
    elif t < spec.step_time:
        y, yd = 0.0, 0.0
    else:
        tau = (t - spec.step_time) / harness._STEP_SMOOTH_WINDOW
        if tau >= 1.0:
            y, yd = a, 0.0
        else:
            s = tau * tau * tau * (10.0 - 15.0 * tau + 6.0 * tau * tau)
            s1 = 30.0 * tau * tau - 60.0 * tau ** 3 + 30.0 * tau ** 4
            y, yd = a * s, a * s1 / harness._STEP_SMOOTH_WINDOW
    if spec.consistent_arm and spec.kind == "sinusoid" and spec.frequency > 0.0 and a != 0.0:
        w = 2.0 * math.pi * spec.frequency
        ratio = coeffs.b1 / coeffs.b2
        x2r = ratio * (a * (w * w + coeffs.a3) / w * math.cos(w * t) - coeffs.a4 * a * math.sin(w * t))
        x1r = ratio * (
            a * (w * w + coeffs.a3) / (w * w) * math.sin(w * t) + coeffs.a4 * a / w * math.cos(w * t)
        )
        return [x1r, x2r, y, yd]
    return [0.0, 0.0, y, yd]


@hyp_settings(max_examples=300, deadline=None)
@given(
    spec=st.builds(
        harness.ReferenceSpec,
        kind=st.sampled_from(harness._REFERENCE_KINDS),
        amplitude=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, -0.2, 0.2])),
        # below about 1e-154 Hz the consistent arm's a3 / w**2 overflows, in
        # the scalar formula as well
        frequency=st.one_of(st.floats(1e-100, 5.0), st.sampled_from([0.0, 0.65])),
        step_time=st.floats(0.0, 5.0),
        consistent_arm=st.booleans(),
    ),
    times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=60),
    # times before, on and inside the step's ramp, and at its end
    offsets=st.lists(
        st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.5, -1e-12, 0.5 - 1e-12])), max_size=20
    ),
)
def test_state_reference_over_times_is_the_scalar_formula_row_by_row(spec, times, offsets):
    # one call over an array of times replaces one call per time in the
    # closed loop, so each row must be the scalar formula's, bit for bit,
    # signs of zero included
    t = np.array(times + [spec.step_time + o for o in offsets])
    got = harness.state_reference(spec, TRUE_COEFFS, t)
    assert got.shape == (len(t), 4) and got.dtype == np.float64
    for row, ti in zip(got, t.tolist()):
        want = np.array(scalar_state_reference(spec, TRUE_COEFFS, ti))
        assert row.tobytes() == want.tobytes(), ti
        one = harness.state_reference(spec, TRUE_COEFFS, ti)
        assert one.shape == (4,) and one.tobytes() == want.tobytes(), ti


def test_compute_metrics_constant_error():
    log = synthetic_log(np.full(10, 0.1), dt=0.05, evaluations=np.full(10, 14))
    m = harness.compute_metrics(log, 0.05)
    assert m.rmse == pytest.approx(0.1, rel=1e-12)
    assert m.iae == pytest.approx(0.05, rel=1e-12)
    assert m.steady_state_error == pytest.approx(0.1, rel=1e-12)
    assert m.mean_evaluations == 14.0
    assert m.max_evaluations == 14


def test_compute_metrics_steady_state_window_is_final_fifth():
    e = np.zeros(10)
    e[8:] = 0.2
    evals = np.arange(2, 12)
    m = harness.compute_metrics(synthetic_log(e, 0.05, evals), 0.05)
    assert m.steady_state_error == pytest.approx(0.2, rel=1e-12)
    assert m.rmse == pytest.approx(math.sqrt(2 * 0.04 / 10), rel=1e-12)
    assert m.mean_evaluations == 6.5
    assert m.max_evaluations == 11


def test_compute_metrics_rejects_empty_log():
    log = synthetic_log(np.zeros(1), 0.05, np.full(1, 2))
    log.t = np.zeros(0)
    log.e = np.zeros(0)
    with pytest.raises(ValueError, match="empty log"):
        harness.compute_metrics(log, 0.05)


# finite floats, with the edge cases drawn often: signed zero, the
# smallest subnormal and the largest magnitudes
CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def trajectory_logs(draw):
    n = draw(st.integers(1, 40))

    def floats(shape=(n,)):
        return draw(hnp.arrays(np.float64, shape, elements=CSV_FLOATS))

    return TrajectoryLog(
        t=floats(),
        states=floats((n, 4)),
        u=floats(),
        y_ref=floats(),
        e=floats(),
        V=floats(),
        w_diag=floats(),
        predicted_cost=floats(),
        solver_status=draw(st.lists(st.sampled_from(STATUSES), min_size=n, max_size=n)),
        evaluations=np.array(draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n))),
    )


def log_columns(log: TrajectoryLog) -> dict:
    """The CSV column each log field should give, by CSV name."""
    return {
        "t": log.t,
        **{f"x{i + 1}": log.states[:, i] for i in range(4)},
        "u": log.u,
        "y_ref": log.y_ref,
        "e": log.e,
        "V": log.V,
        "w_diag": log.w_diag,
        "cost": log.predicted_cost,
        "status": log.solver_status,
        "evals": log.evaluations,
    }


def assert_columns_equal(cols: dict, log: TrajectoryLog) -> None:
    """Every CSV column holds its log field bit for bit, with its type."""
    expected = log_columns(log)
    assert list(cols) == list(expected) == harness.CSV_HEADER.split(",")
    for name, kind in harness._COLUMNS:
        if kind is str:
            assert cols[name] == list(expected[name]), name
            assert all(type(v) is str for v in cols[name]), name
        else:
            want = np.asarray(expected[name])
            assert cols[name].dtype == want.dtype, name
            # tobytes tells -0.0 from 0.0, which array_equal does not
            assert cols[name].tobytes() == want.tobytes(), name


@hyp_settings(max_examples=60, deadline=None)
@given(log=trajectory_logs())
def test_export_load_csv_round_trip(tmp_path_factory, log):
    assert harness.CSV_HEADER == "t,x1,x2,x3,x4,u,y_ref,e,V,w_diag,cost,status,evals"
    path = str(tmp_path_factory.mktemp("csv") / "log.csv")
    harness.export_csv(log, path)
    assert_columns_equal(harness.load_csv(path), log)


def test_first_period_divergence_gives_a_one_row_log(tmp_path):
    # the plant overflows within the first control period: the log keeps
    # the record made before it, one row, and the CSV reloads it exactly
    cfg = mpc.MpcConfig()
    loop = mpc.ClosedLoop(
        model=mpc.NominalPredictor(TRUE_COEFFS, cfg.dt),
        config=cfg,
        true_coeffs=TRUE_COEFFS,
        x_ref_fn=lambda t: np.zeros(np.shape(t) + (4,)),
        lyapunov_p=np.eye(4),
    )
    x0 = np.array([0.0, 1e307, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        log = mpc.run_receding_horizon(x0, loop, 5)
    assert log.diverged
    assert len(log) == 1
    assert log.states.shape == (1, 4)
    assert np.array_equal(log.states[0], x0)
    for name, column in log_columns(log).items():
        assert len(column) == 1, name
    assert isinstance(log.solver_status, list)
    assert log.evaluations.dtype.kind == "i"
    path = str(tmp_path / "log.csv")
    harness.export_csv(log, path)
    assert_columns_equal(harness.load_csv(path), log)


def test_load_csv_rejects_bad_content(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("time,stuff\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        harness.load_csv(str(bad_header))
    bad_row = tmp_path / "bad2.csv"
    bad_row.write_text(harness.CSV_HEADER + "\n1.0,2.0,3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed row"):
        harness.load_csv(str(bad_row))


@pytest.mark.parametrize("column, value", [("u", "abc"), ("evals", "3.5")])
def test_load_csv_names_the_bad_field(tmp_path, column, value):
    n = 3
    log = synthetic_log(np.zeros(n), dt=0.05, evaluations=np.full(n, 5))
    path = tmp_path / "log.csv"
    harness.export_csv(log, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[2].split(",")
    parts[harness.CSV_HEADER.split(",").index(column)] = value
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    where = re.escape(f"{path}:3: column {column}: ")
    with pytest.raises(ValueError, match=f"^{where}.*{re.escape(repr(value))}"):
        harness.load_csv(str(path))


def test_compare_report_ratio_cases():
    base = dict(iae=1.0, mean_evaluations=14.5, max_evaluations=30)
    m_c = harness.RunMetrics(rmse=0.2, steady_state_error=0.1, **base)
    m_a = harness.RunMetrics(rmse=0.1, steady_state_error=0.05, **base)
    report = harness.compare_report(m_c, m_a)
    assert "classical" in report and "afmpc" in report
    assert "evals mean=14.500 max=30" in report
    assert "steady-state error ratio (afmpc / classical): 0.500000" in report
    both_zero = harness.RunMetrics(rmse=0.0, steady_state_error=0.0, **base)
    assert "ratio (afmpc / classical): 1.000000" in harness.compare_report(both_zero, both_zero)
    worse = harness.RunMetrics(rmse=0.1, steady_state_error=0.05, **base)
    assert "inf" in harness.compare_report(both_zero, worse)


def test_build_closed_loop_wires_mismatch_and_lyapunov(tmp_path):
    path = write_config(tmp_path, "scenario.alpha0 = 0.1\n")
    cfg = harness.load_config(path)
    loop, x0, steps = harness.build_closed_loop(cfg)
    assert steps == 200
    assert isinstance(loop.model, mpc.NominalPredictor)
    # plant uses the true coefficients, the prediction model the mismatched
    assert loop.true_coeffs == TRUE_COEFFS
    assert loop.model.coeffs.a3 == pytest.approx(1.2 * TRUE_COEFFS.a3, rel=1e-12)
    assert loop.model.coeffs.a1 == TRUE_COEFFS.a1
    assert loop.model.coeffs.b2 == TRUE_COEFFS.b2
    # solved Lyapunov matrix: A'P + P A = -Q, symmetric positive definite
    P = loop.lyapunov_p
    A = np.reshape(cfg.lyapunov_a, (4, 4))
    np.testing.assert_allclose(A.T @ P + P @ A, -500.0 * np.eye(4), atol=1e-8)
    assert np.all(np.linalg.eigvalsh(P) > 0.0)
    np.testing.assert_allclose(x0, loop.x_ref_fn(0.0) + np.array([0.0, 0.0, 0.1, 0.0]), atol=0)
    # no disturbance has one encoding, the config's own spec of kind none
    assert loop.disturbance is cfg.disturbance
    assert loop.disturbance == DisturbanceSpec()


def test_build_closed_loop_afmpc_pieces(tmp_path):
    path = write_config(tmp_path, "controller = afmpc\nfuzzy.init_samples = 500\n")
    cfg = harness.load_config(path)
    loop, _, _ = harness.build_closed_loop(cfg)
    assert isinstance(loop.model, mpc.AdaptiveFuzzyPredictor)
    assert loop.model.gain == 32.0
    assert loop.model.theta_bound == 1e6
    # nominal_fit primes the consequents from the mismatched model
    assert np.any(loop.model.fuzzy.theta_f != 0.0)
    assert np.all(loop.model.fuzzy.theta_g == loop.model.coeffs.b2)
    zero_path = write_config(tmp_path, "controller = afmpc\nfuzzy.init = zero\n")
    loop0, _, _ = harness.build_closed_loop(harness.load_config(zero_path))
    assert np.all(loop0.model.fuzzy.theta_f == 0.0)


def test_run_scenario_and_comparison_short(tmp_path):
    path = write_config(
        tmp_path,
        "reference.kind = zero\nscenario.alpha0 = 0.1\nrun.duration = 0.5\nfuzzy.init_samples = 500\n",
    )
    cfg = harness.load_config(path)
    log, metrics = harness.run_scenario(cfg)
    assert len(log) == 10
    assert not log.diverged
    assert metrics.rmse > 0.0
    assert np.isfinite(metrics.iae)
    assert metrics.max_evaluations >= metrics.mean_evaluations >= 2.0

    log_c, met_c, log_a, met_a, report = harness.run_comparison(cfg)
    assert len(log_c) == 10 and len(log_a) == 10
    assert log_a.final_fuzzy is not None
    assert "steady-state error ratio (afmpc / classical):" in report
    assert harness._metrics_line("classical", met_c) in report
    assert harness._metrics_line("afmpc", met_a) in report
