"""Tests for scenario configuration, references, metrics, and CSV I/O."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st
from hypothesis.extra import numpy as hnp

from afmpc import harness, mpc
from afmpc.dense_linalg import is_positive_definite
from afmpc.mpc import TrajectoryLog
from afmpc.plant import DisturbanceSpec, PlantParams, derive_coefficients

TRUE_COEFFS = derive_coefficients(PlantParams())
STATUSES = ("converged", "max_iter", "stalled", "fallback")


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_mpc_equal(a, b) -> None:
    assert a.prediction_horizon == b.prediction_horizon
    assert a.control_horizon == b.control_horizon
    assert np.array_equal(a.state_weight, b.state_weight)
    assert (a.input_weight, a.input_bound, a.dt) == (b.input_weight, b.input_bound, b.dt)


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
    assert cfg.fuzzy_ranges[0] == (-math.pi, math.pi)
    assert cfg.fuzzy_ranges[1] == (-8.0, 8.0)
    assert cfg.fuzzy_ranges[2] == (-math.pi / 2, math.pi / 2)
    assert cfg.fuzzy_ranges[3] == (-8.0, 8.0)
    assert cfg.fuzzy_g_floor == 1.0
    assert cfg.fuzzy_theta_bound == 1e6
    assert cfg.fuzzy_init == "nominal_fit"
    assert cfg.adapt_gain == 32.0
    assert cfg.lyapunov_q_diag == 500.0
    # arm block is -I; pendulum block is a damped oscillator companion form
    np.testing.assert_allclose(
        cfg.lyapunov_a,
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
    cfg = harness.load_config(path)
    ref = harness.default_config()
    assert cfg.controller == ref.controller
    assert_mpc_equal(cfg.mpc, ref.mpc)
    assert cfg.fuzzy_counts == ref.fuzzy_counts
    assert cfg.adapt_gain == ref.adapt_gain
    assert np.array_equal(cfg.lyapunov_a, ref.lyapunov_a)
    assert cfg.reference == ref.reference
    assert cfg.disturbance == ref.disturbance
    assert cfg.mismatch == ref.mismatch
    assert (cfg.duration, cfg.plant_dt, cfg.seed) == (ref.duration, ref.plant_dt, ref.seed)


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


def test_control_period_must_divide_into_plant_steps(tmp_path):
    path = write_config(tmp_path, "run.dt = 0.0003\n")
    with pytest.raises(harness.ConfigError, match="integer multiple of run.dt"):
        harness.load_config(path)
    path = write_config(tmp_path, "run.duration = 0.01\n")
    with pytest.raises(harness.ConfigError, match="shorter than one control period"):
        harness.load_config(path)


def test_overrides_apply_after_file(tmp_path):
    path = write_config(tmp_path, "controller = classical\nrun.seed = 1\n")
    cfg = harness.load_config(path, {"controller": "afmpc", "run.seed": "3"})
    assert cfg.controller == "afmpc"
    assert cfg.seed == 3
    with pytest.raises(harness.ConfigError, match="override: unknown key"):
        harness.load_config(path, {"nope": "1"})
    with pytest.raises(harness.ConfigError, match="override: run.seed"):
        harness.load_config(path, {"run.seed": "x"})


def test_dump_config_round_trips_defaults(tmp_path):
    text = harness.dump_config()
    for key in ("controller =", "mpc.kp =", "adapt.gain = 32.0", "reference.frequency = 0.65"):
        assert key in text
    path = write_config(tmp_path, text)
    cfg = harness.load_config(path)
    ref = harness.default_config()
    assert cfg.controller == ref.controller
    assert_mpc_equal(cfg.mpc, ref.mpc)
    assert cfg.fuzzy_counts == ref.fuzzy_counts
    assert cfg.fuzzy_ranges == ref.fuzzy_ranges
    assert np.array_equal(cfg.lyapunov_a, ref.lyapunov_a)
    assert cfg.reference == ref.reference
    assert cfg.disturbance == ref.disturbance
    assert cfg.mismatch == ref.mismatch
    assert (cfg.alpha0, cfg.duration, cfg.plant_dt, cfg.seed) == (
        ref.alpha0,
        ref.duration,
        ref.plant_dt,
        ref.seed,
    )


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
            **{f"fuzzy.range_x{i}": r for i, r in enumerate(cfg.fuzzy_ranges, start=1)},
            "fuzzy.g_floor": cfg.fuzzy_g_floor,
            "fuzzy.theta_bound": cfg.fuzzy_theta_bound,
            "fuzzy.init": cfg.fuzzy_init,
            "fuzzy.init_samples": cfg.fuzzy_init_samples,
            "adapt.gain": cfg.adapt_gain,
            "adapt.lyapunov_a": tuple(float(v) for v in cfg.lyapunov_a.ravel()),
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
    flat["run.duration"] = mpc_dt * num(1.0)
    flat["run.dt"] = run_dt
    flat["run.seed"] = count(0, 2**31)
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


def test_sinusoid_disturbance_bound_solve_converges(tmp_path, monkeypatch):
    # after the pendulum falls (period 40) the inputs sit on the +-5 V
    # bound; a solve that ended a rounding step outside the box cost more
    # than the warm start once clipped, and period 58 (t = 2.9 s) fell back
    # to it. Every solve whose whole sequence lies on the box must converge;
    # solves elsewhere after the fall may end max_iter or stalled
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
        "run.duration = 2.95\n",
    )
    log, _ = harness.run_scenario(harness.load_config(path))
    assert len(log) == 59
    assert log.t[58] == pytest.approx(2.9)
    on_box = [
        k
        for k, ctrl in enumerate(steps)
        if np.all(np.abs(np.abs(ctrl.optimized_sequence) - 5.0) <= 1e-9)
    ]
    assert on_box
    assert all(log.solver_status[k] == "converged" for k in on_box)
    assert "fallback" not in log.solver_status


def test_tight_input_bound_solves_stay_cheap_after_the_fall(tmp_path):
    # with u_max = 0.5 the pendulum falls, and the solves after it sit on
    # large rollout sensitivities; a Hessian reset on entry size alone sent
    # them down steepest descent at about 20 halvings a step, 43.58 rollouts
    # per solve on average, where the scale-free condition test gives 19.15
    path = write_config(
        tmp_path,
        "controller = afmpc\n"
        "mpc.u_max = 0.5\n"
        "run.duration = 3.0\n",
    )
    log, _ = harness.run_scenario(harness.load_config(path))
    assert np.mean(log.evaluations) <= 30.0
    assert "fallback" not in log.solver_status


def test_reference_trajectory_sinusoid_derivatives():
    spec = harness.ReferenceSpec(kind="sinusoid", amplitude=0.2, frequency=0.65)
    w = 2.0 * math.pi * 0.65
    y0 = harness.reference_trajectory(spec, 0.0)
    assert y0[0] == 0.0
    assert y0[1] == pytest.approx(0.2 * w, rel=1e-12)
    # the second entry is the time derivative of the first
    h = 1e-6
    for t in (0.13, 0.7, 1.9):
        vals = harness.reference_trajectory(spec, t)
        plus = harness.reference_trajectory(spec, t + h)
        minus = harness.reference_trajectory(spec, t - h)
        fd = (plus[0] - minus[0]) / (2.0 * h)
        assert fd == pytest.approx(vals[1], abs=1e-5)


def test_reference_trajectory_zero_kind():
    spec = harness.ReferenceSpec(kind="zero", amplitude=0.3)
    for t in (0.0, 0.5, 4.0):
        assert harness.reference_trajectory(spec, t) == (0.0, 0.0)


def test_reference_trajectory_step_ramp():
    spec = harness.ReferenceSpec(kind="step", amplitude=0.3, step_time=1.0)
    assert harness.reference_trajectory(spec, 0.99) == (0.0, 0.0)
    assert harness.reference_trajectory(spec, 1.5) == (0.3, 0.0)
    assert harness.reference_trajectory(spec, 9.0) == (0.3, 0.0)
    # smooth ramp in between: the derivative agrees with finite differences
    h = 1e-6
    for t in (1.1, 1.25, 1.4):
        vals = harness.reference_trajectory(spec, t)
        assert 0.0 < vals[0] < 0.3
        plus = harness.reference_trajectory(spec, t + h)
        minus = harness.reference_trajectory(spec, t - h)
        fd = (plus[0] - minus[0]) / (2.0 * h)
        assert fd == pytest.approx(vals[1], abs=1e-5)


def test_state_reference_output_channels():
    spec = harness.ReferenceSpec(kind="sinusoid", amplitude=0.2, frequency=0.65)
    for t in (0.0, 0.4, 1.7):
        y, yd = harness.reference_trajectory(spec, t)
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
        x_ref_fn=lambda t: np.zeros(4),
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
    assert loop.adaptation is None
    # plant uses the true coefficients, the prediction model the mismatched
    assert loop.true_coeffs == TRUE_COEFFS
    assert loop.model.coeffs.a3 == pytest.approx(1.2 * TRUE_COEFFS.a3, rel=1e-12)
    assert loop.model.coeffs.a1 == TRUE_COEFFS.a1
    assert loop.model.coeffs.b2 == TRUE_COEFFS.b2
    # solved Lyapunov matrix: A'P + P A = -Q, symmetric positive definite
    P = loop.lyapunov_p
    A = cfg.lyapunov_a
    np.testing.assert_allclose(A.T @ P + P @ A, -500.0 * np.eye(4), atol=1e-8)
    assert np.all(np.linalg.eigvalsh(P) > 0.0)
    np.testing.assert_allclose(x0, loop.x_ref_fn(0.0) + np.array([0.0, 0.0, 0.1, 0.0]), atol=0)
    assert loop.disturbance is None


def test_build_closed_loop_afmpc_pieces(tmp_path):
    path = write_config(tmp_path, "controller = afmpc\nfuzzy.init_samples = 500\n")
    cfg = harness.load_config(path)
    loop, _, _ = harness.build_closed_loop(cfg)
    ad = loop.adaptation
    assert ad is not None
    assert ad.gain == 32.0
    assert ad.theta_bound == 1e6
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
