"""Tests for the command-line interface: exit codes and output files."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from afmpc import cli, harness, mpc
from afmpc.plant import IntegrationDivergenceError

# this checkout's package, prepended so that a subprocess runs the afmpc
# under test, not whichever one its inherited path finds first
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def checkout_env(**overrides) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC, **overrides)


SHORT_RUN = "reference.kind = zero\nscenario.alpha0 = 0.1\nrun.duration = 0.5\nfuzzy.init_samples = 500\n"


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_print_defaults_round_trip(tmp_path, capsys):
    assert cli.main(["--print-defaults"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    path = tmp_path / "defaults.cfg"
    path.write_text(text, encoding="utf-8")
    assert harness.load_config(str(path)) == harness.default_config()


# the whole config surface, key order included: a change to any default,
# type or key name shows here
PRINT_DEFAULTS = """\
plant.m1 = 0.0861
plant.k1 = 0.0019
plant.a_p = 33.04
plant.j1 = 0.001
plant.g = 9.8066
plant.l1 = 0.113
plant.c1 = 0.0029
plant.k_p = 74.89
controller = classical
mpc.kp = 5
mpc.kc = 3
mpc.q_diag = 0.1 0.1 0.1 0.1
mpc.r = 0.3
mpc.u_max = 5.0
mpc.dt = 0.05
fuzzy.counts = 3 3 3 3
fuzzy.range_x1 = -3.141592653589793 3.141592653589793
fuzzy.range_x2 = -8.0 8.0
fuzzy.range_x3 = -1.5707963267948966 1.5707963267948966
fuzzy.range_x4 = -8.0 8.0
fuzzy.g_floor = 1.0
fuzzy.theta_bound = 1000000.0
fuzzy.init = nominal_fit
fuzzy.init_samples = 4000
adapt.gain = 32.0
adapt.lyapunov_a = -1.0 0.0 0.0 0.0 0.0 -1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0 0.0 -9.0 -4.8
adapt.lyapunov_q_diag = 500.0
reference.kind = sinusoid
reference.amplitude = 0.2
reference.frequency = 0.65
reference.step_time = 1.0
reference.consistent_arm = true
disturbance.kind = none
disturbance.amplitude = 0.0
disturbance.frequency = 1.0
disturbance.seed = 0
mismatch.a1 = 1.0
mismatch.a2 = 1.0
mismatch.a3 = 1.2
mismatch.a4 = 1.0
mismatch.b1 = 1.0
mismatch.b2 = 1.0
scenario.alpha0 = 0.0
run.duration = 10.0
run.dt = 0.001
run.seed = 0
"""


def test_print_defaults_golden(capsys):
    assert cli.main(["--print-defaults"]) == cli.EXIT_OK
    assert capsys.readouterr().out == PRINT_DEFAULTS


def test_no_command_prints_usage(capsys):
    assert cli.main([]) == cli.EXIT_CONFIG
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_controller_rejected_by_parser(tmp_path):
    path = write_config(tmp_path, SHORT_RUN)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", path, "--controller", "pid", "--out", "x.csv"])
    assert excinfo.value.code == 2


def test_run_writes_csv_and_metrics_line(tmp_path, capsys):
    path = write_config(tmp_path, SHORT_RUN)
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "classical", "--out", out])
    assert code == cli.EXIT_OK
    cols = harness.load_csv(out)
    assert cols["t"].shape == (10,)
    assert np.all(np.isfinite(cols["x3"]))
    stdout = capsys.readouterr().out
    assert "classical" in stdout and "rmse=" in stdout


def test_run_seed_override_accepted(tmp_path):
    path = write_config(tmp_path, SHORT_RUN)
    out = str(tmp_path / "log.csv")
    code = cli.main(
        ["run", "--config", path, "--controller", "afmpc", "--out", out, "--seed", "7"]
    )
    assert code == cli.EXIT_OK
    assert harness.load_csv(out)["t"].shape == (10,)


def test_run_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "mpc.bogus = 1\n")
    code = cli.main(["run", "--config", path, "--controller", "classical", "--out", "x.csv"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_zero_k1_is_a_config_error(tmp_path, capsys):
    # b2 = 0 made the run die in a ZeroDivisionError traceback
    path = write_config(tmp_path, SHORT_RUN + "plant.k1 = 0.0\n")
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "afmpc", "--out", out])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error:\n{path}:5: plant.k1: must be in [1e-6, 1e6], got 0.0\n"


@pytest.mark.parametrize("controller", ["classical", "afmpc"])
@pytest.mark.parametrize("frequency", ["1e-160", "1e-250"])
def test_run_tiny_reference_frequency_is_a_config_error(tmp_path, capsys, controller, frequency):
    # the arm reference at t = 0 overflowed to a NaN x0 (at 1e-160) or
    # divided by a w^2 that underflows to 0 (at 1e-250): each ended in a
    # traceback
    path = write_config(tmp_path, f"run.duration = 0.1\nreference.frequency = {frequency}\n")
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", controller, "--out", out])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error:\n{path}:2: reference.frequency: must be in [1e-6, 1e6], got {frequency}\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize("controller", ["classical", "afmpc"])
@pytest.mark.parametrize(
    "frequency, arm", [("1e154", "true"), ("1e200", "true"), ("1e308", "true"), ("1e308", "false")]
)
def test_run_huge_reference_frequency_is_a_config_error(tmp_path, capsys, controller, frequency, arm):
    # (2 pi f)^2, or 2 pi f itself at 1e308, overflowed the state reference
    # at t = 0; a config error once blamed a frequency too small
    path = write_config(
        tmp_path, f"run.duration = 0.1\nreference.frequency = {frequency}\nreference.consistent_arm = {arm}\n"
    )
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", controller, "--out", out])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error:\n{path}:2: reference.frequency: must be in [1e-6, 1e6], got {frequency}\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize("controller", ["classical", "afmpc"])
@pytest.mark.parametrize(
    "text, report",
    [
        # 2 pi f itself overflowed: the disturbance's math.sin of inf raised
        (
            "disturbance.kind = sinusoid\ndisturbance.amplitude = 0.1\n"
            "disturbance.frequency = 1e308\nrun.duration = 0.1\n",
            "<cfg>:3: disturbance.frequency: must be in [1e-6, 1e6], got 1e308",
        ),
        # 2 pi f t overflowed part-way through the default 10 s run
        (
            "disturbance.kind = sinusoid\ndisturbance.amplitude = 0.1\ndisturbance.frequency = 1e307\n",
            "<cfg>:3: disturbance.frequency: must be in [1e-6, 1e6], got 1e307",
        ),
        # the reference's np.sin and np.cos of inf warned and gave NaN
        # references from t = 2.9 s, in a run that exited 0 with rmse=nan
        (
            "reference.frequency = 1e307\nreference.amplitude = 1e-300\n"
            "reference.consistent_arm = false\nrun.duration = 5.0\n",
            "<cfg>:1: reference.frequency: must be in [1e-6, 1e6], got 1e307",
        ),
    ],
    ids=["disturbance-1e308", "disturbance-1e307", "reference-1e307"],
)
def test_run_sinusoid_phase_overflow_is_a_config_error(tmp_path, capsys, controller, text, report):
    path = write_config(tmp_path, text)
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", controller, "--out", out])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error:\n{report.replace('<cfg>', path)}\n"
    assert not os.path.exists(out)


# a 301- and a 401-digit prediction horizon
KP_301, KP_401 = "1" + "0" * 300, "1" + "0" * 400
TINY_B2 = "plant.k1 = 1e-200\nplant.k_p = 1e-200\n"
TINY_B2_REPORT = (
    "<cfg>:1: plant.k1: must be in [1e-6, 1e6], got 1e-200\n<cfg>:2: plant.k_p: must be in [1e-6, 1e6], got 1e-200"
)


@pytest.mark.parametrize("controller", ["classical", "afmpc"])
@pytest.mark.parametrize(
    "text, report",
    [
        # b2 = k1 k_p / J1 underflowed to 0: the config error blamed the
        # reference frequency, and without the consistent arm the run went on
        # with no pendulum input
        (TINY_B2, TINY_B2_REPORT),
        (TINY_B2 + "reference.consistent_arm = false\n", TINY_B2_REPORT),
        # the run raised "Maximum allowed size exceeded"; at 401 digits
        # load_config itself raised OverflowError, as math.isfinite of the
        # int would
        (f"mpc.kp = {KP_301}\n", f"<cfg>:1: mpc.kp: must be in [1, 1000], got {KP_301}"),
        (f"mpc.kp = {KP_401}\n", f"<cfg>:1: mpc.kp: must be in [1, 1000], got {KP_401}"),
        # the step's ramp polynomial overflowed at t = 0 with a RuntimeWarning
        (
            "reference.kind = step\nreference.step_time = 1e100\n",
            "<cfg>:2: reference.step_time: must be in [0, 1e6], got 1e100",
        ),
        # classical exited 0 with rmse=inf
        ("scenario.alpha0 = 1e300\n", "<cfg>:1: scenario.alpha0: must be in [-1e6, 1e6], got 1e300"),
        (
            "disturbance.kind = sinusoid\ndisturbance.amplitude = 1e300\n",
            "<cfg>:2: disturbance.amplitude: must be in [0, 1e6], got 1e300",
        ),
        # x0 overflowed, and the config error called the frequency too small
        (
            "reference.amplitude = 1e300\nreference.frequency = 1e10\n",
            "<cfg>:1: reference.amplitude: must be in [-1e6, 1e6], got 1e300\n"
            "<cfg>:2: reference.frequency: must be in [1e-6, 1e6], got 1e10",
        ),
        # classical exited 0 with rmse=inf
        (
            "reference.frequency = 1e200\nreference.consistent_arm = false\n",
            "<cfg>:1: reference.frequency: must be in [1e-6, 1e6], got 1e200",
        ),
    ],
    ids=[
        "tiny-b2",
        "tiny-b2-no-arm",
        "kp-301-digits",
        "kp-401-digits",
        "step-time-1e100",
        "alpha0-1e300",
        "disturbance-amplitude-1e300",
        "amplitude-1e300-frequency-1e10",
        "frequency-1e200-no-arm",
    ],
)
def test_run_value_outside_its_domain_is_a_config_error(tmp_path, capsys, controller, text, report):
    # one line for each value outside its key's domain, and no run: no
    # traceback, no warning (an error under this suite's filters) and no CSV
    path = write_config(tmp_path, text + "run.duration = 0.1\n")
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", controller, "--out", out])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error:\n{report.replace('<cfg>', path)}\n"
    assert not os.path.exists(out)


def test_endless_duration_is_a_config_error(tmp_path):
    # 2e301 control periods, a run that never ends, was accepted; load_config
    # only, so that a regression cannot start it
    path = write_config(tmp_path, "run.duration = 1e300\n")
    with pytest.raises(harness.ConfigError) as excinfo:
        harness.load_config(path)
    assert str(excinfo.value) == f"{path}:1: run.duration: must be in (0, 1e6], got 1e300"


def test_run_afmpc_degenerate_firing_at_the_logged_state_ends_diverged(tmp_path, capsys, monkeypatch):
    # the phase stays finite to the run's end, but x0's x4 is a*w = 1.26e307,
    # where the rules' firing strengths are not finite: w_diag's f_hat raised
    # DegenerateFiringError out of the run. The period is logged with w_diag
    # NaN and the run ends diverged, as classical's does. load_config
    # rejects the frequency, so the config is built in code and handed to
    # the command in its place
    default = harness.default_config()
    config = dataclasses.replace(
        default,
        reference=dataclasses.replace(default.reference, frequency=1e307, consistent_arm=False),
        duration=0.5,
    )
    monkeypatch.setattr(
        harness, "load_config", lambda path, overrides: dataclasses.replace(config, controller=overrides["controller"])
    )
    path = write_config(tmp_path, "")
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "afmpc", "--out", out])
    assert code == cli.EXIT_DIVERGED
    assert capsys.readouterr().err == "run diverged before the configured duration\n"
    logged = harness.load_csv(out)
    assert logged["t"].tolist() == [0.0]
    assert logged["x4"][0] == pytest.approx(1.2566370614359175e307)
    assert np.isnan(logged["w_diag"][0])


def test_run_negative_seed_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, SHORT_RUN)
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "afmpc", "--out", out, "--seed", "-1"])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_singular_lyapunov_a_is_a_config_error(tmp_path, capsys):
    # a singular A made the Lyapunov solve raise in build_closed_loop
    path = write_config(tmp_path, SHORT_RUN + "adapt.lyapunov_a =" + " 0" * 16 + "\n")
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "afmpc", "--out", out])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines",
    [
        # the Kronecker operator overflows: SingularLyapunovError escaped main
        "adapt.lyapunov_a = -1e308 0 0 0 0 -1 0 0 0 0 -1 0 0 0 0 -1\n",
        # Hurwitz by its eigenvalues, but the solve overflows to a NaN P: the
        # run exited 0 with V = nan on every row
        "adapt.lyapunov_a = -0.1 0 1e168 1e126 0 -0.01 -1e172 1e48 0 0 -1000 1e182 0 0 0 -100\n"
        "adapt.lyapunov_q_diag = 1e84\n",
    ],
    ids=["overflowing-diagonal", "nan-p"],
)
def test_run_unusable_lyapunov_p_is_a_config_error(tmp_path, capsys, lines):
    path = write_config(tmp_path, SHORT_RUN + lines)
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "afmpc", "--out", out])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_io_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, SHORT_RUN)
    out = str(tmp_path / "missing_dir" / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "classical", "--out", out])
    assert code == cli.EXIT_IO
    assert "failed writing CSV" in capsys.readouterr().err


def test_run_divergence_exit_code(tmp_path, capsys):
    # an absurdly tight parameter bound trips the blow-up guard immediately
    path = write_config(
        tmp_path, SHORT_RUN + "fuzzy.init = zero\nfuzzy.theta_bound = 1e-12\n"
    )
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "afmpc", "--out", out])
    assert code == cli.EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err
    # the partial log is still exported for post-mortem inspection
    assert harness.load_csv(out)["t"].shape[0] >= 1


def test_run_afmpc_plant_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # a plant step that leaves the finite range, here the 160th, in the
    # fourth control period, ends the run diverged with the periods before
    # it logged (load_config rejects the steps at which RK4 itself blows up)
    inner = mpc.plant_step
    calls = 0

    def diverging(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 160:
            raise IntegrationDivergenceError("integration diverged")
        return inner(*args, **kwargs)

    monkeypatch.setattr(mpc, "plant_step", diverging)
    path = write_config(tmp_path, "run.duration = 120\nfuzzy.init_samples = 500\n")
    out = str(tmp_path / "log.csv")
    code = cli.main(["run", "--config", path, "--controller", "afmpc", "--out", out])
    assert code == cli.EXIT_DIVERGED
    assert "run diverged" in capsys.readouterr().err
    t = harness.load_csv(out)["t"]
    assert 0 < t.shape[0] < 60
    assert np.all(np.isfinite(t))


def test_compare_writes_report_and_both_csvs(tmp_path, capsys):
    path = write_config(tmp_path, SHORT_RUN)
    out_dir = tmp_path / "cmp"
    code = cli.main(["compare", "--config", path, "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    assert harness.load_csv(str(out_dir / "classical.csv"))["t"].shape == (10,)
    assert harness.load_csv(str(out_dir / "afmpc.csv"))["t"].shape == (10,)
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert "steady-state error ratio (afmpc / classical):" in report
    assert capsys.readouterr().out == report


def test_compare_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "controller = pid\n")
    code = cli.main(["compare", "--config", path, "--out-dir", str(tmp_path / "cmp")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_installed_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "afmpc", "--print-defaults"],
        capture_output=True,
        text=True,
        timeout=60,
        env=checkout_env(),
    )
    assert proc.returncode == 0
    assert "controller = classical" in proc.stdout


def test_run_csv_independent_of_blas_threads(tmp_path):
    # criterion 9 at the 81-rule default: the nominal_fit Gram product and
    # every other BLAS call on the run's path give the same bytes under one
    # and two OpenBLAS threads
    path = write_config(tmp_path, "run.duration = 1.0\n")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"afmpc_{threads}.csv"
        env = checkout_env(OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "afmpc", "run", "--config", path,
             "--controller", "afmpc", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_csv_independent_of_the_runs_before_it_in_the_process(tmp_path):
    # criterion 9 across configs whose solves build per-config constants: in
    # one process, each run's CSV is the bytes of the same config's run in a
    # fresh process. u_max 0.0 and -0.0 compare equal, but their input boxes
    # differ in the sign of zero.
    variants = {
        "u_max_0": "mpc.u_max = 0.0\n",
        "u_max_minus_0": "mpc.u_max = -0.0\n",
        "q_diag": "mpc.q_diag = 0.1 0.1 10 0.1\n",
        "r": "mpc.r = 0.05\n",
        "kc": "mpc.kc = 2\n",
        "default": "",
    }
    for name, text in variants.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text("run.duration = 1.0\n" + text, encoding="utf-8")
        config = harness.load_config(str(path), {"controller": "classical"})
        log, _ = harness.run_scenario(config)
        harness.export_csv(log, str(tmp_path / f"{name}_in_process.csv"))
    for name in variants:
        fresh = tmp_path / f"{name}_fresh.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "afmpc", "run", "--config", str(tmp_path / f"{name}.cfg"),
             "--controller", "classical", "--out", str(fresh)],
            capture_output=True,
            text=True,
            timeout=120,
            env=checkout_env(),
        )
        assert proc.returncode in (cli.EXIT_OK, cli.EXIT_DIVERGED), proc.stderr
        assert (tmp_path / f"{name}_in_process.csv").read_bytes() == fresh.read_bytes(), name
