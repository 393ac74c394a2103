"""Smoke tests of the scripts under tools/."""

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    """Imports a script under tools/ as a module. Its import pins the BLAS
    thread variables with os.environ.setdefault and may put src on
    sys.path; both are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))

    def load(name):
        spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_interleave_solves_compares_the_tree_with_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave_solves.py"), str(ROOT), str(ROOT / "src"),
         "--controller", "classical", "--reps", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "controller classical, 200 solves, 1 reps, per-solve minima"
    # each tree's line ends in its mean rollouts per solve, at least the
    # warm start's and the final cost's
    rollouts = [
        re.fullmatch(rf"{label} \S+: p50 \S+ us, sum \S+ ms, (\S+) rollouts per solve", line)
        for label, line in zip("AB", lines[1:3])
    ]
    assert all(rollouts)
    assert rollouts[0].group(1) == rollouts[1].group(1)
    assert float(rollouts[0].group(1)) >= 2.0
    ratios = re.fullmatch(r"B/A: p50 (\S+), sum (\S+)", lines[3])
    assert ratios and all(float(r) > 0.0 for r in ratios.groups())
    # one tree, loaded twice under two names, solves every period alike
    assert lines[4] == "same results: yes"
    # then each tree's solves once more, their rollouts answered from a
    # record: the fixed cost, below the whole solve's
    fixed = re.fullmatch(
        r"fixed cost with recorded rollouts, per-solve minima: A p50 (\S+) us, sum (\S+) ms;"
        r" B p50 (\S+) us, sum (\S+) ms; B/A p50 (\S+), sum (\S+)",
        lines[5],
    )
    assert fixed and all(float(v) > 0.0 for v in fixed.groups())
    pa, sa, pb, sb, ratio_p50, ratio_sum = map(float, fixed.groups())
    solves = re.fullmatch(r"A \S+: p50 (\S+) us, sum (\S+) ms, .*", lines[1])
    assert sa < float(solves.group(2))
    assert abs(pb / pa - ratio_p50) <= 1e-3 and abs(sb / sa - ratio_sum) <= 1e-3
    # then each tree's whole run, its solves answered from its own record
    loop = re.fullmatch(
        r"period loop with recorded solves, minima: A (\S+) ms, B (\S+) ms, B/A (\S+)", lines[6]
    )
    assert loop and all(float(v) > 0.0 for v in loop.groups())
    assert abs(float(loop.group(2)) / float(loop.group(1)) - float(loop.group(3))) <= 1e-3
    assert lines[7:] == ["same logs: yes"]


def test_interleave_solves_compares_the_adaptive_tree_with_itself():
    # afmpc's period loop adds the adaptation after every plant sub-step;
    # the tree against itself gives back every solve and the whole log
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave_solves.py"), str(ROOT), str(ROOT / "src"),
         "--controller", "afmpc", "--reps", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "controller afmpc, 200 solves, 1 reps, per-solve minima"
    assert lines[4] == "same results: yes"
    assert lines[7:] == ["same logs: yes"]


def test_interleave_solves_replays_a_run_and_tells_logs_apart_by_one_bit(tool):
    interleave = tool("interleave_solves")
    pkg = interleave.load_tree(str(ROOT), "afmpc_tool_test")
    calls, run = interleave.record_solves(pkg, "afmpc")
    _, log = interleave.replay_run(pkg, run)
    # the replayed solves give back the recorded run: each solve's state,
    # the applied inputs, and a full log
    assert len(calls) == len(run[3]) == len(log) == run[2]
    assert all(np.array_equal(args[1], x) for (args, _), x in zip(calls, log.states))
    assert list(log.u) == [step.applied_input for step in run[3]]
    _, again = interleave.replay_run(pkg, run)
    assert interleave.same_logs(log, again)
    # one bit in one record, or in the final fuzzy parameters, tells them apart
    moved = dataclasses.replace(log, w_diag=log.w_diag.copy())
    moved.w_diag[-1] = np.nextafter(moved.w_diag[-1], np.inf)
    assert not interleave.same_logs(log, moved)
    fuzzy = log.final_fuzzy
    theta_g = fuzzy.theta_g.copy()
    theta_g[0] = np.nextafter(theta_g[0], np.inf)
    bumped = fuzzy._replace_thetas(fuzzy.theta_f, theta_g)
    assert not interleave.same_logs(log, dataclasses.replace(log, final_fuzzy=bumped))


def test_interleave_solves_reports_the_largest_difference(tool):
    result_lines = tool("interleave_solves").result_lines
    same = [(1.5, 10.0, "converged"), (-5.0, 2.0, "max_iter")]
    assert result_lines(same, list(same)) == ["same results: yes"]
    # the largest |difference| of each, whichever tree's value is larger
    moved = [(1.5 + 2.0**-40, 10.0, "converged"), (-5.0, 2.0 - 2.0**-30, "max_iter")]
    assert result_lines(same, moved) == [
        "same results: no",
        f"largest |difference|: applied input {2.0**-40:.3e}, predicted cost {2.0**-30:.3e}",
        "solves with another status: 0 of 2",
    ]
    assert result_lines(moved, same) == result_lines(same, moved)
    # a status alone tells the results apart, with every input and cost equal
    relabelled = [(1.5, 10.0, "fallback"), (-5.0, 2.0, "max_iter")]
    assert result_lines(same, relabelled) == [
        "same results: no",
        f"largest |difference|: applied input {0.0:.3e}, predicted cost {0.0:.3e}",
        "solves with another status: 1 of 2",
    ]


def test_robustness_stops_each_run_at_the_fall(tmp_path):
    out = tmp_path / "robustness.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "robustness.py"), "--scenario", "u_max-0.5",
         "--duration", "1.0", "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    records = json.loads(out.read_text())["runs"]
    lines = proc.stdout.splitlines()
    assert [r["run"] for r in records] == ["u_max-0.5 classical", "u_max-0.5 afmpc"]
    for record, line in zip(records, lines, strict=True):
        # a 0.5 V input cannot hold the pendulum up: each run stops at its fall
        assert record["outcome"] == "falls"
        assert 0.0 < record["t"] < 1.0
        assert record["overrides"]["mpc.u_max"] == "0.5"
        assert record["rollouts_per_solve"] >= 1.0
        assert record["max_rollouts_per_solve"] >= record["rollouts_per_solve"]
        assert f"rollouts {record['rollouts_per_solve']:.2f} max {record['max_rollouts_per_solve']} " in line
        assert line.startswith(f"{record['run']} ")
        assert f"falls {record['t']:.2f} s" in line
    # theta_g is the adaptive controller's alone
    assert records[0]["theta_g"] is None and lines[0].endswith("theta_g -")
    lo, hi = records[1]["theta_g"]
    assert lo <= hi and lines[1].endswith(f"theta_g {lo:.4g} .. {hi:.4g}")


def test_robustness_rejects_a_duration_the_config_rejects(tool, monkeypatch, capsys):
    # each worker raised the ConfigError in a traceback, and the script
    # exited 1
    robustness = tool("robustness")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(robustness, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as excinfo:
        robustness.main(["--scenario", "default", "--duration", "0.33"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: run.duration: must be a whole number of control periods\n"
    )


def test_robustness_seed_sets_run_afmpc_over_their_seeds(tool):
    runs = tool("robustness").runs
    seeds81 = runs(["seeds81"])
    assert [label for label, _ in seeds81] == [f"seeds81 seed {s}" for s in range(10)]
    # the default scenario: no override but the controller and the seed
    assert [overrides for _, overrides in seeds81] == [
        {"controller": "afmpc", "run.seed": str(s)} for s in range(10)
    ]
    grid = runs(["grid625"])
    assert [label for label, _ in grid] == [f"grid625 seed {s}" for s in range(30)]
    assert all(o["fuzzy.counts"] == "5 5 5 5" and o["controller"] == "afmpc" for _, o in grid)
    assert [label for label, _ in runs(["default"])] == ["default classical", "default afmpc"]


def test_robustness_single_runs_audit_criterion_6(tool):
    robustness = tool("robustness")
    runs = robustness.runs
    assert runs(["oracle"]) == [
        ("oracle classical a3-1.0", {"controller": "classical", "mismatch.a3": "1.0"}),
        ("oracle afmpc gain-0", {"controller": "afmpc", "adapt.gain": "0.0"}),
        ("oracle classical q3-10", {"controller": "classical", "mpc.q_diag": "0.1 0.1 10 0.1"}),
    ]
    samples = runs(["samples"])
    assert [label for label, _ in samples] == [
        f"samples {n} seed {s}" for n in (4000, 20000, 100000) for s in range(4)
    ]
    assert [overrides for _, overrides in samples] == [
        {"controller": "afmpc", "fuzzy.init_samples": str(n), "run.seed": str(s)}
        for n in (4000, 20000, 100000)
        for s in range(4)
    ]
    # every override is a key the config accepts
    for _, overrides in runs(["oracle", "samples"]):
        robustness.harness.load_config(os.devnull, overrides)
