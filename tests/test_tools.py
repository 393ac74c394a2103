"""Smoke tests of the scripts under tools/."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
        assert line.startswith(f"{record['run']} ")
        assert f"falls {record['t']:.2f} s" in line
    # theta_g is the adaptive controller's alone
    assert records[0]["theta_g"] is None and lines[0].endswith("theta_g -")
    lo, hi = records[1]["theta_g"]
    assert lo <= hi and lines[1].endswith(f"theta_g {lo:.4g} .. {hi:.4g}")
