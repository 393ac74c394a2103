"""Smoke test of the scripts under tools/."""

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
