"""Time the default run's solves of two afmpc source trees in one process.

    python3 tools/interleave_solves.py SRC_A SRC_B --controller classical --reps 30

Each SRC is a checkout (holding src/afmpc) or a directory holding afmpc/.
The two trees are imported as two packages, afmpc_a and afmpc_b. Each runs
the default scenario of the chosen controller once, untimed, and records
the arguments of every solve_step call. Then each repetition replays every
recorded solve of A and of B in turn, solve by solve, A first on even
repetitions and B first on odd ones, so that both trees meet the same
drift of the machine's speed. A solve's time is its minimum over the
repetitions. The script prints, per tree, the p50 and the sum of those
minima and the mean rollouts per solve (ControlStep.evaluations), then
the ratios B/A, and whether both trees returned the same input and cost,
bit for bit, for every solve. Every replay gets a fresh
copy of its predictor, so caches the predictor builds on first use are
paid as in the closed-loop run.

BLAS is pinned to one thread unless the environment sets it, as perfbench
does for its workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def load_tree(src: str, name: str):
    """Import the afmpc package under src as the top-level package name."""
    root = Path(src)
    package = root / "src" / "afmpc" if (root / "src" / "afmpc").is_dir() else root / "afmpc"
    init = package / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no afmpc package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def record_solves(pkg, controller: str) -> list:
    """Run the default scenario once; returns the (args, kwargs) of each solve."""
    harness, mpc = pkg.harness, pkg.mpc
    config = dataclasses.replace(harness.default_config(), controller=controller)
    loop, x0, steps = harness.build_closed_loop(config)
    solve_step = mpc.solve_step
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return solve_step(*args, **kwargs)

    mpc.solve_step = recording
    try:
        mpc.run_receding_horizon(x0, loop, steps)
    finally:
        mpc.solve_step = solve_step
    return calls


def replay(pkg, call) -> tuple[int, tuple, int]:
    """One timed solve on a fresh copy of its predictor: (ns, (input, cost),
    rollouts)."""
    args, kwargs = call
    args = (dataclasses.replace(args[0]),) + args[1:]
    solve_step = pkg.mpc.solve_step
    t0 = time.perf_counter_ns()
    step = solve_step(*args, **kwargs)
    t1 = time.perf_counter_ns()
    return t1 - t0, (step.applied_input, step.predicted_cost), step.evaluations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--controller", choices=("classical", "afmpc"), default="classical")
    parser.add_argument("--reps", type=int, default=30)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    trees = [load_tree(args.src_a, "afmpc_a"), load_tree(args.src_b, "afmpc_b")]
    calls = [record_solves(pkg, args.controller) for pkg in trees]
    if len(calls[0]) != len(calls[1]):
        print(f"note: A made {len(calls[0])} solves, B {len(calls[1])}; timing the first "
              f"{min(map(len, calls))} of each")
    n = min(map(len, calls))
    best = [[float("inf")] * n for _ in trees]
    results = [[None] * n for _ in trees]
    rollouts = [[0] * n for _ in trees]
    for rep in range(args.reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for i in range(n):
            for t in order:
                ns, results[t][i], rollouts[t][i] = replay(trees[t], calls[t][i])
                best[t][i] = min(best[t][i], ns)

    print(f"controller {args.controller}, {n} solves, {args.reps} reps, per-solve minima")
    stats = []
    for label, src, times, counts in zip("AB", (args.src_a, args.src_b), best, rollouts):
        us = [ns / 1e3 for ns in times]
        stats.append((statistics.median(us), sum(us) / 1e3))
        print(f"{label} {src}: p50 {stats[-1][0]:.1f} us, sum {stats[-1][1]:.2f} ms, "
              f"{sum(counts) / n:.3f} rollouts per solve")
    print(f"B/A: p50 {stats[1][0] / stats[0][0]:.4f}, sum {stats[1][1] / stats[0][1]:.4f}")
    print(f"same results: {'yes' if results[0] == results[1] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
