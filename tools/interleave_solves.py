"""Time the default run's solves, and its period loop, of two afmpc source
trees in one process.

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
the ratios B/A, and whether both trees returned the same input, cost and
status, bit for bit, for every solve; if not, the largest absolute
difference of the input and of the cost over the paired solves, so that a
rounding-level change can be told from a larger one, and how many solves
differ in status. Every replay gets a fresh
copy of its predictor, so caches the predictor builds on first use are
paid as in the closed-loop run.

Then each repetition replays every solve of A and of B once more, in the
same alternating order, with predict_trajectory answered from that tree's
own rollouts, recorded in one untimed replay and keyed by the bytes of x0,
U and d and the sensitivities flag. Its time is thus the solve's fixed
cost: everything a solve does outside predict_trajectory (the lookup of
a recorded rollout included). The script prints each tree's p50 and sum of
the per-solve minima, and the ratios B/A. A replay that does not return
its tree's own solve result, bit for bit, stops the script.

Then each repetition runs each tree's whole default run once more, A and
B in turn in the same alternating order, with every solve_step call
answered by that tree's own recorded ControlStep in place of a solve. Its
time is thus the period loop alone: the plant sub-steps, the adaptation,
the reference and the log. The script prints each tree's minimum over the
repetitions, the ratio B/A, and whether the two trees' logs are the same,
bit for bit.

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


def record_solves(pkg, controller: str) -> tuple[list, tuple]:
    """Run the default scenario once; returns the (args, kwargs) of each
    solve and the run, (x0, loop, steps, ControlStep of each solve)."""
    harness, mpc = pkg.harness, pkg.mpc
    config = dataclasses.replace(harness.default_config(), controller=controller)
    loop, x0, steps = harness.build_closed_loop(config)
    solve_step = mpc.solve_step
    calls, steps_out = [], []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        steps_out.append(solve_step(*args, **kwargs))
        return steps_out[-1]

    mpc.solve_step = recording
    try:
        mpc.run_receding_horizon(x0, loop, steps)
    finally:
        mpc.solve_step = solve_step
    return calls, (x0, loop, steps, steps_out)


def replay(pkg, call) -> tuple[int, tuple, int]:
    """One timed solve on a fresh copy of its predictor: (ns, (input, cost,
    status), rollouts)."""
    args, kwargs = call
    args = (dataclasses.replace(args[0]),) + args[1:]
    solve_step = pkg.mpc.solve_step
    t0 = time.perf_counter_ns()
    step = solve_step(*args, **kwargs)
    t1 = time.perf_counter_ns()
    return t1 - t0, (step.applied_input, step.predicted_cost, step.solver_status), step.evaluations


def rollout_key(x0, U, d, sensitivities) -> tuple:
    """The key of one predict_trajectory call: the bytes of its arrays."""
    return x0.tobytes(), U.tobytes(), d.tobytes(), bool(sensitivities)


def record_rollouts(pkg, call) -> dict:
    """Replay one recorded solve untimed; returns every predict_trajectory
    result it got, keyed by rollout_key and made read-only."""
    mpc = pkg.mpc
    predict = mpc.predict_trajectory
    rollouts = {}

    def recording(model, x0, U, d, sensitivities=False):
        out = predict(model, x0, U, d, sensitivities)
        for array in out if sensitivities else (out,):
            array.setflags(write=False)
        rollouts[rollout_key(x0, U, d, sensitivities)] = out
        return out

    mpc.predict_trajectory = recording
    try:
        replay(pkg, call)
    finally:
        mpc.predict_trajectory = predict
    return rollouts


def replay_fixed(pkg, call, rollouts) -> tuple[int, tuple]:
    """One timed solve whose rollouts are answered from rollouts (see
    record_rollouts): (ns, (input, cost, status))."""
    args, kwargs = call
    mpc = pkg.mpc
    predict = mpc.predict_trajectory
    mpc.predict_trajectory = lambda model, x0, U, d, sensitivities=False: rollouts[
        rollout_key(x0, U, d, sensitivities)
    ]
    try:
        t0 = time.perf_counter_ns()
        step = mpc.solve_step(*args, **kwargs)
        t1 = time.perf_counter_ns()
    finally:
        mpc.predict_trajectory = predict
    return t1 - t0, (step.applied_input, step.predicted_cost, step.solver_status)


def replay_run(pkg, run) -> tuple[int, object]:
    """One timed closed-loop run whose solves return the recorded
    ControlSteps in order: (ns, log)."""
    x0, loop, steps, steps_out = run
    answers = iter(steps_out)
    solve_step = pkg.mpc.solve_step
    pkg.mpc.solve_step = lambda *args, **kwargs: next(answers)
    try:
        t0 = time.perf_counter_ns()
        log = pkg.mpc.run_receding_horizon(x0, loop, steps)
        t1 = time.perf_counter_ns()
    finally:
        pkg.mpc.solve_step = solve_step
    return t1 - t0, log


def same_logs(log_a, log_b) -> bool:
    """Whether two TrajectoryLogs hold the same records, bit for bit, and end
    alike, with the same final fuzzy parameters."""
    fields = [f.name for f in dataclasses.fields(log_a) if f.name != "final_fuzzy"]
    for name in fields:
        a, b = getattr(log_a, name), getattr(log_b, name)
        if hasattr(a, "dtype"):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        elif a != b:
            return False
    fa, fb = log_a.final_fuzzy, log_b.final_fuzzy
    if (fa is None) != (fb is None):
        return False
    return fa is None or (
        fa.theta_f.tobytes() == fb.theta_f.tobytes() and fa.theta_g.tobytes() == fb.theta_g.tobytes()
    )


def result_lines(results_a: list, results_b: list) -> list[str]:
    """Whether the paired (input, cost, status) results are the same, bit
    for bit; if not, also the largest |difference| of the input and of the
    cost over the pairs, and how many pairs differ in status."""
    if results_a == results_b:
        return ["same results: yes"]
    du = max(abs(a[0] - b[0]) for a, b in zip(results_a, results_b))
    dc = max(abs(a[1] - b[1]) for a, b in zip(results_a, results_b))
    ds = sum(a[2] != b[2] for a, b in zip(results_a, results_b))
    return ["same results: no",
            f"largest |difference|: applied input {du:.3e}, predicted cost {dc:.3e}",
            f"solves with another status: {ds} of {len(results_a)}"]


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
    calls, runs = zip(*(record_solves(pkg, args.controller) for pkg in trees))
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
    for line in result_lines(*results):
        print(line)

    recorded = [[record_rollouts(pkg, call) for call in tree_calls[:n]]
                for pkg, tree_calls in zip(trees, calls)]
    fixed = [[float("inf")] * n for _ in trees]
    for rep in range(args.reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for i in range(n):
            for t in order:
                ns, result = replay_fixed(trees[t], calls[t][i], recorded[t][i])
                if result != results[t][i]:
                    raise SystemExit(f"tree {'AB'[t]}, solve {i}: the replay with recorded "
                                     "rollouts returned another result")
                fixed[t][i] = min(fixed[t][i], ns)
    fixed_stats = [(statistics.median(ns) / 1e3, sum(ns) / 1e6) for ns in fixed]
    (pa, sa), (pb, sb) = fixed_stats
    print(f"fixed cost with recorded rollouts, per-solve minima: A p50 {pa:.1f} us, sum {sa:.2f} ms;"
          f" B p50 {pb:.1f} us, sum {sb:.2f} ms; B/A p50 {pb / pa:.4f}, sum {sb / sa:.4f}")

    loop_best = [float("inf"), float("inf")]
    logs = [None, None]
    for rep in range(args.reps):
        for t in ((0, 1) if rep % 2 == 0 else (1, 0)):
            ns, logs[t] = replay_run(trees[t], runs[t])
            loop_best[t] = min(loop_best[t], ns)
    ms = [ns / 1e6 for ns in loop_best]
    print(f"period loop with recorded solves, minima: A {ms[0]:.2f} ms, B {ms[1]:.2f} ms, "
          f"B/A {ms[1] / ms[0]:.4f}")
    print(f"same logs: {'yes' if same_logs(*logs) else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
