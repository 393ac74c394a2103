"""Run the robustness matrix: which scenarios each controller holds.

    python3 tools/robustness.py [--scenario NAME ...] [--duration S] [--out FILE]

Each scenario is the default one plus the config overrides listed in
MATRIX, run once with the classical and once with the afmpc controller.
SEED_SETS adds afmpc alone over a range of run.seed values: grid625 on the
625-rule grid (fuzzy.counts = 5 5 5 5) with seeds 0 to 29, and seeds81 on
the default scenario (81 rules) with seeds 0 to 9. SINGLE_RUNS adds two
sets of single runs that audit criterion 6 (afmpc's steady-state error at
most 0.25 times classical's): oracle, classical with the exact gravity
coefficient, afmpc without adaptation and classical with a 100 times
heavier pendulum-angle weight; and samples, afmpc with its prior fitted on
4000, 20000 and 100000 samples, seeds 0 to 3 each. Without --scenario
every run is made.

A run stops at the end of the first plant step after which |x3| >= pi/2:
a wrapper on mpc.plant_step records that time and raises
IntegrationDivergenceError, which ends the run as a diverged one. The
wrapper changes no state, so the run is the unwrapped one up to the fall.
Each period runs all its plant steps before its adaptation, so the wrapper
sees every plant step of a period, also those after an adaptation step
that fails in it, which the run then discards. Those steps do not depend
on the adaptation, so a fall among them is still the plant's, and the run
reports it.

Per run, the script prints whether the controller holds (the run reaches
run.duration), falls (with the time) or diverged for another cause (with
the time of the last logged period), then the steady-state error of the
logged periods (harness.compute_metrics), the mean and maximum rollouts per
solve and, for afmpc, the smallest and largest theta_g entry over the fuzzy
models of every period's solve and the run's final model. --out writes the
same records as JSON. Runs are spread over at most 2 worker processes.

BLAS is pinned to one thread unless the environment sets it.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from afmpc import harness, mpc  # noqa: E402
from afmpc.plant import IntegrationDivergenceError  # noqa: E402


def _disturbance(kind: str, amplitude: str) -> dict:
    return {"disturbance.kind": kind, "disturbance.amplitude": amplitude}


MATRIX = {
    "default": {},
    "sinusoid-0.3": _disturbance("sinusoid", "0.3"),
    "sinusoid-0.1": _disturbance("sinusoid", "0.1"),
    "constant-0.2": _disturbance("constant", "0.2"),
    "constant-0.1": _disturbance("constant", "0.1"),
    "step-reference": {"reference.kind": "step"},
    "alpha0-0.3": {"scenario.alpha0": "0.3"},
    "a3-1.5": {"mismatch.a3": "1.5"},
    "a3-0.8": {"mismatch.a3": "0.8"},
    "b2-1.3": {"mismatch.b2": "1.3"},
    "b2-0.7": {"mismatch.b2": "0.7"},
    "noise-0.3": _disturbance("band_limited_noise", "0.3"),
    "u_max-0.5": {"mpc.u_max": "0.5"},
    "u_max-1.0": {"mpc.u_max": "1.0"},
    "step-noise-0.5": {"reference.kind": "step", **_disturbance("band_limited_noise", "0.5")},
}
SEED_SETS = {
    "grid625": ({"fuzzy.counts": "5 5 5 5"}, range(30)),
    "seeds81": ({}, range(10)),
}
SINGLE_RUNS = {
    "oracle": [
        ("oracle classical a3-1.0", {"controller": "classical", "mismatch.a3": "1.0"}),
        ("oracle afmpc gain-0", {"controller": "afmpc", "adapt.gain": "0.0"}),
        ("oracle classical q3-10", {"controller": "classical", "mpc.q_diag": "0.1 0.1 10 0.1"}),
    ],
    "samples": [
        (f"samples {n} seed {seed}",
         {"controller": "afmpc", "fuzzy.init_samples": str(n), "run.seed": str(seed)})
        for n in (4000, 20000, 100000)
        for seed in range(4)
    ],
}


def runs(scenarios: list[str]) -> list[tuple[str, dict]]:
    """(label, overrides) of every run of the named scenarios, in order."""
    out = []
    for name in scenarios:
        if name in SINGLE_RUNS:
            out += SINGLE_RUNS[name]
        elif name in SEED_SETS:
            overrides, seeds = SEED_SETS[name]
            out += [
                (f"{name} seed {seed}", dict(overrides, controller="afmpc", **{"run.seed": str(seed)}))
                for seed in seeds
            ]
        else:
            out += [
                (f"{name} {controller}", dict(MATRIX[name], controller=controller))
                for controller in ("classical", "afmpc")
            ]
    return out


def run_one(label: str, overrides: dict, duration: float | None) -> dict:
    """One closed-loop run, stopped at the fall; returns its record."""
    if duration is not None:
        overrides = dict(overrides, **{"run.duration": repr(duration)})
    config = harness.load_config(os.devnull, overrides)
    loop, x0, steps = harness.build_closed_loop(config)
    fall = []
    thetas = []  # theta_g of the fuzzy model of every solve, then the final one
    plant_step, solve_step = mpc.plant_step, mpc.solve_step

    def stopping_step(x, u, dt, coeffs, disturbance, t):
        x_new = plant_step(x, u, dt, coeffs, disturbance, t)
        if abs(float(x_new[2])) >= math.pi / 2:
            fall.append(t + dt)
            raise IntegrationDivergenceError(f"pendulum fell: |x3| >= pi/2 at t={t + dt:.3f}")
        return x_new

    def watching_solve(model, *args, **kwargs):
        if hasattr(model, "fuzzy"):
            thetas.append(model.fuzzy.theta_g)
        return solve_step(model, *args, **kwargs)

    mpc.plant_step, mpc.solve_step = stopping_step, watching_solve
    try:
        log = mpc.run_receding_horizon(x0, loop, steps)
    finally:
        mpc.plant_step, mpc.solve_step = plant_step, solve_step
    if log.final_fuzzy is not None:
        thetas.append(log.final_fuzzy.theta_g)
    metrics = harness.compute_metrics(log, config.mpc.dt)
    if fall:
        outcome, t_end = "falls", fall[0]
    elif log.diverged:
        outcome, t_end = "diverged", float(log.t[-1])
    else:
        outcome, t_end = "holds", None
    return {
        "run": label,
        "overrides": overrides,
        "outcome": outcome,
        "t": t_end,
        "ss": metrics.steady_state_error,
        "rollouts_per_solve": metrics.mean_evaluations,
        "max_rollouts_per_solve": metrics.max_evaluations,
        "theta_g": [float(np.min(thetas)), float(np.max(thetas))] if thetas else None,
    }


def line(record: dict) -> str:
    outcome = record["outcome"]
    if record["t"] is not None:
        outcome += f" {record['t']:.2f} s"
    theta = record["theta_g"]
    theta = "-" if theta is None else f"{theta[0]:.4g} .. {theta[1]:.4g}"
    return (f"{record['run']:<26} {outcome:<16} ss {record['ss']:.4f}  "
            f"rollouts {record['rollouts_per_solve']:.2f} max {record['max_rollouts_per_solve']}  "
            f"theta_g {theta}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", action="append", choices=[*MATRIX, *SEED_SETS, *SINGLE_RUNS],
                        help="run only this scenario (repeatable)")
    parser.add_argument("--duration", type=float, default=None,
                        help="override run.duration, in seconds")
    parser.add_argument("--out", help="write the records as JSON to this file")
    args = parser.parse_args(argv)
    if args.duration is not None:
        # once here, not once per worker in a traceback
        try:
            harness.load_config(os.devnull, {"run.duration": repr(args.duration)})
        except harness.ConfigError as exc:
            parser.error(str(exc))

    todo = runs(args.scenario or [*MATRIX, *SEED_SETS, *SINGLE_RUNS])
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(2, len(todo)), mp_context=spawn) as pool:
        records = []
        for record in pool.map(run_one, *zip(*todo), [args.duration] * len(todo)):
            print(line(record), flush=True)
            records.append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"duration": args.duration, "runs": records}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
