"""One closed-loop run of one workload, in the fresh process it was started in.

Calls the functions `afmpc run` uses, in its order: `harness.load_config`,
`harness.build_closed_loop`, `mpc.run_receding_horizon`,
`harness.compute_metrics`, `harness.export_csv`. Prints its measurements and
the outcome of its checks as one JSON object on the last line of stdout.

    python3 perfbench/worker.py --workload afmpc_sine --seed 0 --trace 0 --out-dir DIR

Started by run.py, which pins BLAS to one thread in the environment before
this process imports numpy.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import spans
from common import (NOMINAL_PROBE_S, WORKLOADS, failed_periods, local_speed, median,
                    nearest_rank)

ROOT = Path(__file__).resolve().parent.parent


def import_afmpc():
    """Import afmpc from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import afmpc

    if Path(afmpc.__file__).resolve().parent != src / "afmpc":
        raise ImportError(f"afmpc imported from {afmpc.__file__}, not from {src}")
    return afmpc


def load_scenario(harness, workload: str, seed: int, cfg_path: str):
    """The default scenario with the workload's overrides; seed -> run.seed."""
    with open(cfg_path, "w", encoding="utf-8"):
        pass  # an empty config file is the default scenario
    overrides = dict(WORKLOADS[workload], **{"run.seed": str(seed)})
    return harness.load_config(cfg_path, overrides)


PROBE_EVERY = 5  # solves between two speed probes in the simulation
SETUP_PROBES = 3  # speed probes just before and just after the set-up


def speed_probe(np) -> float:
    """Seconds taken by a fixed pure-Python plus small-numpy loop, about
    2 ms on the machine the benchmark was written on. It runs between the
    timed calls, never inside them, and gauges how fast the machine runs
    the same kind of code at that moment."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10_000):
        acc += (i % 7) * 0.5
    v = np.linspace(0.0, 1.0, 16)
    for _ in range(500):
        v = 0.5 * np.sin(v) + 0.25 * (v @ v) / v.size  # stays in [-0.5, 0.75]
    return time.perf_counter() - t0


def blas_threads(np) -> str:
    """Threads the loaded OpenBLAS reports, or the pinning variable if the
    library does not export its query."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def machine_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
    }


def run_once(workload: str, seed: int, traced: bool, out_dir: str) -> dict:
    afmpc = import_afmpc()
    import numpy as np

    harness, mpc = afmpc.harness, afmpc.mpc
    tag = f"{workload}-{os.getpid()}"
    config = load_scenario(harness, workload, seed, os.path.join(out_dir, tag + ".cfg"))
    csv_path = os.path.join(out_dir, tag + ".csv")

    def probe():
        return speed_probe(np)

    if traced:
        tracer = spans.Tracer()
        saved = spans.instrument(tracer, afmpc)
        build = tracer.wrap("harness.build_closed_loop", harness.build_closed_loop)
        simulate = tracer.wrap("mpc.run_receding_horizon", mpc.run_receding_horizon)
        export = tracer.wrap("harness.export_csv", harness.export_csv)
    else:
        timer = spans.SolveTimer(probe, PROBE_EVERY)
        saved = timer.attach(mpc)
        build, simulate, export = (
            harness.build_closed_loop, mpc.run_receding_horizon, harness.export_csv
        )
    try:
        probe()  # warm-up: numpy's first calls
        setup_probes = [probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        loop, x0, steps = build(config)
        t1 = time.perf_counter()
        setup_probes += [probe() for _ in range(SETUP_PROBES)]
        t2 = time.perf_counter()
        log = simulate(x0, loop, steps)
        t3 = time.perf_counter()
        metrics = harness.compute_metrics(log, config.mpc.dt)
        export(log, csv_path)
    finally:
        spans.restore(saved)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    periods = len(log)
    max_x3 = float(np.max(np.abs(log.states[:, 2])))
    if log.diverged or periods != steps:
        errors.append(f"reached {periods} of {steps} periods (diverged={log.diverged})")
    if not max_x3 < math.pi / 2:
        errors.append(f"|x3| reached {max_x3:.4f} rad, not below pi/2")
    try:
        table = harness.load_csv(csv_path)
    except ValueError as exc:
        errors.append(f"exported CSV does not reload: {exc}")
    else:
        if not (np.array_equal(table["t"], log.t) and np.array_equal(table["u"], log.u)
                and table["status"] == list(log.solver_status)):
            errors.append("reloaded CSV differs from the run's log")
    for path in (csv_path, os.path.join(out_dir, tag + ".cfg")):
        os.remove(path)

    setup_speed = NOMINAL_PROBE_S / median(setup_probes)
    result = {
        "setup_raw_s": t1 - t0,
        "setup_s": (t1 - t0) * setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "sse_rad": metrics.steady_state_error,
        "configured": steps,
        "failed": failed_periods(log.solver_status, steps),
    }
    if traced:
        result.update(sim_raw_s=t3 - t2, speed=setup_speed, probe_ms=median(setup_probes) * 1e3)
        substeps = round(config.mpc.dt / config.plant_dt)
        errors += [
            "trace identity: " + e
            for e in spans.check_identities(
                tracer, periods, substeps, config.mpc.prediction_horizon,
                config.controller == "afmpc",
            )
        ]
        result["layers"] = spans.layer_metrics(tracer)
    else:
        # each period's and each solve's time at the nominal machine speed
        speed = local_speed(timer.probe_at, timer.probe_s, len(timer.solve_s), NOMINAL_PROBE_S)
        raw_periods = timer.periods(t2, t3)
        probes = setup_probes + timer.probe_s
        result.update(
            sim_raw_s=sum(raw_periods),
            solve_p50_raw_ms=nearest_rank(timer.solve_s, 0.5) * 1e3,
            speed=NOMINAL_PROBE_S / median(probes),
            probe_ms=median(probes) * 1e3,
            period_s=[p * f for p, f in zip(raw_periods, speed)],
            solve_ms=[s * f * 1e3 for s, f in zip(timer.solve_s, speed)],
        )
    result["errors"] = errors
    result["machine"] = machine_info(np)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(run_once(args.workload, args.seed, bool(args.trace), args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
