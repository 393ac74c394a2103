"""Closed-loop benchmark of the afmpc simulator.

    python3 perfbench/run.py --workload afmpc_sine --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 1 --out results.json

Repeats the workload's closed-loop run, each repetition in a fresh worker
process with BLAS pinned to one thread, until `--seconds` have passed. With
`--trace 0` it reports the end-to-end metrics: times scaled to a nominal
machine speed, which a fixed probe loop run between the timed calls gauges,
and taken as medians over the repetitions. With `--trace 1` it alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Exits 1 when a correctness check fails
and 2 when the afmpc sources are missing. README.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (BEATS_CLASSICAL, NOMINAL_PROBE_S, WORKLOADS, column_medians, median,
                    nearest_rank, p95)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150.0
MIN_UNTRACED_REPS = 3

# An unpinned OpenBLAS wakes a second thread whose start-up, not the fit,
# dominated setup_s after the machine idled (README.md, "How a run works").
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s": "s",
    "solve_p50_ms": "ms",
    "solve_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {"setup_raw_s": "s", "sim_raw_s": "s", "solve_p50_raw_ms": "ms"}


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


def run_worker(workload: str, seed: int, traced: bool, out_dir: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--out-dir", out_dir,
    ]
    env = dict(os.environ, **PINNED_ENV)
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool, out_dir: str,
                 hard_deadline: float) -> dict:
    """Repeat the workload for `seconds`; returns the aggregated result."""
    # untraced repetitions always run; with tracing, traced ones alternate
    kinds = [False, True] if traced else [False]
    min_untraced = 1 if traced else MIN_UNTRACED_REPS
    reps = {False: [], True: []}
    longest = {False: 0.0, True: 0.0}
    deadline = time.monotonic() + seconds
    for turn in itertools.count():
        kind = kinds[turn % len(kinds)]
        enough = len(reps[False]) >= min_untraced and len(reps[True]) >= int(traced)
        if enough and time.monotonic() + longest[kind] > deadline:
            break
        t0 = time.monotonic()
        reps[kind].append(run_worker(workload, seed, kind, out_dir, hard_deadline))
        longest[kind] = max(longest[kind], time.monotonic() - t0)

    untraced, traced_reps = reps[False], reps[True]
    everything = untraced + traced_reps
    errors = [e for r in everything for e in r["errors"]]
    sse = {r["sse_rad"] for r in everything}
    if len(sse) != 1:
        errors.append(f"sse_rad differs between repetitions of one seed: {sorted(sse)}")
    sse_rad = everything[0]["sse_rad"]
    rival = BEATS_CLASSICAL.get(workload)
    if rival is not None:
        ref = run_worker(rival, seed, False, out_dir, hard_deadline)
        errors.extend(f"{rival} reference: {e}" for e in ref["errors"])
        if not sse_rad < ref["sse_rad"]:
            errors.append(
                f"sse_rad {sse_rad:.6f} is not below {rival}'s {ref['sse_rad']:.6f}"
            )

    attempted = sum(r["configured"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    out = {
        "workload": workload,
        "seed": seed,
        "reps": len(untraced),
        "traced_reps": len(traced_reps),
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "sse_rad": sse_rad,
        "failed_frac": failed / attempted,
        "machine_ref_ms": median([r["probe_ms"] for r in everything]),
        "machine": everything[0]["machine"],
        "solves": len(untraced[0]["solve_ms"]),
    }
    # Every repetition of one seed computes the same solves, so each solve
    # and each period is taken as its median over the repetitions, at the
    # nominal machine speed; the percentiles are over those 200 medians.
    try:
        solves = column_medians([r["solve_ms"] for r in untraced])
        period_s = column_medians([r["period_s"] for r in untraced])
        tail = p95(solves)
    except ValueError as exc:  # a truncated run, already an error above
        errors.append(f"solve times not comparable: {exc}")
        solves = [x for r in untraced for x in r["solve_ms"]]
        period_s = untraced[0]["period_s"]
        tail = nearest_rank(solves, 0.95)
    out["end_to_end"] = {
        "setup_s": median([r["setup_s"] for r in untraced]),
        "sim_s": sum(period_s),
        "solve_p50_ms": nearest_rank(solves, 0.5),
        "solve_p95_ms": tail,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }
    out["raw"] = {
        "setup_raw_s": median([r["setup_raw_s"] for r in untraced]),
        "sim_raw_s": median([r["sim_raw_s"] for r in untraced]),
        "solve_p50_raw_ms": median([r["solve_p50_raw_ms"] for r in untraced]),
    }
    if traced_reps:
        # nearest-rank median: a count stays a count
        names = traced_reps[0]["layers"]
        layers = {n: nearest_rank([r["layers"][n] for r in traced_reps], 0.5) for n in names}
        layers["trace.overhead"] = (
            median([r["sim_raw_s"] * r["speed"] for r in traced_reps])
            / median([r["sim_raw_s"] * r["speed"] for r in untraced])
        )
        layers["machine.ref_ms"] = out["machine_ref_ms"]
        layers["sse_rad"] = sse_rad
        layers["failed_frac"] = out["failed_frac"]
        out["per_layer"] = layers
    return out


def report(res: dict) -> None:
    """Human-readable lines; every metric by name with its unit."""
    w = res["workload"]
    m = res["machine"]
    print(
        f"[{w}] seed {res['seed']}: {res['reps']} untraced + {res['traced_reps']} traced "
        f"runs, each {res['solves']} solves, in fresh processes"
    )
    print(
        f"[{w}] machine: nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}, "
        f"{m['blas']}, BLAS threads {m['blas_threads']}, "
        f"speed probe median {res['machine_ref_ms']:.3f} ms "
        f"(times scaled to {NOMINAL_PROBE_S * 1e3:g} ms)"
    )
    for name, value in res["end_to_end"].items():
        print(f"[{w}] {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in res["raw"].items():
        print(f"[{w}] {name} = {value:.6g} {RAW_UNITS[name]}  (unscaled, not gated)")
    print(f"[{w}] sse_rad = {res['sse_rad']:.6g} rad")
    print(f"[{w}] failed_frac = {res['failed_frac']:.6g} ratio  "
          f"({res['failed']} of {res['attempted']} periods)")
    if "per_layer" in res:
        units = per_layer_units()
        for name, value in res["per_layer"].items():
            print(f"[{w}] {name} = {value:.6g} {units[name]}")
    for e in res["errors"]:
        print(f"[{w}] CHECK FAILED: {e}", file=sys.stderr)


def result_line(res: dict, traced: bool) -> dict:
    units = per_layer_units() if traced else END_TO_END_UNITS
    values = res["per_layer"] if traced else res["end_to_end"]
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every result to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "afmpc" / "__init__.py").is_file():
        print(f"afmpc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # the whole command ends within 180 s per workload
    hard_deadline = time.monotonic() + 170.0 * len(names)
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        results = [
            run_workload(n, args.seed, args.seconds, bool(args.trace), out_dir, hard_deadline)
            for n in names
        ]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for res in results:
        report(res)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    lines = [result_line(r, bool(args.trace)) for r in results]
    if len(lines) == 1:
        line = lines[0]
    else:  # metric names prefixed with the workload's
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {
                f"{r['workload']}.{name}": v
                for r, x in zip(results, lines) for name, v in x["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
