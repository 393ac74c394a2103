"""In-memory span tracer and the wrappers that attach it to afmpc's layers
from outside.

Each wrapper replaces the name a caller looks up, not the defining one:
`afmpc.mpc` binds `plant.step` as `plant_step` and `minimize` by name, so a
wrapper on `afmpc.plant.step` or `afmpc.nlp_optimizer.minimize` would never
be called. The call-count identities in `check_identities` catch a wrapper
that reads zero.
"""

from __future__ import annotations

import functools
import time

from common import median


class Tracer:
    """Spans (name, start, end, parent) kept in flat in-memory lists."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        # one entry per nlp_optimizer.minimize return:
        # (iterations, objective evaluations, KKT residual, status)
        self.solutions: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(-1)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def wrap(self, name: str, fn):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def self_times(self) -> list[int]:
        """Each span's duration minus the part of it its child spans cover."""
        if self._open:
            raise RuntimeError("spans still open")
        children: list[list[int]] = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx, kids in enumerate(children):
            start, end = self.starts[idx], self.ends[idx]
            covered = 0
            reach = start
            for k in sorted(kids, key=self.starts.__getitem__):
                lo, hi = max(self.starts[k], reach), min(self.ends[k], end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            out.append(end - start - covered)
        return out

    def totals(self) -> dict:
        """name -> (calls, total ns, self ns)."""
        acc: dict[str, list[int]] = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            entry = acc.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        return {name: tuple(v) for name, v in acc.items()}


def instrument(tracer: Tracer, afmpc_pkg) -> list:
    """Wrap every layer call site with a span; returns what `restore` undoes."""
    fuzzy, mpc, harness = afmpc_pkg.fuzzy, afmpc_pkg.mpc, afmpc_pkg.harness
    sites = [
        (fuzzy, "basis", "fuzzy.basis"),
        (fuzzy, "basis_matrix", "fuzzy.basis_matrix"),
        (fuzzy, "fit_consequents_lsq", "fuzzy.fit_consequents_lsq"),
        (fuzzy, "adapt", "fuzzy.adapt"),
        (mpc, "plant_step", "plant.step"),
        (mpc, "predict_trajectory", "mpc.predict_trajectory"),
        (mpc.NominalPredictor, "predict", "mpc.predict"),
        (mpc.AdaptiveFuzzyPredictor, "predict", "mpc.predict"),
        (mpc, "solve_step", "mpc.solve_step"),
        (harness, "solve_lyapunov", "dense_linalg.solve_lyapunov"),
        (harness, "state_reference", "harness.state_reference"),
    ]
    saved = []
    for owner, attr, name in sites:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original))

    minimize = mpc.minimize
    traced_minimize = tracer.wrap("nlp_optimizer.minimize", minimize)

    @functools.wraps(minimize)
    def recording_minimize(*args, **kwargs):
        sol = traced_minimize(*args, **kwargs)
        tracer.solutions.append(
            (sol.iterations, sol.objective_evaluations, sol.kkt_residual, sol.status)
        )
        return sol

    saved.append((mpc, "minimize", minimize))
    mpc.minimize = recording_minimize
    return saved


class SolveTimer:
    """Untraced timing of each `solve_step` call and of each control period.

    After every `every`-th solve it runs `probe` (a fixed machine-speed loop
    returning its own duration in seconds) outside the timed call, and
    `periods` takes that time back out of the period it ran in.
    """

    def __init__(self, probe, every: int, clock=time.perf_counter):
        self.probe, self.every, self.clock = probe, every, clock
        self.starts: list[float] = []
        self.solve_s: list[float] = []
        self.probe_at: list[int] = []  # solves completed when each probe ran
        self.probe_s: list[float] = []

    def attach(self, mpc_module) -> list:
        """Wrap `mpc_module.solve_step`; returns what `restore` undoes."""
        original = mpc_module.solve_step
        clock = self.clock

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = clock()
            self.starts.append(t0)
            try:
                return original(*args, **kwargs)
            finally:
                self.solve_s.append(clock() - t0)
                done = len(self.solve_s)
                if done % self.every == 0:
                    self.probe_at.append(done)
                    self.probe_s.append(self.probe())

        mpc_module.solve_step = timed
        return [(mpc_module, "solve_step", original)]

    def periods(self, begin: float, end: float) -> list:
        """Seconds of each control period, less its probe: from `begin` (the
        simulation's start) or its solve's start to the next solve's start,
        the last one to `end`. They sum to the simulation time without the
        probes."""
        bounds = [begin] + self.starts[1:] + [end]
        out = [b - a for a, b in zip(bounds, bounds[1:])]
        for at, spent in zip(self.probe_at, self.probe_s):
            out[at - 1] -= spent
        return out


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run, keyed by metric name."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0, 0))[0]

    def mean_us(name, own=False):
        n, total, self_ns = tot.get(name, (0, 0, 0))
        return (self_ns if own else total) / n / 1e3 if n else 0.0

    def total_s(name, own=False):
        _, total, self_ns = tot.get(name, (0, 0, 0))
        return (self_ns if own else total) / 1e9

    sols = tracer.solutions
    iters = [s[0] for s in sols]
    evals = [s[1] for s in sols]
    solves = calls("mpc.solve_step")
    return {
        "fuzzy.basis.calls": calls("fuzzy.basis"),
        "fuzzy.basis.us": mean_us("fuzzy.basis"),
        "fuzzy.basis.self_s": total_s("fuzzy.basis", own=True),
        "fuzzy.adapt.calls": calls("fuzzy.adapt"),
        "fuzzy.adapt.self_us": mean_us("fuzzy.adapt", own=True),
        "plant.step.calls": calls("plant.step"),
        "plant.step.us": mean_us("plant.step"),
        "harness.state_reference.calls": calls("harness.state_reference"),
        "harness.state_reference.us": mean_us("harness.state_reference"),
        "nlp_optimizer.iters_mean": sum(iters) / len(iters) if iters else 0.0,
        "nlp_optimizer.iters_max": max(iters, default=0),
        "nlp_optimizer.evals_mean": sum(evals) / len(evals) if evals else 0.0,
        "nlp_optimizer.evals_max": max(evals, default=0),
        "nlp_optimizer.converged_frac": (
            sum(1 for s in sols if s[3] == "converged") / len(sols) if sols else 0.0
        ),
        "nlp_optimizer.kkt_p50": median([s[2] for s in sols]) if sols else 0.0,
        "nlp_optimizer.minimize.self_s": total_s("nlp_optimizer.minimize", own=True),
        "mpc.predict_trajectory.calls": calls("mpc.predict_trajectory"),
        "mpc.predict_trajectory.us": mean_us("mpc.predict_trajectory"),
        "mpc.predict.calls": calls("mpc.predict"),
        "mpc.predict.self_us": mean_us("mpc.predict", own=True),
        "mpc.rollouts_per_solve": calls("mpc.predict_trajectory") / solves if solves else 0.0,
        "mpc.solve_step.self_s": total_s("mpc.solve_step", own=True),
        "fuzzy.fit_consequents_lsq.s": total_s("fuzzy.fit_consequents_lsq"),
        "fuzzy.basis_matrix.s": total_s("fuzzy.basis_matrix"),
        "dense_linalg.solve_lyapunov.us": mean_us("dense_linalg.solve_lyapunov"),
        "harness.export_csv.ms": total_s("harness.export_csv") * 1e3,
    }


def check_identities(tracer: Tracer, periods: int, substeps: int, horizon: int,
                     adaptive: bool) -> list:
    """Call-count identities a complete trace of `periods` control periods
    satisfies; returns the violated ones. Each period makes one solve, one
    minimize, `substeps` plant steps and, when adaptive, as many adaptation
    steps; each rollout calls the predictor once per horizon slot, and each
    fuzzy prediction calls the basis once per RK4 stage."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0,))[0]

    expected = {
        "mpc.solve_step": periods,
        "nlp_optimizer.minimize": periods,
        "plant.step": substeps * periods,
        "fuzzy.adapt": substeps * periods if adaptive else 0,
        "mpc.predict": horizon * calls("mpc.predict_trajectory"),
        # minimize's evaluations plus the solve's warm-start and final costs
        "mpc.predict_trajectory": sum(s[1] + 2 for s in tracer.solutions),
        # per period, f_hat and g_hat in the logged diagnostic
        "fuzzy.basis": (
            4 * calls("mpc.predict") + calls("fuzzy.adapt") + 2 * periods if adaptive else 0
        ),
    }
    return [
        f"{name}.calls = {calls(name)}, expected {want}"
        for name, want in expected.items()
        if calls(name) != want
    ]
