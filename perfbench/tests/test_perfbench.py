"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
import worker  # noqa: E402
from common import column_medians, failed_periods, local_speed, p95  # noqa: E402


def test_p95_keeps_ten_samples_beyond_it_at_200():
    values = [(7 * i) % 200 for i in range(200)]  # 0..199, shuffled
    value = p95(values)
    assert value == 189
    assert sum(v > value for v in values) == 10
    # 100 samples leave only 5 beyond p95: refused rather than reported
    with pytest.raises(ValueError):
        p95(list(range(100)))


def test_failed_periods_counts_fallbacks_and_truncated_periods():
    statuses = ["converged"] * 140 + ["fallback"] * 2 + ["max_iter"] * 8
    assert failed_periods(statuses, 200) == 2 + 50
    assert failed_periods(["converged"] * 200, 200) == 0
    with pytest.raises(ValueError):
        failed_periods(["converged"] * 3, 2)


def test_local_speed_uses_the_nearest_probes():
    # probes after periods 5, 10, 15, 20; the machine halves its speed after 10
    probe_at, probe_s = [5, 10, 15, 20], [2.0, 2.0, 4.0, 4.0]
    speed = local_speed(probe_at, probe_s, 20, nominal_s=2.0, window=3)
    assert speed[0] == 1.0 and speed[7] == 1.0  # nearest 5, 10, 15
    assert speed[19] == 0.5  # nearest 20, 15, 10
    with pytest.raises(ValueError):
        local_speed([5, 10], [2.0, 2.0], 10, nominal_s=2.0, window=3)


def test_column_medians_take_each_solve_over_the_repetitions():
    assert column_medians([[1, 9], [3, 5], [2, 7]]) == [2, 7]
    with pytest.raises(ValueError):
        column_medians([[1, 2], [3]])


def test_solve_timer_takes_the_probes_out_of_the_periods():
    ticks = iter([10.0, 12.0, 13.0, 15.0])  # solve 1 start/end, solve 2 start/end
    timer = spans.SolveTimer(probe=lambda: 0.5, every=1, clock=lambda: next(ticks))

    class Mpc:
        @staticmethod
        def solve_step():
            return "ok"

    saved = timer.attach(Mpc)
    assert Mpc.solve_step() == "ok" and Mpc.solve_step() == "ok"
    spans.restore(saved)
    assert timer.solve_s == [2.0, 2.0] and timer.probe_at == [1, 2]
    # begin 9.0, end 16.0: periods 9-13 and 13-16, each less a 0.5 s probe
    assert timer.periods(9.0, 16.0) == [3.5, 2.5]


def test_self_time_of_nested_spans():
    ticks = iter([0, 10, 12, 15, 20, 30, 35, 50])
    tr = spans.Tracer(clock=lambda: next(ticks))
    a = tr.open("a")
    b = tr.open("b")
    c = tr.open("c")
    tr.close(c)
    tr.close(b)
    d = tr.open("d")
    tr.close(d)
    tr.close(a)
    assert tr.parents == [-1, 0, 1, 0]
    assert tr.self_times() == [50 - 10 - 5, 10 - 3, 3, 5]
    assert tr.totals() == {"a": (1, 50, 35), "b": (1, 10, 7), "c": (1, 3, 3), "d": (1, 5, 5)}


def test_wrapped_call_closes_its_span_when_it_raises():
    tr = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.totals()["boom"][0] == 1 and tr.ends[0] >= tr.starts[0]


def test_seed_argument_reaches_run_seed(tmp_path, monkeypatch):
    afmpc = worker.import_afmpc()
    config = worker.load_scenario(afmpc.harness, "afmpc_grid625", 17, str(tmp_path / "s.cfg"))
    assert config.seed == 17
    assert config.controller == "afmpc" and config.fuzzy_counts == (5, 5, 5, 5)

    seen = {}
    monkeypatch.setattr(worker, "run_once", lambda w, s, t, o: seen.update(seed=s) or {})
    worker.main(["--workload", "afmpc_sine", "--seed", "23", "--trace", "0",
                 "--out-dir", str(tmp_path)])
    assert seen["seed"] == 23


def _traced_short_run(tmp_path, wrap_defining_name=False):
    afmpc = worker.import_afmpc()
    harness, mpc = afmpc.harness, afmpc.mpc
    config = worker.load_scenario(afmpc.harness, "afmpc_sine", 0, str(tmp_path / "s.cfg"))
    config.duration = 0.2  # four control periods
    tr = spans.Tracer()
    saved = spans.instrument(tr, afmpc)
    try:
        if wrap_defining_name:
            # the mistake the identities exist to catch: afmpc.mpc calls its
            # own alias, so a wrapper on afmpc.plant.step is never reached
            saved += [(mpc, "plant_step", mpc.plant_step), (afmpc.plant, "step", afmpc.plant.step)]
            mpc.plant_step = afmpc.plant.step
            afmpc.plant.step = tr.wrap("plant.step", afmpc.plant.step)
        loop, x0, steps = harness.build_closed_loop(config)
        log = mpc.run_receding_horizon(x0, loop, steps)
    finally:
        spans.restore(saved)
    assert len(log) == 4
    return spans.check_identities(tr, 4, 50, 5, adaptive=True), spans.layer_metrics(tr)


def test_call_count_identities_hold_on_a_traced_run(tmp_path):
    violations, m = _traced_short_run(tmp_path)
    assert violations == []
    assert m["plant.step.calls"] == 200 and m["fuzzy.adapt.calls"] == 200
    assert m["fuzzy.basis.calls"] == 4 * m["mpc.predict.calls"] + 200 + 2 * 4


def test_call_count_identities_catch_a_wrapper_that_reads_zero(tmp_path):
    violations, _ = _traced_short_run(tmp_path, wrap_defining_name=True)
    assert violations == ["plant.step.calls = 0, expected 200"]
