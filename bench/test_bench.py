"""Tests of the benchmark harness itself.

Run with: python3 -m pytest bench/test_bench.py
"""

import time

import numpy as np
import pytest

import run
import tracer as tracing
import workloads

OUT = "unused-out-dir"


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; root > d [7, 9]
    start = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 5.5, 9.0])
    parent = np.array([-1, 0, 1, 1, 0])
    np.testing.assert_allclose(
        tracing.self_times(start, end, parent), [10 - 5 - 2, 5 - 1 - 1.5, 1, 1.5, 2]
    )


def test_tracer_spans_nest_and_restore_functions():
    t = tracing.Tracer()
    original = workloads.closedform.eval_solution
    with t.installed(), t.span("root"):
        assert workloads.closedform.eval_solution is not original
        sol = workloads.closedform.fit_solution([1.0, 0.5], 20.0)
        workloads.closedform.eval_solution(sol, 0.5)  # theta = 20 exp(-0.5) < 14
    assert workloads.closedform.eval_solution is original
    secs, calls = t.totals()
    # fit_solution > fit_constants > basis_matrix > 4 Bessel calls at 20 > 14
    assert calls["closedform.fit_solution"] == calls["closedform.fit_constants"] == 1
    assert calls["bessel.hankel"] == 4 and calls["bessel.series"] == 4
    a = t.arrays()
    assert sum(secs.values()) == pytest.approx(a["end"][0] - a["start"][0])


def test_missing_traced_function_is_an_error(monkeypatch):
    monkeypatch.delattr(workloads.simulate, "propagate_fast_attitude")
    with pytest.raises(AttributeError, match="propagate_fast_attitude"):
        with tracing.Tracer().installed():
            pass


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_unwrapped_item_time_is_not_accounted():
    t = tracing.Tracer()
    with t.span("harness.run"):
        with t.span("harness.item"):
            with t.span("closedform.eval_solution"):
                _busy(0.02)
            _busy(0.02)  # program work that no layer span covers
        with t.span("harness.check"):
            _busy(0.01)
    m = tracing.harness_metrics(t)
    assert m["trace.accounted_frac"] == pytest.approx(0.6, abs=0.05)
    assert m["trace.harness_s"] == pytest.approx(0.01, abs=0.005)


def test_rk45_rejected_matches_a_hand_count(monkeypatch):
    sim = workloads.simulate
    attempts = []
    real_step = sim._dp45_step

    def counting_step(*args):
        attempts.append(1)
        return real_step(*args)

    monkeypatch.setattr(sim, "_dp45_step", counting_step)
    cfg = sim.IntegratorConfig(method="rk45", abs_tol=1e-10, rel_tol=1e-10, t_end=30.0)
    t = tracing.Tracer()
    with t.installed():
        result = sim.run_switching([1.0, 1.0, 0.5], workloads.SWITCH_GAINS, cfg)
    m = tracing.layer_metrics(t)
    assert m["simulate.rk45_accepted"] + m["simulate.rk45_rejected"] == len(attempts)
    assert m["simulate.rk45_rejected"] > 0
    # every stored node but the start and the interpolated switch point was accepted
    assert m["simulate.rk45_accepted"] == len(result.trajectory.times) - 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]
    inputs = lambda seed, r: [(i.kind, i.inputs) for i in w.round(seed, r, OUT)]  # noqa: E731
    assert inputs(7, 0) == inputs(7, 0)
    assert inputs(7, 1) == inputs(7, 1)
    assert inputs(7, 0) != inputs(8, 0)
    assert inputs(7, 0) != inputs(7, 1)


def test_tail_has_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    value, pct = run.tail(samples)
    assert value == 90 and pct == pytest.approx(90.0)
    assert sum(s > value for s in samples) == 10
    value, pct = run.tail(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail(range(10))


def _traced(name, pick):
    t = tracing.Tracer()
    items = workloads.WORKLOADS[name].round(3, 0, OUT)[pick]
    with t.installed():
        for item in items:
            assert item.check(item.run()).ok
    return tracing.layer_metrics(t), [item.kind for item in items]


def test_oracle_battery_never_reaches_hankel_or_rk45():
    m, kinds = _traced("oracle-battery", slice(0, 3))
    assert kinds == ["oracle-T10", "oracle-T10", "oracle-T30"]
    assert m["bessel.series_calls"] > 0 and m["simulate.rk4_steps"] == 2 * 10_000 + 30_000
    assert m["bessel.hankel_calls"] == 0
    assert m["simulate.rk45_accepted"] == 0


def test_spin_switch_never_calls_bessel():
    m, kinds = _traced("spin-switch", slice(2, 8))  # cheap items after the two gates
    studies = sum(k.startswith("spin-") for k in kinds)
    assert 0 < studies < len(kinds)
    assert m["simulate.rk45_accepted"] > 0 and m["simulate.fast_attitude_calls"] == studies
    assert m["bessel.series_calls"] == 0
    assert m["bessel.hankel_calls"] == 0
