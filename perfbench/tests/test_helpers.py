"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import gc
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from calibrate import kernel_seconds  # noqa: E402
from measure import (REFERENCE_CALIBRATION_S, bracketing_mean,  # noqa: E402
                     classify, replay_latencies, spread, sustained_rate,
                     tail_percentile, to_reference, unit_interarrivals)
from run import paired_verdict  # noqa: E402
from spans import StepClock, Tracer, drive, self_times  # noqa: E402


# -- the tail-percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(20, 50), (21, 52), (100, 90), (200, 95),
                                    (1000, 99), (5000, 99)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    samples = [float(i) for i in range(1, n + 1)]
    got_pct, value, beyond = tail_percentile(samples)
    assert got_pct == pct
    assert beyond >= 10
    assert beyond == sum(1 for s in samples if s > value)
    if pct < 99:  # one percentile higher would leave fewer than ten
        assert n - int(-(-(pct + 1) * n // 100)) < 10


def test_tail_falls_back_to_median_when_samples_are_few():
    pct, value, beyond = tail_percentile([3.0, 1.0, 2.0, 5.0, 4.0])
    assert (pct, value, beyond) == (50, 3.0, 2)


def test_tail_ignores_sample_order():
    samples = [float((i * 37) % 101) for i in range(101)]
    assert tail_percentile(samples) == tail_percentile(sorted(samples))


# -- self time ---------------------------------------------------------------------


def _span(layer, start, end, parent, busy=None):
    return (layer, start, end, parent, None, end - start if busy is None else busy)


def test_self_time_subtracts_children_not_grandchildren():
    spans = [_span("a", 0.0, 10.0, -1),
             _span("b", 1.0, 4.0, 0),
             _span("c", 2.0, 3.0, 1),
             _span("d", 5.0, 9.0, 0)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_sums_a_layer_and_clips_overlapping_children():
    spans = [_span("a", 0.0, 10.0, -1),
             _span("b", 1.0, 6.0, 0),
             _span("b", 5.0, 12.0, 0),   # overlaps its sibling and the parent end
             _span("a", 20.0, 21.0, -1)]
    selfs = self_times(spans)
    assert selfs["a"] == pytest.approx(1.0 + 1.0)  # 10 - union [1, 10]; + 1
    assert selfs["b"] == pytest.approx(5.0 + 7.0)


def test_self_time_of_a_coroutine_span_is_its_busy_time_less_children():
    spans = [_span("service", 0.0, 10.0, -1, busy=3.0),
             _span("push", 2.0, 3.0, 0)]
    assert self_times(spans) == pytest.approx({"service": 2.0, "push": 1.0})


def test_drive_counts_only_the_steps_a_coroutine_ran():
    async def work():
        time.sleep(0.02)
        await asyncio.sleep(0.1)
        time.sleep(0.02)
        return "done"

    async def main():
        clock = StepClock()
        start = time.perf_counter()
        result = await drive(work(), clock)
        return result, clock.busy, time.perf_counter() - start

    result, busy, wall = asyncio.run(main())
    assert result == "done"
    assert 0.04 <= busy < 0.1 <= wall


def test_tracer_spans_add_up_and_uninstall_restores():
    import repro
    from repro.datalog import plan
    from repro.petri.examples import figure1_alarm_scenarios, figure1_net

    original = plan.compile_join_plan
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        repro.diagnose(figure1_net(), repro.AlarmSequence(
            figure1_alarm_scenarios()["bac"]), method="qsq")
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert plan.compile_join_plan is original
    layers = {span[0] for span in tracer.spans}
    assert {"assemble", "encode", "analysis", "rewrite", "join"} <= layers
    roots = [span for span in tracer.spans if span[3] == -1]
    assert [span[0] for span in roots] == ["assemble"]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        roots[0][5], rel=1e-9)
    assert roots[0][5] <= wall


# -- calibration -------------------------------------------------------------------


def test_reference_normalisation():
    assert to_reference(1.0, REFERENCE_CALIBRATION_S) == pytest.approx(1.0)
    # a host twice as slow as the reference: its seconds count half
    assert to_reference(1.0, 2 * REFERENCE_CALIBRATION_S) == pytest.approx(0.5)
    assert to_reference(3.0, REFERENCE_CALIBRATION_S / 2) == pytest.approx(6.0)


def test_a_request_is_normalised_by_the_samples_around_it():
    samples = [(0.0, 2.0), (1.0, 4.0), (2.0, 3.0)]
    assert bracketing_mean(samples, 0.5) == pytest.approx(3.0)
    assert bracketing_mean(samples, 1.5) == pytest.approx(3.5)
    # a sample taken exactly at the request's time comes before it
    assert bracketing_mean(samples, 1.0) == pytest.approx(3.5)


def test_kernel_leaves_gc_state_as_it_found_it():
    assert gc.isenabled()
    assert kernel_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        kernel_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- the open-loop replay ------------------------------------------------------------


def test_replay_without_queueing_returns_service_times():
    services = [0.1, 0.2, 0.3]
    gaps = [1.0] * 6
    assert replay_latencies(services, 1.0, gaps) == pytest.approx(services * 2)


def test_sustained_rate_meets_the_limit_just_below_saturation():
    gaps = unit_interarrivals(7, 4000)
    services = [0.1] * 50
    rate = sustained_rate(services, limit_s=1.0, pct=99, unit_gaps=gaps)
    assert 0 < rate < 10.0  # never at or beyond utilisation 1
    tail = sorted(replay_latencies(services, rate, gaps))[3959]
    assert tail <= 1.0
    looser = sustained_rate(services, limit_s=2.0, pct=99, unit_gaps=gaps)
    assert rate < looser < 10.0
    assert sustained_rate(services, limit_s=0.05, pct=99, unit_gaps=gaps) == 0.0


# -- --compare -----------------------------------------------------------------------

PREV = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_compare_marks_a_slower_median_worse():
    cur = [v * 1.2 for v in PREV]
    assert classify(PREV, cur, "lower", bound=0.1) == "worse"
    assert classify(PREV, cur, "lower", bound=0.25) != "worse"


def test_compare_marks_a_clear_win_improved():
    cur = [v * 0.8 for v in PREV]
    assert classify(PREV, cur, "lower", bound=0.1) == "improved"
    # the same numbers are a loss when higher is better
    assert classify(PREV, cur, "higher", bound=0.1) == "worse"


def test_compare_within_bound_is_same():
    assert classify(PREV, list(reversed(PREV)), "lower", bound=0.1) == "same"


def test_compare_is_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert spread(noisy) > 0.1
    cur = [v * 0.95 for v in noisy]
    assert classify(noisy, cur, "lower", bound=0.1) == "unresolved"
    # unless every current run beats every previous run
    assert classify(noisy, [0.5] * 10, "lower", bound=0.1) == "improved"


def test_compare_of_deterministic_zero_metrics():
    zeros = [0.0] * 5
    assert classify(zeros, zeros, "lower", bound=0.0) == "same"
    assert classify(zeros, [0.0, 0.0, 0.1, 0.1, 0.1], "lower", bound=0.0) == "worse"


def test_compare_of_per_seed_metrics_pairs_runs_by_seed():
    prev = {1: 0.5, 2: 0.25}
    assert paired_verdict(prev, {1: 0.5, 2: 0.25, 3: 0.9}) == "same"
    assert paired_verdict(prev, {1: 0.5, 2: 0.5}) == "worse"
    assert paired_verdict(prev, {1: 0.25, 2: 0.25}) == "improved"
    assert paired_verdict(prev, {7: 0.5}) == "unpaired"
    assert paired_verdict({1: 0.0}, {7: 0.0}) == "same"
