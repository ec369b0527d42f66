"""Wall-clock metrics are scaled to the reference host speed."""

import time

import pytest

from perfbench import run
from perfbench.workloads import Round

REF = run.REFERENCE_LOOPS_PER_S


def _round(timed_s, setup_s, speed, traced=False, layers=None):
    return Round(traced, setup_s, timed_s, ops=1000, gets=500, puts=500,
                 failed=0, sim={}, delta={}, layers=layers,
                 host_loops_per_s=speed)


def test_a_host_at_half_speed_reads_the_same_scaled_metrics():
    fast = [_round(1.0, 0.1, REF), _round(1.0, 0.1, REF)]
    slow = [_round(2.0, 0.2, REF / 2), _round(2.0, 0.2, REF / 2)]
    for rounds in (fast, slow):
        metrics = run.summarize(rounds, trace=False)
        assert metrics["wall_ops_per_s"] == pytest.approx(1000.0)
        assert metrics["setup_s"] == pytest.approx(0.1)
    assert run.unscaled(slow)["wall_ops_per_s"] == pytest.approx(500.0)


def test_traced_self_times_scale_and_counts_do_not():
    layers = {"driver.put.self_s": 0.5, "driver.put.calls": 40.0}
    rounds = [
        _round(1.0, 0.1, REF),
        _round(3.0, 0.1, REF / 2, traced=True, layers=layers),
    ]
    metrics = run.summarize(rounds, trace=True)
    assert metrics["driver.put.self_s"] == pytest.approx(0.25)
    assert metrics["driver.put.calls"] == 40.0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.5)


def test_host_speed_samples_all_through_a_round():
    with run.HostSpeed() as speed:
        end = time.perf_counter() + 3.5 * run.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    # One slice before, one after, and about three from the timer.
    assert len(speed.rates) >= 4
    assert speed.loops_per_s == pytest.approx(sum(speed.rates) / len(speed.rates))
