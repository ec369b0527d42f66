"""The correctness oracles catch planted wrong values."""

from perfbench import oracle
from repro.loadgen.ops import LoadOp


def _schedule():
    preload = [(b"k1", b"one"), (b"k2", b"two"), (b"k3", b"three")]
    ops = [
        LoadOp("SET", b"k1", b"uno"),
        LoadOp("GET", b"k2"),
        LoadOp("SET", b"k1", b"eins"),
        LoadOp("SET", b"k3", b"drei"),
    ]
    return preload, ops


def test_expected_value_is_last_set_in_schedule_order():
    preload, ops = _schedule()
    assert oracle.expected_final(preload, ops) == {
        b"k1": b"eins", b"k2": b"two", b"k3": b"drei",
    }


def test_readback_passes_on_the_right_values():
    preload, ops = _schedule()
    expected = oracle.expected_final(preload, ops)
    assert oracle.mismatched_keys(expected, dict(expected)) == []


def test_readback_catches_a_planted_wrong_value():
    preload, ops = _schedule()
    expected = oracle.expected_final(preload, ops)
    observed = dict(expected)
    observed[b"k1"] = b"uno"  # an earlier SET won: ordering bug
    assert oracle.mismatched_keys(expected, observed) == [b"k1"]


def test_readback_catches_missing_keys():
    preload, ops = _schedule()
    expected = oracle.expected_final(preload, ops)
    observed = dict(expected)
    observed[b"k2"] = None  # NOT_FOUND
    del observed[b"k3"]
    assert oracle.mismatched_keys(expected, observed) == [b"k2", b"k3"]


def test_replay_oracle_counts_wrong_and_missing_reads():
    written = {b"a": b"1", b"b": b"2"}
    gets = [(b"a", b"1"), (b"b", b"x"), (b"a", None), (b"b", b"2")]
    assert oracle.replay_mismatches(written, gets) == 2
