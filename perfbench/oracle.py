"""Correctness oracles: what every read must return.

Replay: a GET returns the bytes the trace's PUT of that key wrote (the
generator never rewrites a key). Serving: one connection executes in
schedule order, so after the run each key holds its last SET in the
schedule, or its preload value if the schedule never set it.
"""

from __future__ import annotations


def expected_final(preload, ops) -> dict[bytes, bytes]:
    """Key -> value after ``preload`` pairs then ``ops`` in order."""
    expected = dict(preload)
    for op in ops:
        if op.kind == "SET":
            expected[op.key] = op.value
    return expected


def mismatched_keys(expected: dict[bytes, bytes], observed) -> list[bytes]:
    """Keys whose observed value differs from the expected one.

    ``observed`` maps key -> value, with None for a key that was not
    found; keys absent from ``observed`` count as mismatches too.
    """
    return [
        key for key, value in expected.items() if observed.get(key) != value
    ]


def replay_mismatches(written: dict[bytes, bytes], gets) -> int:
    """GET results, as ``(key, value-or-None)`` pairs, that differ from
    the value the trace wrote for that key."""
    return sum(1 for key, value in gets if value is None or written.get(key) != value)
