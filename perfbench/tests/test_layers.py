"""Self-time arithmetic and wrapper installation of the span tracer."""

import sys
import types

import pytest

from perfbench.layers import EntryPoint, SpanTracer, install


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def leaf():
        clock.now += 5

    leaf = tracer.wrap("leaf", leaf)

    def mid():
        clock.now += 10
        leaf()
        clock.now += 1
        leaf()

    mid = tracer.wrap("mid", mid)

    def top():
        clock.now += 100
        mid()
        leaf()

    tracer.wrap("top", top)()
    stats = tracer.copy_stats()
    assert stats["leaf"][:2] == (3, 15)
    assert stats["mid"][:2] == (1, 11)  # 21 total - 10 in leaf
    assert stats["top"][:2] == (1, 100)  # 126 total - 21 in mid - 5 in leaf
    assert sum(row[1] for row in stats.values()) == clock.now == 126


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def failing():
        clock.now += 7
        raise KeyError("absent")

    failing = tracer.wrap("inner", failing)

    def outer():
        clock.now += 3
        with pytest.raises(KeyError):
            failing()

    tracer.wrap("outer", outer)()
    stats = tracer.copy_stats()
    assert stats["inner"][:2] == (1, 7)
    assert stats["outer"][:2] == (1, 3)


def test_units_and_count_only_wrappers():
    tracer = SpanTracer(clock=FakeClock())
    batch = tracer.wrap("batch", lambda self, items: None,
                        units=lambda args, result: len(args[1]))
    batch(None, [1, 2, 3])
    batch(None, [4])
    decode = tracer.wrap("decode", lambda page: list(page),
                         units=lambda args, result: len(result), span=False)
    decode("abcd")
    stats = tracer.copy_stats()
    assert stats["batch"] == (2, 0, 4)
    assert stats["decode"] == (1, 0, 4)
    tracer.reset()
    assert tracer.copy_stats()["batch"] == (0, 0, 0)


def test_install_wraps_and_restore_puts_back(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Device:
        def read(self, n):
            return n * 2

    module.Device = Device
    module.helper = lambda: "ok"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    original_read, original_helper = Device.read, module.helper

    tracer = SpanTracer()
    restore = install(tracer, (
        EntryPoint("dev.read", module.__name__, "Device", ("read",)),
        EntryPoint("dev.helper", module.__name__, None, ("helper",)),
        EntryPoint("dev.never", module.__name__, None, ("helper",)),
    ))
    assert Device().read(4) == 8
    assert Device.read is not original_read
    restore()
    assert Device.read is original_read
    assert module.helper is original_helper
    stats = tracer.copy_stats()
    assert stats["dev.read"][0] == 1
    assert stats["dev.helper"][0] == 0  # unreached layers still report
