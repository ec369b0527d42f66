"""Per-layer wall-time attribution by wrapping each layer's public calls.

:class:`SpanTracer` times calls into the entry points listed in
:data:`ENTRY_POINTS`. Each wrapper keeps a per-layer call count and
*self* time: the call's wall time minus the time spent in wrapped calls
nested inside it, so the self times of all layers add up to the time
spent inside any wrapped call. The wrappers are installed on the
classes and modules at run time (:func:`install`) and removed again
afterwards; no source file of the simulator changes, and no code path
is switched (the repo's own ``Tracer`` would force the generic pipeline
instead of the fused engine, these wrappers do not).

Install the wrappers *before* building devices: some hot paths cache
bound methods at construction.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable


def _arg_len(args, result) -> int:
    """Batch size: the length of the first argument after ``self``.

    Every caller in the simulator passes a list; the callee never
    mutates it, so it still holds the batch when the call returns.
    """
    return len(args[1])


def _first_arg(args, result) -> int:
    return args[1]


def _result_len(args, result) -> int:
    return len(result)


@dataclass(frozen=True)
class EntryPoint:
    """Calls into one layer: ``module[.owner].attr`` for each attr."""

    layer: str
    module: str
    owner: str | None
    attrs: tuple[str, ...]
    #: Extra quantity summed per call (batch size, bytes, entries).
    units: Callable | None = None
    #: False: count calls and units only; time stays with the caller.
    span: bool = True


ENTRY_POINTS = (
    EntryPoint("loadgen.encode", "repro.serve.protocol", None,
               ("encode_set_request", "encode_get_request",
                "encode_del_request")),
    EntryPoint("loadgen.parse", "repro.serve.protocol", "ResponseParser",
               ("feed",)),
    EntryPoint("serve.protocol.parse", "repro.serve.protocol",
               "RequestParser", ("feed",)),
    EntryPoint("serve.protocol.encode", "repro.serve.protocol", None,
               ("encode_stored", "encode_deleted", "encode_not_found",
                "encode_value", "encode_range", "encode_stats",
                "encode_busy", "encode_health", "encode_error")),
    EntryPoint("serve.backend.execute", "repro.serve.backend",
               "StoreBackend", ("execute",)),
    EntryPoint("serve.backend.execute_batch", "repro.serve.backend",
               "StoreBackend", ("execute_batch",), units=_arg_len),
    EntryPoint("array.put_many", "repro.array.store", "ArrayStore",
               ("put_many",)),
    EntryPoint("array.get_many", "repro.array.store", "ArrayStore",
               ("get_many",)),
    EntryPoint("driver.put", "repro.core.driver", "BandSlimDriver", ("put",)),
    EntryPoint("driver.get", "repro.core.driver", "BandSlimDriver", ("get",)),
    EntryPoint("driver.put_many", "repro.core.driver", "BandSlimDriver",
               ("put_many",), units=_arg_len),
    EntryPoint("driver.get_many", "repro.core.driver", "BandSlimDriver",
               ("get_many",), units=_arg_len),
    EntryPoint("engine.put_batch", "repro.sim.engine", "FusedBatchEngine",
               ("put_batch",), units=_arg_len),
    EntryPoint("engine.get_batch", "repro.sim.engine", "FusedBatchEngine",
               ("get_batch",), units=_arg_len),
    EntryPoint("controller.process_next", "repro.core.controller",
               "BandSlimController", ("process_next",)),
    EntryPoint("memory.alloc_buffer", "repro.memory.host", "HostMemory",
               ("alloc_buffer",), units=_first_arg),
    EntryPoint("memory.tobytes", "repro.memory.host", "HostBuffer",
               ("tobytes",)),
    EntryPoint("lsm.sstable_get", "repro.lsm.sstable", "SSTable", ("get",)),
    EntryPoint("lsm.decode_entries", "repro.lsm.sstable", None,
               ("decode_entries",), units=_result_len, span=False),
    EntryPoint("lsm.vlog_read", "repro.lsm.vlog", "VLog", ("read",)),
    EntryPoint("nand.ftl", "repro.nand.ftl", "PageMappedFTL",
               ("write", "write_many", "read")),
    EntryPoint("nand.flash", "repro.nand.flash", "NandFlash",
               ("program", "read")),
)


class LayerStat:
    """Running totals for one layer."""

    __slots__ = ("calls", "self_ns", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.units = 0


class SpanTracer:
    """Call counts and self times for wrapped functions.

    Wrapped calls nest on one stack; the wrapped functions are all
    synchronous, so asyncio interleaving cannot split a span.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStat] = {}
        #: Child time accumulated by each open span, innermost last.
        self._stack: list[int] = []

    def stat(self, layer: str) -> LayerStat:
        return self.stats.setdefault(layer, LayerStat())

    def wrap(self, layer: str, fn, units=None, span: bool = True):
        """``fn`` with its calls charged to ``layer``."""
        stat = self.stat(layer)
        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                stat.calls += 1
                stat.units += units(args, result)
                return result
            return counted

        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.calls += 1
                stat.self_ns += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if units is not None:
                stat.units += units(args, result)
            return result
        return timed

    def reset(self) -> None:
        """Zero every layer (the wrappers keep their stat objects)."""
        for stat in self.stats.values():
            stat.calls = stat.self_ns = stat.units = 0

    def copy_stats(self) -> dict[str, tuple[int, int, int]]:
        return {
            layer: (stat.calls, stat.self_ns, stat.units)
            for layer, stat in self.stats.items()
        }


def install(tracer: SpanTracer, entry_points=ENTRY_POINTS) -> Callable[[], None]:
    """Wrap every entry point; returns a function that restores them."""
    originals = []
    for entry in entry_points:
        tracer.stat(entry.layer)  # report calls = 0 if never reached
        module = importlib.import_module(entry.module)
        owner = module if entry.owner is None else getattr(module, entry.owner)
        for attr in entry.attrs:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(
                entry.layer, original, entry.units, entry.span,
            ))

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    stats: dict[str, tuple[int, int, int]],
    delta: dict[str, float],
    *,
    ops: int,
    gets: int,
    puts: int,
    timed_s: float,
    batch_size_p50: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``stats`` is :meth:`SpanTracer.copy_stats` over the timed phase,
    ``delta`` the device/array snapshot delta over it; ``ops``/``gets``/
    ``puts`` count user operations (array replicas not included).
    """
    def calls(layer):
        return float(stats[layer][0])

    def self_s(layer):
        return stats[layer][1] / 1e9

    def units(layer):
        return float(stats[layer][2])

    def d(key):
        return delta.get(key, 0.0)

    wrapped_s = sum(row[1] for row in stats.values()) / 1e9
    out = {
        "loadgen.encode.self_s": self_s("loadgen.encode"),
        "loadgen.parse.self_s": self_s("loadgen.parse"),
        "serve.protocol.parse.self_s": self_s("serve.protocol.parse"),
        "serve.protocol.encode.self_s": self_s("serve.protocol.encode"),
        "serve.loop.self_s": timed_s - wrapped_s,
        "serve.backend.execute.calls": calls("serve.backend.execute"),
        "serve.backend.execute.self_s": self_s("serve.backend.execute"),
        "serve.backend.execute_batch.calls": calls("serve.backend.execute_batch"),
        "serve.backend.execute_batch.self_s": self_s("serve.backend.execute_batch"),
        "serve.backend.ops_per_batch": _ratio(
            units("serve.backend.execute_batch"),
            calls("serve.backend.execute_batch"),
        ),
        "serve.batch_size_p50": batch_size_p50,
        "array.put_many.self_s": self_s("array.put_many"),
        "array.get_many.self_s": self_s("array.get_many"),
        "array.replica_puts_per_put": _ratio(d("driver.puts"), d("array.puts")),
        "array.fallback_reads": d("array.failovers"),
        "driver.put.calls": calls("driver.put"),
        "driver.put.self_s": self_s("driver.put"),
        "driver.get.calls": calls("driver.get"),
        "driver.get.self_s": self_s("driver.get"),
        "driver.put_many.self_s": self_s("driver.put_many"),
        "driver.get_many.self_s": self_s("driver.get_many"),
        "driver.fused_op_share": _ratio(
            units("engine.put_batch") + units("engine.get_batch"),
            units("driver.put_many") + units("driver.get_many"),
        ),
        "engine.put_batch.self_s": self_s("engine.put_batch"),
        "engine.get_batch.self_s": self_s("engine.get_batch"),
        "controller.process_next.calls": calls("controller.process_next"),
        "controller.process_next.self_s": self_s("controller.process_next"),
        "controller.commands_per_op": _ratio(
            d("controller.commands_processed"), ops
        ),
        "controller.memcpy_bytes_per_put": _ratio(
            d("controller.memcpy_bytes"), puts
        ),
        "packing.fragmentation_bytes_per_put": _ratio(
            d("packing.backfill.fragmentation_bytes"), puts
        ),
        "packing.backfill_bytes_per_put": _ratio(
            d("packing.backfill.backfill_bytes"), puts
        ),
        "memory.staging_bytes_per_get": _ratio(units("memory.alloc_buffer"), gets),
        "memory.alloc_buffer.self_s": self_s("memory.alloc_buffer"),
        "memory.tobytes.self_s": self_s("memory.tobytes"),
        "pcie.sq_bytes_per_op": _ratio(d("pcie.sq_entry.bytes"), ops),
        "pcie.cq_bytes_per_op": _ratio(d("pcie.cq_entry.bytes"), ops),
        "pcie.doorbell_bytes_per_op": _ratio(d("pcie.doorbell.bytes"), ops),
        "pcie.h2d_bytes_per_op": _ratio(d("pcie.dma_h2d.bytes"), ops),
        "pcie.d2h_bytes_per_op": _ratio(d("pcie.dma_d2h.bytes"), ops),
        "lsm.sstable_get.calls": calls("lsm.sstable_get"),
        "lsm.sstable_get.self_s": self_s("lsm.sstable_get"),
        "lsm.entries_decoded_per_lookup": _ratio(
            units("lsm.decode_entries"), calls("lsm.sstable_get")
        ),
        "lsm.memtable_flushes": d("lsm.flushes"),
        "lsm.vlog_read.self_s": self_s("lsm.vlog_read"),
        "nand.ftl.self_s": self_s("nand.ftl"),
        "nand.flash.self_s": self_s("nand.flash"),
        "nand.page_reads_per_get": _ratio(d("nand.page_reads"), gets),
        "nand.coalesce_ratio": _ratio(
            d("nand.coalesced_reads"),
            d("nand.page_reads") + d("nand.coalesced_reads"),
        ),
        "nand.gc_collections": d("gc.collections"),
        "nand.gc_reclaim_ratio": _ratio(
            d("gc.blocks_reclaimed"), d("gc.collections")
        ),
    }
    return out
