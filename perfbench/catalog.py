"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds; ``tests/test_catalog.py`` keeps the two in step.
End-to-end metrics come from untraced rounds (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Characters and length a metric name may use in ``BENCHMARK.json``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: float | None = None


#: Replay, serial serving and batched array serving.
WORKLOADS = {
    "replay-mixgraph": (
        "in-process trace replay of mixgraph values at rf=0.5 through the "
        "fused batch engine, long enough for a mid-run memtable flush"
    ),
    "serve-serial": (
        "TCP server, serial worker, one KV-SSD: 80% SET / 20% GET of "
        "mixgraph values at 5k virtual rps, memtable-resident keys"
    ),
    "serve-batched": (
        "TCP server, batched worker, 4-shard array with R=2 W=2: 90% GET / "
        "10% SET of 256 B values at 100k virtual rps"
    ),
}

END_TO_END = (
    Metric("wall_ops_per_s", "ops/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.1),
    Metric("sim_ops_per_s", "ops/s", "higher", 0.1),
    Metric("sim_get_p50_us", "us", "lower", 0.1),
    Metric("sim_get_p99_us", "us", "lower", 0.25),
    Metric("sim_put_p50_us", "us", "lower", 0.1),
    Metric("sim_put_p99_us", "us", "lower", 0.1),
    Metric("pcie_bytes_per_user_byte", "ratio", "lower", 0.15),
    Metric("nand_bytes_per_user_byte", "ratio", "lower", 0.2),
)

PER_LAYER = (
    Metric("loadgen.encode.self_s", "s", "lower"),
    Metric("loadgen.parse.self_s", "s", "lower"),
    Metric("serve.protocol.parse.self_s", "s", "lower"),
    Metric("serve.protocol.encode.self_s", "s", "lower"),
    Metric("serve.loop.self_s", "s", "lower"),
    Metric("serve.backend.execute.calls", "count", "lower"),
    Metric("serve.backend.execute.self_s", "s", "lower"),
    Metric("serve.backend.execute_batch.calls", "count", "lower"),
    Metric("serve.backend.execute_batch.self_s", "s", "lower"),
    Metric("serve.backend.ops_per_batch", "ops/batch", "higher"),
    Metric("serve.batch_size_p50", "ops", "higher"),
    Metric("array.put_many.self_s", "s", "lower"),
    Metric("array.get_many.self_s", "s", "lower"),
    Metric("array.replica_puts_per_put", "ratio", "lower"),
    Metric("array.fallback_reads", "count", "lower"),
    Metric("driver.put.calls", "count", "lower"),
    Metric("driver.put.self_s", "s", "lower"),
    Metric("driver.get.calls", "count", "lower"),
    Metric("driver.get.self_s", "s", "lower"),
    Metric("driver.put_many.self_s", "s", "lower"),
    Metric("driver.get_many.self_s", "s", "lower"),
    Metric("driver.fused_op_share", "ratio", "higher"),
    Metric("engine.put_batch.self_s", "s", "lower"),
    Metric("engine.get_batch.self_s", "s", "lower"),
    Metric("controller.process_next.calls", "count", "lower"),
    Metric("controller.process_next.self_s", "s", "lower"),
    Metric("controller.commands_per_op", "cmd/op", "lower"),
    Metric("controller.memcpy_bytes_per_put", "B/put", "lower"),
    Metric("packing.fragmentation_bytes_per_put", "B/put", "lower"),
    Metric("packing.backfill_bytes_per_put", "B/put", "higher"),
    Metric("memory.staging_bytes_per_get", "B/get", "lower"),
    Metric("memory.alloc_buffer.self_s", "s", "lower"),
    Metric("memory.tobytes.self_s", "s", "lower"),
    Metric("pcie.sq_bytes_per_op", "B/op", "lower"),
    Metric("pcie.cq_bytes_per_op", "B/op", "lower"),
    Metric("pcie.doorbell_bytes_per_op", "B/op", "lower"),
    Metric("pcie.h2d_bytes_per_op", "B/op", "lower"),
    Metric("pcie.d2h_bytes_per_op", "B/op", "lower"),
    Metric("lsm.sstable_get.calls", "count", "lower"),
    Metric("lsm.sstable_get.self_s", "s", "lower"),
    Metric("lsm.entries_decoded_per_lookup", "entries/lookup", "lower"),
    Metric("lsm.memtable_flushes", "count", "lower"),
    Metric("lsm.vlog_read.self_s", "s", "lower"),
    Metric("nand.ftl.self_s", "s", "lower"),
    Metric("nand.flash.self_s", "s", "lower"),
    Metric("nand.page_reads_per_get", "reads/get", "lower"),
    Metric("nand.coalesce_ratio", "ratio", "higher"),
    Metric("nand.gc_collections", "count", "lower"),
    Metric("nand.gc_reclaim_ratio", "ratio", "higher"),
    Metric("trace.overhead_frac", "ratio", "lower"),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}
