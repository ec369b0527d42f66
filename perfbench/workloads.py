"""The three workloads: inputs from a seed, and one measured round each.

A *round* builds everything from scratch (set-up), runs the workload's
fixed inputs (the timed phase), then checks every output. Rounds of one
run repeat the same inputs, so their simulated results must be
identical; :mod:`perfbench.run` checks that and takes wall-clock medians
across rounds.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

import numpy as np

from perfbench import oracle
from perfbench.layers import SpanTracer, layer_metrics
from repro.core.config import preset
from repro.device.kvssd import KVSSD
from repro.loadgen.arrivals import poisson_arrivals
from repro.loadgen.client import run_client
from repro.loadgen.ops import LoadOp, key_for
from repro.serve.backend import StoreBackend
from repro.serve.protocol import Request
from repro.serve.server import LATENCY_EDGES, KVServer, ServerSettings
from repro.sim.runner import run_workload
from repro.sim.stats import Histogram
from repro.workloads.distributions import MixGraphSizes
from repro.workloads.generator import RequestKind
from repro.workloads.workloads import workload_mixed

PRESET = "backfill"

#: The memtable flushes at its 256 KiB threshold on the 15,421st PUT of
#: 4-byte keys, whatever the seed. Replay stops at the 1,000th GET after
#: that PUT. Those GETs probe an SSTable and take most of a round's time,
#: so a fixed count of them keeps the work from moving with the seed. (Cut
#: after a fixed count of PUTs instead, the SSTable lookups, and with them
#: the round's wall time, moved by 14 % between seeds.)
REPLAY_FLUSH_PUT = 15_421
REPLAY_GETS_AFTER_FLUSH = 1_000
#: Ops asked of the generator; the trace is cut at about 32,800.
REPLAY_OPS = 37_720
REPLAY_READ_FRACTION = 0.5
REPLAY_WINDOW = 256
REPLAY_QD = 32

#: Serving: one connection, 64 requests outstanding in wall time.
SERVE_WINDOW = 64
#: Preloaded keys; every request draws from them, and all of them stay
#: in the memtable.
SERVE_KEYS = 2000
#: Queue depth of the post-run readback (an oracle, not measured).
READBACK_QD = 32


@dataclass
class Round:
    """One measured round."""

    traced: bool
    setup_s: float
    timed_s: float
    ops: int
    gets: int
    puts: int
    failed: int
    #: End-to-end simulated metrics (deterministic at a fixed seed).
    sim: dict
    #: Device/array snapshot delta over the timed phase.
    delta: dict
    #: Per-layer metrics (traced rounds only).
    layers: dict | None = None
    #: Host speed around the round (calibration loops/s), set by the runner.
    host_loops_per_s: float = 0.0


def _delta(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _begin_timed(tracer: SpanTracer | None) -> float:
    if tracer is not None:
        tracer.reset()
    return time.perf_counter()


# --- replay ---------------------------------------------------------------


class Trace:
    """A materialized request list with the surface ``run_workload`` reads."""

    __slots__ = ("name", "num_ops", "total_value_bytes", "max_value_bytes",
                 "_requests")

    def __init__(self, name: str, requests: list) -> None:
        sizes = [len(r.value) for r in requests if r.kind is RequestKind.PUT]
        self.name = name
        self.num_ops = len(requests)
        self.total_value_bytes = sum(sizes)
        self.max_value_bytes = max(sizes)
        self._requests = requests

    def requests(self):
        return iter(self._requests)


def replay_trace(seed: int) -> Trace:
    """``workload_mixed`` at rf=0.5, cut right after the
    ``REPLAY_GETS_AFTER_FLUSH``-th GET that follows the flushing PUT."""
    workload = workload_mixed(
        REPLAY_OPS, read_fraction=REPLAY_READ_FRACTION, seed=seed,
    )
    requests = []
    puts = gets_after_flush = 0
    for request in workload.requests():
        requests.append(request)
        if request.kind is RequestKind.PUT:
            puts += 1
        elif puts >= REPLAY_FLUSH_PUT:
            gets_after_flush += 1
            if gets_after_flush == REPLAY_GETS_AFTER_FLUSH:
                return Trace(f"replay-mixgraph(seed={seed})", requests)
    raise ValueError(f"workload too short for {REPLAY_GETS_AFTER_FLUSH} "
                     "GETs after the flush")


def replay_round(seed: int, tracer: SpanTracer | None) -> Round:
    t0 = time.perf_counter()
    trace = replay_trace(seed)
    config = preset(PRESET)
    if trace.max_value_bytes > config.max_value_bytes:
        config = config.with_overrides(max_value_bytes=trace.max_value_bytes)
    device = KVSSD.build(config=config)
    before = device.snapshot()
    driver = device.driver
    batched_get = driver.get_many
    got: list = []

    def get_many(keys, *args, **kwargs):
        keys = list(keys)
        results = batched_get(keys, *args, **kwargs)
        got.extend(
            (key, result.value if result.ok else None)
            for key, result in zip(keys, results)
        )
        return results

    driver.get_many = get_many
    setup_s = time.perf_counter() - t0

    t1 = _begin_timed(tracer)
    result = run_workload(
        config, trace, device=device,
        batch_window=REPLAY_WINDOW, batch_queue_depth=REPLAY_QD,
    )
    timed_s = time.perf_counter() - t1
    stats = tracer.copy_stats() if tracer is not None else None

    written = {}
    gets = 0
    for request in trace.requests():
        if request.kind is RequestKind.PUT:
            written[request.key] = request.value
        else:
            gets += 1
    failed = oracle.replay_mismatches(written, got) + abs(gets - len(got))
    snap = result.snapshot
    sim = {
        "sim_ops_per_s": result.ops / (result.elapsed_us / 1e6),
        "sim_get_p50_us": snap["driver.get_latency_us.p50"],
        "sim_get_p99_us": snap["driver.get_latency_us.p99"],
        "sim_put_p50_us": snap["driver.put_latency_us.p50"],
        "sim_put_p99_us": snap["driver.put_latency_us.p99"],
        "pcie_bytes_per_user_byte": result.traffic_amplification,
        "nand_bytes_per_user_byte": result.write_amplification,
    }
    delta = _delta(before, snap)
    ops = trace.num_ops
    layers = None
    if stats is not None:
        layers = layer_metrics(
            stats, delta, ops=ops, gets=gets, puts=ops - gets,
            timed_s=timed_s, batch_size_p50=0.0,
        )
    return Round(tracer is not None, setup_s, timed_s, ops, gets, ops - gets,
                 failed, sim, delta, layers)


# --- serving --------------------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload: store shape, worker shape, traffic."""

    requests: int
    rps: float
    read_fraction: float
    #: Fixed value size in bytes; 0 draws mixgraph sizes.
    value_size: int
    array_shards: int = 1
    replication: int = 1
    write_quorum: int = 1
    dispatch_batch: int = 1
    server_qd: int = 1


SERVE_SERIAL = ServeSpec(requests=24_000, rps=5000.0, read_fraction=0.2,
                         value_size=0)
SERVE_BATCHED = ServeSpec(requests=16000, rps=100_000.0, read_fraction=0.9,
                          value_size=256, array_shards=4, replication=2,
                          write_quorum=2, dispatch_batch=32, server_qd=16)


def serve_inputs(spec: ServeSpec, seed: int):
    """(preload pairs, ops, arrivals) for ``spec`` at ``seed``."""
    rng = random.Random(seed)
    count = SERVE_KEYS + spec.requests
    if spec.value_size:
        sizes = [spec.value_size] * count
    else:
        sizes = MixGraphSizes().sample(np.random.default_rng(seed), count).tolist()
    preload = [
        (key_for(index), rng.randbytes(sizes[index]))
        for index in range(SERVE_KEYS)
    ]
    # Exactly read_fraction of the ops are GETs, at seeded positions, so
    # the GET:SET ratio (and with it every per-user-byte ratio) does not
    # wander with the seed.
    reads = set(rng.sample(
        range(spec.requests), round(spec.requests * spec.read_fraction)
    ))
    ops = []
    for index, size in enumerate(sizes[SERVE_KEYS:]):
        key = key_for(rng.randrange(SERVE_KEYS))
        if index in reads:
            ops.append(LoadOp("GET", key))
        else:
            ops.append(LoadOp("SET", key, rng.randbytes(size)))
    arrivals = poisson_arrivals(spec.rps, spec.requests, seed=seed + 1)
    return preload, ops, arrivals


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    hist = Histogram("perfbench.latency_us", LATENCY_EDGES)
    for latency in latencies:
        hist.record(latency)
    return hist.percentile(50.0), hist.percentile(99.0)


async def _serve(spec: ServeSpec, seed: int, tracer: SpanTracer | None) -> Round:
    t0 = time.perf_counter()
    preload, ops, arrivals = serve_inputs(spec, seed)
    backend = StoreBackend.build(
        PRESET, array_shards=spec.array_shards,
        replication=spec.replication, write_quorum=spec.write_quorum,
    )
    for key, value in preload:
        backend.store.put(key, value)
    server = KVServer(backend, ServerSettings(
        dispatch_batch=spec.dispatch_batch, server_qd=spec.server_qd,
    ))
    try:
        host, port = await server.start()
        before = backend.snapshot()
        setup_s = time.perf_counter() - t0

        t1 = _begin_timed(tracer)
        result = await run_client(
            host, port, ops, arrivals, conns=1, window=SERVE_WINDOW,
            dispatch_every=spec.dispatch_batch if spec.dispatch_batch > 1 else 0,
        )
        timed_s = time.perf_counter() - t1
        stats = tracer.copy_stats() if tracer is not None else None
        delta = _delta(before, backend.snapshot())
        batch_size_p50 = server.stats().get("serve.batch_size.p50", 0.0)
    finally:
        await server.stop()

    expected = oracle.expected_final(preload, ops)
    keys = list(expected)
    readback = backend.execute_batch(
        [Request(op="GET", key=key) for key in keys], queue_depth=READBACK_QD,
    )
    observed = {
        key: res.value if res.kind == "VALUE" else None
        for key, res in zip(keys, readback)
    }
    wrong = len(oracle.mismatched_keys(expected, observed))

    get_lat, put_lat = [], []
    span_us = 0.0
    bad = result.parse_errors
    for outcome in result.outcomes:
        op = ops[outcome.op_index]
        if outcome.kind not in ("STORED", "VALUE"):
            bad += 1
            continue
        (get_lat if op.kind == "GET" else put_lat).append(outcome.latency_us)
        span_us = max(span_us, outcome.arrival_us + outcome.latency_us)
    user_bytes = sum(len(op.value) for op in ops if op.kind == "SET")
    get_p50, get_p99 = _percentiles(get_lat)
    put_p50, put_p99 = _percentiles(put_lat)
    sim = {
        "sim_ops_per_s": (len(get_lat) + len(put_lat)) / (span_us / 1e6),
        "sim_get_p50_us": get_p50,
        "sim_get_p99_us": get_p99,
        "sim_put_p50_us": put_p50,
        "sim_put_p99_us": put_p99,
        "pcie_bytes_per_user_byte": delta["pcie.total_bytes"] / user_bytes,
        "nand_bytes_per_user_byte": delta["nand.bytes_programmed"] / user_bytes,
    }
    gets = sum(1 for op in ops if op.kind == "GET")
    layers = None
    if stats is not None:
        layers = layer_metrics(
            stats, delta, ops=len(ops), gets=gets, puts=len(ops) - gets,
            timed_s=timed_s, batch_size_p50=batch_size_p50,
        )
    return Round(tracer is not None, setup_s, timed_s, len(ops), gets,
                 len(ops) - gets, bad + wrong, sim, delta, layers)


def serve_round(spec: ServeSpec, seed: int, tracer: SpanTracer | None) -> Round:
    return asyncio.run(_serve(spec, seed, tracer))


#: Workload name -> round function ``(seed, tracer) -> Round``.
ROUNDS = {
    "replay-mixgraph": replay_round,
    "serve-serial": lambda seed, tracer: serve_round(SERVE_SERIAL, seed, tracer),
    "serve-batched": lambda seed, tracer: serve_round(SERVE_BATCHED, seed, tracer),
}
