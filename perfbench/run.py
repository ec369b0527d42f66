"""BandSlim simulator benchmark: wall-clock and simulated-time metrics.

Run from the repository root::

    python3 perfbench/run.py --workload replay-mixgraph --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of untraced rounds;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (see perfbench/README.md). Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.catalog import UNITS, WORKLOADS  # noqa: E402

#: Every run measures at least this many rounds of each kind it reports,
#: so the repeat-determinism check always has two rounds to compare.
MIN_ROUNDS = 2
#: Each round must hold at least this many GETs and PUTs, so that each
#: p99 has at least ten samples beyond it.
MIN_SAMPLES = 1000


#: Wall-clock metrics are scaled to a host that runs the calibration loop
#: at this rate. The host's speed drifts by up to 2x within minutes; the
#: scaling takes that drift out (see "Noise" in README.md).
REFERENCE_LOOPS_PER_S = 2.0e7


def _loop_seconds(loops: int) -> float:
    """Seconds for the pure-Python calibration loop of
    ``benchmarks/bench_throughput.py``."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 7
    return time.perf_counter() - t0


def calibrate(loops: int = 1_000_000) -> float:
    """Calibration loops per second, best of three (the host record)."""
    return loops / min(_loop_seconds(loops) for _ in range(3))


#: While a round runs, a timer signal runs a calibration slice of
#: ``SLICE_LOOPS`` loops every ``SAMPLE_INTERVAL_S`` seconds (about 0.5 %
#: of the round's time).
SLICE_LOOPS = 10_000
SAMPLE_INTERVAL_S = 0.1


class HostSpeed:
    """The host's mean speed over one round, in calibration loops/s.

    The host's speed changes within a second, so slices run all through
    the round, plus one right before and one right after it. Their mean
    rate is the round's speed: the samples are evenly spaced in time.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []

    def _sample(self, *_signal_args) -> None:
        self.rates.append(SLICE_LOOPS / _loop_seconds(SLICE_LOOPS))

    def __enter__(self) -> HostSpeed:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def loops_per_s(self) -> float:
        return statistics.fmean(self.rates)


def reference_seconds(rnd, seconds: float) -> float:
    """``seconds`` measured in ``rnd``, as the reference host would take."""
    return seconds * rnd.host_loops_per_s / REFERENCE_LOOPS_PER_S


def shape_problems(workload: str, rnd) -> list[str]:
    """Ways a round fails to be the workload it claims to be."""
    problems = []
    if rnd.gets < MIN_SAMPLES or rnd.puts < MIN_SAMPLES:
        problems.append(f"{rnd.gets} GETs / {rnd.puts} PUTs < {MIN_SAMPLES}")
    flushes = rnd.delta.get("lsm.flushes", 0.0)
    if workload == "replay-mixgraph" and flushes < 2:
        problems.append("no memtable flush before the end-of-run flush")
    if workload.startswith("serve-") and flushes != 0:
        problems.append("the keyspace left the memtable")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run rounds until ``seconds`` have passed.

    Returns (warm-up round, measured rounds, problems). The warm-up round
    is checked like the others but measures nothing: the first round in
    a process pays one-off costs (the allocator faulting in its heap,
    first-use imports) that a long-running simulator or server pays once.
    """
    from perfbench.layers import SpanTracer, install
    from perfbench.workloads import ROUNDS

    run_round = ROUNDS[workload]

    def timed_round(tracer):
        with HostSpeed() as speed:
            rnd = run_round(seed, tracer)
        rnd.host_loops_per_s = speed.loops_per_s
        return rnd

    deadline = time.perf_counter() + seconds
    warmup = run_round(seed, None)
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        # Free the previous round's device before building the next, so
        # peak RSS does not depend on when the collector last ran.
        gc.collect()
        if traced:
            tracer = SpanTracer()
            restore = install(tracer)
            try:
                rounds.append(timed_round(tracer))
            finally:
                restore()
        else:
            rounds.append(timed_round(None))
        plain = sum(1 for r in rounds if not r.traced)
        enough = plain >= MIN_ROUNDS and (
            not trace or len(rounds) - plain >= MIN_ROUNDS
        )
        if enough and time.perf_counter() >= deadline:
            break

    problems = []
    for index, rnd in enumerate([warmup] + rounds):
        problems += [f"round {index}: {p}" for p in shape_problems(workload, rnd)]
        if rnd.sim != warmup.sim or rnd.delta != warmup.delta:
            kind = "traced" if rnd.traced else "untraced"
            problems.append(
                f"round {index} ({kind}) changed a simulated result "
                "(simulated metrics or snapshot delta differ from round 0)"
            )
    return warmup, rounds, problems


def summarize(rounds, trace: bool) -> dict[str, float]:
    """The metrics the run reports: end-to-end, or per-layer if traced.

    Every wall-clock time is scaled to the reference host round by round
    (:func:`reference_seconds`) before the median is taken.
    """
    plain = [r for r in rounds if not r.traced]
    if not trace:
        metrics = {
            "wall_ops_per_s": statistics.median(
                r.ops / reference_seconds(r, r.timed_s) for r in plain
            ),
            "setup_s": statistics.median(
                reference_seconds(r, r.setup_s) for r in plain
            ),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update(plain[0].sim)
        return metrics
    traced = [r for r in rounds if r.traced]
    metrics = {
        name: statistics.median(
            reference_seconds(r, r.layers[name]) if UNITS[name] == "s"
            else r.layers[name]
            for r in traced
        )
        for name in traced[0].layers
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(reference_seconds(r, r.timed_s) for r in traced)
        / statistics.median(reference_seconds(r, r.timed_s) for r in plain)
        - 1.0
    )
    return metrics


def unscaled(rounds) -> dict[str, float]:
    """Medians of the raw wall-clock numbers, for the human-readable lines."""
    plain = [r for r in rounds if not r.traced]
    return {
        "wall_ops_per_s": statistics.median(r.ops / r.timed_s for r in plain),
        "setup_s": statistics.median(r.setup_s for r in plain),
        "host_loops_per_s": statistics.median(
            r.host_loops_per_s for r in rounds
        ),
    }


def run_one(args) -> int:
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": args.seed,
        "calibration_loops_per_s": round(calibrate()),
    }
    warmup, rounds, problems = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    metrics = summarize(rounds, bool(args.trace))
    attempted = warmup.ops + sum(r.ops for r in rounds)
    failed = warmup.failed + sum(r.failed for r in rounds)
    host["runs"] = {
        "warmup": 1,
        "untraced": sum(1 for r in rounds if not r.traced),
        "traced": sum(1 for r in rounds if r.traced),
    }
    print(f"# workload {args.workload} seconds={args.seconds} trace={args.trace}")
    print("# host " + json.dumps(host, sort_keys=True))
    print("# unscaled " + json.dumps(
        {name: round(value, 6) for name, value in unscaled(rounds).items()},
        sort_keys=True,
    ))
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:40s} {value:16.6f} {UNITS[name]}")
    print(f"{args.workload:16s} {'fail_frac':40s} {failed / attempted:16.6f} ratio")
    for problem in problems:
        print(f"# FAIL {problem}")
    if failed:
        print(f"# FAIL {failed} of {attempted} ops failed or read a wrong value")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS stays per workload)."""
    combined = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"# FAIL {workload} exited {proc.returncode} without a result")
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            combined[f"{workload}.{name}"] = entry
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": combined,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
