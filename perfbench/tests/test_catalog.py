"""Metric names agree with BENCHMARK.json and the allowed character set."""

import json
from pathlib import Path

from perfbench import catalog
from perfbench.layers import ENTRY_POINTS, layer_metrics

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _rows(metrics):
    return [
        {"name": m.name, "unit": m.unit, "better": m.better,
         **({"bound": m.bound} if m.bound is not None else {})}
        for m in metrics
    ]


def test_names_units_and_bounds_match_benchmark_json():
    assert SPEC["end_to_end"] == _rows(catalog.END_TO_END)
    assert SPEC["per_layer"] == _rows(catalog.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)


def test_names_use_the_allowed_characters_once():
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    names += list(catalog.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert catalog.NAME_RE.match(name), name


def test_setup_metric_has_the_largest_bound():
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_layer_metrics_cover_every_per_layer_name():
    stats = {entry.layer: (0, 0, 0) for entry in ENTRY_POINTS}
    out = layer_metrics(stats, {}, ops=1, gets=1, puts=1, timed_s=1.0,
                        batch_size_p50=0.0)
    names = {m.name for m in catalog.PER_LAYER} - {"trace.overhead_frac"}
    assert set(out) == names
