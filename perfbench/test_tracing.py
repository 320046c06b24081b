"""Checks of the benchmark's own span arithmetic and layer metrics.

    python3 -m pytest perfbench -q
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from layers import LAYERS, PER_LAYER, instrument, per_layer_metrics
from tracing import Span, Tracer, concurrency, pool_overlap, self_times, union_length
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def span(id, name, start, end, parent=None, thread=1, **attrs):
    return Span(id, name, start, end, parent, thread, attrs)


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6), (8, 9)]) == 7.0


def test_self_time_subtracts_the_union_of_overlapping_pool_children():
    spans = [
        span(1, "scenario.run_scenarios", 0.0, 10.0),
        span(2, "scenario.run_scenario", 1.0, 5.0, parent=1, thread=2),
        span(3, "scenario.run_scenario", 3.0, 8.0, parent=1, thread=3),
        span(4, "states.eval_pure_density", 3.5, 4.5, parent=2, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 3.0, 3: 5.0, 4: 1.0}
    # threads 2 and 3 overlap for 2 s, which summed self times count twice
    assert concurrency(spans) == 2.0
    assert sum(selfs.values()) - concurrency(spans) == spans[0].duration


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, "a", 0.0, 2.0), span(2, "b", 1.0, 3.0, parent=1)]
    assert self_times(spans)[1] == 1.0


def test_pool_overlap_is_task_time_over_pool_time():
    spans = [span(1, "scenario.run_scenarios", 0.0, 6.0),
             span(2, "scenario.run_scenario", 0.0, 5.0, parent=1, thread=2),
             span(3, "scenario.run_scenario", 0.5, 6.0, parent=1, thread=3)]
    assert pool_overlap(spans, "scenario.run_scenarios", "scenario.run_scenario") == 10.5 / 6.0
    serial = [span(1, "scenario.run_scenarios", 0.0, 4.0),
              span(2, "scenario.run_scenario", 0.0, 4.0, parent=1)]
    assert pool_overlap(serial, "scenario.run_scenarios", "scenario.run_scenario") == 1.0
    assert pool_overlap([], "scenario.run_scenarios", "scenario.run_scenario") == 0.0


def test_tracer_links_nested_calls_and_adopts_pool_threads():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def leaf(x):
        barrier.wait()  # both pool tasks are open at once
        return x

    leaf_t = tracer.wrap("leaf", leaf)
    task = tracer.wrap("task", lambda x: leaf_t(x))

    def pool(xs):
        with ThreadPoolExecutor(max_workers=2) as ex:
            return [f.result() for f in [ex.submit(task, x) for x in xs]]

    assert tracer.wrap("pool", pool)([1, 2]) == [1, 2]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["pool"]
    assert root.parent is None
    assert {s.parent for s in by_name["task"]} == {root.id}
    assert len({s.thread for s in by_name["task"]}) == 2
    tasks = {s.id for s in by_name["task"]}
    assert {s.parent for s in by_name["leaf"]} == tasks
    assert concurrency(tracer.spans) > 0.0


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom, describe=lambda *a: ("_never", {"n": 1}))()
    (s,) = tracer.spans
    assert (s.name, s.attrs) == ("boom", {})


def test_per_layer_counts_are_computed_from_sizes_and_arguments():
    spans = [
        span(1, "cli.main", 0.0, 10.0),
        span(2, "scenario.run_scenarios", 0.5, 9.5, parent=1),
        span(3, "scenario.run_scenario", 0.5, 9.5, parent=2, scenario="a"),
        span(4, "states.density_validate", 1.0, 1.5, parent=3, bytes=16 * 512**2),
        span(5, "states.density_validate", 1.5, 2.0, parent=3, bytes=16 * 1024**2),
        span(6, "mixing.ensemble_average_density_gh", 2.0, 3.0, parent=3, members=32**2 + 64**2),
        span(7, "mixing.ensemble_average_density_mc", 3.0, 4.0, parent=3, samples=100_000),
        span(8, "oracle.propagate", 4.0, 5.0, parent=3, steps=1000, scheme="spectral-split-step", n=512),
        span(9, "oracle.propagate", 5.0, 7.0, parent=3, steps=500, scheme="implicit-unitary", n=1024),
        span(10, "scenario.write_density_dump", 7.0, 8.0, parent=3, bytes=1000),
        span(11, "scenario.emit_timeseries", 8.0, 9.0, parent=3, bytes=20),
    ]
    m = per_layer_metrics(spans)
    assert m["states.density_matrices_built"] == 2
    assert m["states.density_bytes"] == 16 * (512**2 + 1024**2)
    assert m["mixing.ensemble_gh_members"] == 5120
    assert m["mixing.ensemble_mc_samples"] == 100_000
    assert m["oracle.propagate_calls"] == 2
    assert m["oracle.propagate_steps"] == 1500
    assert m["oracle.split_step_us_per_step"] == pytest.approx(1000.0)
    assert m["oracle.cayley_us_per_step"] == pytest.approx(4000.0)
    assert m["scenario.density_dump_bytes"] == 1000
    assert m["scenario.bytes_written"] == 1020
    assert m["scenario.pool_overlap"] == 1.0
    layer_total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_total - m["trace.concurrency_s"] == pytest.approx(10.0)


def test_benchmark_file_lists_the_metrics_and_workloads_the_code_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_instrument_traces_a_cli_run_and_undo_restores_the_functions(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from squeezedx import cli, scenario, states
    finally:
        sys.path.remove(str(ROOT / "src"))
    config = tmp_path / "ground.json"
    config.write_text(json.dumps({
        "name": "g", "squeeze": {"A0": 1.0},
        "grid": {"x_min": -9.0, "x_max": 9.0, "n_points": 128},
        "sample_times": [0.0, 0.5], "outputs": ["timeseries", "verify"]}))
    originals = (cli.main, scenario.eval_pure_density, states.eval_pure_density,
                 states.DensityMatrixSample.__post_init__)
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        assert cli.main(["run", str(config), "--out-dir", str(tmp_path), "--quiet"]) == 0
    finally:
        undo()
    assert (cli.main, scenario.eval_pure_density, states.eval_pure_density,
            states.DensityMatrixSample.__post_init__) == originals
    m = per_layer_metrics(tracer.spans)
    assert m["states.eval_pure_density_calls"] == m["scenario.density_at_calls"] == 2
    assert m["states.density_matrices_built"] == 2
    assert m["states.density_bytes"] == 2 * 16 * 128**2
    assert m["oracle.propagate_steps"] > 0
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == "cli.main"


def test_configs_repeat_for_a_seed_and_vary_across_seeds():
    for workload in WORKLOADS:
        assert make_config(workload, 7, ROOT) == make_config(workload, 7, ROOT)
        assert make_config(workload, 7, ROOT) != make_config(workload, 8, ROOT)
