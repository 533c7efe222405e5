"""Self-tests of the benchmark: span arithmetic, metric names, tiny smoke runs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import re
import time

import pytest

import run
import tracing
from qirb.pipeline import DEFAULT_DEPTHS
from tracing import Span

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        Span("cli.analyze", 0.0, 10.0, None),
        Span("analysis.bootstrap_decay", 1.0, 4.0, 0),
        Span("analysis.fit_decay", 2.0, 3.0, 1),
        Span("serialize.read_json", 5.0, 6.0, 0),
        Span("pipeline.a", 7.0, 9.0, 0),
        Span("pipeline.b", 8.0, 9.5, 0),  # overlaps its sibling: covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 1 - 2.5, 2.0, 1.0, 1.0, 2.0, 1.5])
    layers = tracing.layer_self_times(spans)
    assert layers["cli"] == pytest.approx(3.5)
    assert layers["analysis"] == pytest.approx(3.0)
    assert layers["serialize"] == pytest.approx(1.0)
    assert layers["pipeline"] == pytest.approx(3.5)
    assert layers["simulator"] == 0.0


def test_counters_are_taken_outside_every_span():
    def slow_counter(args, kwargs, result):
        time.sleep(0.2)
        return {"counted": result}

    tr = tracing.Tracer()
    traced = tr.wrap("builder.fast", lambda: 7, slow_counter)
    outer = tr.begin("cli.design")
    assert traced() == 7
    tr.end(outer)
    tr.uninstall()
    assert [s.name for s in tr.spans] == ["cli.design", "builder.fast"]
    assert tr.spans[1].attrs == {"counted": 7}
    assert all(s.duration < 0.1 for s in tr.spans)


def test_tracer_wraps_every_module_that_imported_the_function():
    import qirb.cli
    import qirb.pipeline
    import qirb.simulator

    original = qirb.simulator.simulate_result
    tr = tracing.Tracer()
    with tr:
        assert qirb.pipeline.simulate_result is not original
        assert qirb.simulator.simulate_result is qirb.pipeline.simulate_result
        assert qirb.cli.simulate_design is qirb.pipeline.simulate_design
    assert qirb.pipeline.simulate_result is original
    assert "pipeline.simulate_design" in tracing.missing_calls({})
    assert "theory.exact_success_expectation" not in tracing.missing_calls({})


def test_metric_and_workload_names_are_valid():
    with open(run.BENCHMARK_JSON) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    names = [*run.metric_units("end_to_end"), *run.metric_units("per_layer"), *run.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


# Each shape (n, p_cnot, p_mcm, depths, reset mode) at a tiny size.
TINY = dict(circuits_per_depth=3, shots=200)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_passes_every_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    w = dataclasses.replace(run.WORKLOADS[name], **TINY)

    traced = run.run(w, seed=1, seconds=0, trace=True)
    assert traced["detail"]["failures"] == []
    assert traced["result"]["correct"] and traced["result"]["attempted"] > 0
    metrics = traced["result"]["metrics"]
    assert set(metrics) == set(run.metric_units("per_layer"))
    assert metrics["simulator.calls"]["value"] == 3 * len(w.depths or DEFAULT_DEPTHS)
    assert metrics["analysis.fit_decay_calls"]["value"] == run.BOOTSTRAP + 1

    # The second run compares every output digest with the first.
    untraced = run.run(w, seed=1, seconds=0, trace=False)
    assert untraced["detail"]["failures"] == []
    assert untraced["result"]["correct"]
    assert set(untraced["result"]["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in untraced["result"]["metrics"].values())
