"""Checks of the benchmark's own span arithmetic and call cross-check.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

from vrfrbs import bench, estimators, solver, verification
from vrfrbs.estimators import default_params
from vrfrbs.problems import linear_toy

from perfbench import run, tracing, workloads
from perfbench.tracing import Tracer, crosscheck, instrument, self_times


def span(name, start, end, parent=-1, cell=None, components=0, value=0):
    return [name, start, end, parent, cell, components, value]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("b.inner", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 7.0, parent=0),
        span("c", 9.0, 12.0, parent=0),   # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_keeps_cell_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, value=lambda r: r)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert tracer.block("cell", outer, 1, cell="c1") == 3
    names = [rec[tracing.NAME] for rec in tracer.spans]
    parents = [rec[tracing.PARENT] for rec in tracer.spans]
    assert names == ["cell", "outer", "inner", "inner"]
    assert parents == [-1, 0, 1, 1]
    assert {rec[tracing.CELL] for rec in tracer.spans} == {"c1"}
    assert [rec[tracing.VALUE] for rec in tracer.spans[2:]] == [2, 3]
    assert tracer.cell is None
    # each span opens and closes on one tick: cell 0-7, outer 1-6, inner 2-3, 4-5
    assert self_times(tracer.spans) == pytest.approx([2.0, 3.0, 1.0, 1.0])


def test_crosscheck_flags_uncharged_components():
    spans = [
        span("estimators.estimator_step", 0, 5, cell="svrg", value=6),
        span("core.batch_mean.small", 1, 2, parent=0, cell="svrg",
             components=3),
        span("core.batch_mean.small", 2, 3, parent=0, cell="svrg",
             components=3),
        span("core.fb_residual", 6, 8, cell="svrg"),
        span("core.full", 6, 7, parent=3, cell="svrg", components=10),
    ]
    per_cell, unmetered = crosscheck(spans)
    assert per_cell == {"svrg": (6, 6)}
    assert unmetered == 10
    spans[0][tracing.VALUE] = 4
    assert crosscheck(spans)[0] == {"svrg": (6, 4)}


def test_instrument_restores_module_attributes():
    before = (bench.build_problem, bench.run, solver.estimator_step,
              verification.estimator_step, estimators.EstimatorState.clone)
    with instrument(Tracer()):
        assert bench.run is not before[1]
    after = (bench.build_problem, bench.run, solver.estimator_step,
             verification.estimator_step, estimators.EstimatorState.clone)
    assert after == before


def test_traced_matrix_components_match_charged_calls(tmp_path):
    config = {
        "experiment_id": "toy",
        "problem": {"family": "affine-toy", "dim": 5, "components": 200,
                    "seed": 3},
        "algorithms": [{"name": k, "estimator": k} for k in workloads.KINDS],
        "run": {"epochs": 6, "record_every_epochs": 2.0, "seeds": [0]},
    }
    tracer = Tracer()
    with instrument(tracer):
        cells = tracer.block("bench.run_experiment", bench.run_experiment,
                             config, tmp_path, cell="setup")
    per_cell, unmetered = crosscheck(tracer.spans)
    for cell in cells:
        components, charged = per_cell[cell["algorithm"]]
        assert components == charged == cell["oracle_calls"]
    assert unmetered > 0   # residual diagnostics
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["trace.crosscheck_mismatches"] == 0
    assert layers["problems.builds"] == len(workloads.KINDS)
    assert layers["solver.iterations"] == sum(c["iterations"] for c in cells)
    assert layers["estimators.oracle_calls"] == \
        sum(c["oracle_calls"] for c in cells)


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_traced_checks_components_match_charged_calls(kind):
    tracer = Tracer()
    with instrument(tracer):
        problem = tracing.proxied(linear_toy(n=10, dim=4, seed=1), tracer)
        history = tracer.block(
            "verification.build_history", verification.build_history, kind,
            default_params(kind, n=10, profile="experiment"), problem, seed=1,
            cell="history")
        tracer.block("verification.check",
                     verification.check_variance_recursion, history,
                     trials=50, seed=1, cell="check")
    per_cell, _ = crosscheck(tracer.spans)
    assert per_cell["history"][0] == per_cell["history"][1] > 0
    assert per_cell["check"][0] == per_cell["check"][1] > 0
    clones = sum(1 for rec in tracer.spans
                 if rec[tracing.NAME] == "verification.clone")
    assert clones >= 50


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(19) == 0.0
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.tail_percentile(10_000) == 99.9


def test_layer_metrics_cover_benchmark_json():
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    produced = set(tracing.layer_metrics([])) | set(run.COUNTED_LAYERS) \
        | {"trace.overhead_share"}
    assert produced == {m["name"] for m in spec["per_layer"]}
