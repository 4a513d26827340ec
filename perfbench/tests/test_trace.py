"""The tracer: every named span fires where the benchmark says it does."""

import random

import pytest

import run
import workloads
import worker
from tracer import COUNTERS, LAYERS, Tracer
from sunphases import cli, verify


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def traced_op(tracer, workload, tmp_path):
    calls = workloads.WORKLOADS[workload](random.Random(0))
    argv = [[a.replace("{out}", str(tmp_path)) for a in c.argv] for c in calls]
    tracer.reset()
    seconds, codes = worker.run_op(argv)
    assert codes == [0] * len(calls)
    for call in calls:
        call.check(tmp_path)  # raises on a wrong output
    return tracer.snapshot(seconds), seconds


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_listed_spans_fire_and_self_times_add_up(tracer, workload, tmp_path):
    snap, seconds = traced_op(tracer, workload, tmp_path)
    silent = [name for name in workloads.SPANS[workload] if snap["calls"].get(name, 0) == 0]
    assert not silent, f"{workload} never called {silent}"
    assert snap["cli_self_s"] > 0
    total = sum(snap["self_s"].values()) + snap["cli_self_s"]
    assert total == pytest.approx(seconds, rel=1e-9, abs=1e-9)


def test_every_per_layer_metric_has_a_span_listed_on_some_workload(tracer):
    listed = {name for spans in workloads.SPANS.values() for name in spans}
    counted = {metric: span for span, (metric, _) in COUNTERS.items()}
    for name in (m["name"] for m in run.BENCHMARK["per_layer"]):
        if name.startswith(("cli.", "trace.")):
            continue
        if name in counted:
            span = counted[name]
        else:
            span = name.rsplit(".", 1)[0]
        if span in LAYERS:
            assert any(s.startswith(span + ".") for s in listed), name
        else:
            assert span in tracer.span_names and span in listed, name


def test_references_outside_the_defining_module_are_rebound(tracer):
    wrapped = verify._SUITE_FUNCS["su3"]
    assert wrapped is not tracer._originals["verify.suite_su3"]
    assert cli.commutation_residual is tracer._wrappers["generators.commutation_residual"]
    tracer.uninstall()
    assert verify._SUITE_FUNCS["su3"] is tracer._originals["verify.suite_su3"]
    assert cli.commutation_residual is tracer._originals["generators.commutation_residual"]
    tracer.install()

