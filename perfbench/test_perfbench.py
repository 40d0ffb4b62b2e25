"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from moediv import checks  # noqa: E402
from moediv import tensor as T  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_with_nested_spans():
    # outer 0..10 holds a 1..4 and b 5..9; b holds c 6..7
    tracer = tracing.Tracer(clock=fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    s = tracing.summarize(tracer.spans)
    assert s["outer"]["ms"] == pytest.approx(10e3)
    assert s["outer"]["self_ms"] == pytest.approx(3e3)
    assert s["b"]["self_ms"] == pytest.approx(3e3)
    assert s["c"]["self_ms"] == s["c"]["ms"] == pytest.approx(1e3)
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 2]


def test_nested_same_name_counted_once():
    tracer = tracing.Tracer(clock=fake_clock([0, 2, 5, 8]))
    with tracer.span("f"):
        with tracer.span("f"):
            pass
    s = tracing.summarize(tracer.spans)
    assert s["f"]["calls"] == 2
    assert s["f"]["ms"] == pytest.approx(8e3)
    assert s["f"]["self_ms"] == pytest.approx(8e3)


def test_count_within():
    tracer = tracing.Tracer()
    with tracer.span("cli.run.perturb"):
        for _ in range(3):
            with tracer.span("model.forward"):
                pass
    with tracer.span("model.forward"):
        pass
    assert tracing.count_within(tracer.spans, "model.forward", "cli.run.perturb") == 3


def test_percentile_needs_ten_samples_above():
    values = list(range(1, 101))
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile(values[::-1], 90) == 90
    with pytest.raises(ValueError):
        tracing.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        tracing.percentile(values, 95)
    assert tracing.percentile(list(range(20)), 50) == 9


def test_wrapper_records_span_and_keeps_result():
    tracer = tracing.Tracer()
    seen = []
    wrapped = tracer.wrap(lambda x: x * 2, "f", after=lambda t, args, out: seen.append(out))
    with tracer.span("caller"):
        assert wrapped(21) == 42
    names = [span[0] for span in tracer.spans]
    assert names == ["caller", "f", "bench.hook"]
    assert seen == [42]
    assert all(span[3] == 0 for span in tracer.spans[1:])


def test_calibration_scales_by_nearby_slices_and_skips_them():
    spans = [["bench.ref", 0.0, 1.0, -1], ["work", 1.0, 5.0, -1], ["bench.ref", 5.0, 7.0, -1]]
    cal = calibrate.Calibration(spans, nominal=1.0, neighbours=1)
    assert cal(2.0, 4.0) == pytest.approx(2.0 / 1.5)  # between slices of 1 s and 2 s
    assert cal(0.5, 6.0) == pytest.approx(4.0 / 1.5)  # slice time left out
    assert cal(6.0, 9.0) == pytest.approx(2.0 / 2.0)  # after the 2 s slice
    assert cal(-1.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        calibrate.Calibration([["work", 0.0, 1.0, -1]])


def test_pacer_runs_slices_only_when_due():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])
    pacer = calibrate.Pacer(tracer, period=1.0)
    calls = []
    paced = pacer.paced(calls.append)
    paced(1)
    now[0] = 1.5
    paced(2)
    paced(3)
    assert calls == [1, 2, 3]
    assert [span[0] for span in tracer.spans] == [calibrate.REF_SPAN]


def _site_attributes():
    out = {}
    for name, modules in workloads.SITES.items():
        for module in modules:
            mod = importlib.import_module("moediv." + module)
            func = name.split(".")[1]
            out[(module, func)] = getattr(mod, func)
    return out


def test_wrappers_removed_after_traced_block():
    before = _site_attributes()
    checks_before = list(checks.ALL_CHECKS)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(workloads.instrument(tracer, pacer=calibrate.Pacer(tracer))):
            inside = _site_attributes()
            assert all(inside[k] is not before[k] for k in before)
            assert all(inspect.unwrap(inside[k]) is before[k] for k in before)
            assert checks.ALL_CHECKS is not checks_before
            raise RuntimeError("unit failed")
    assert _site_attributes() == before
    assert checks.ALL_CHECKS == checks_before


def test_graph_node_count_matches_engine():
    a = T.Tensor(np.ones(3), requires_grad=True)
    b = T.Tensor(np.full(3, 2.0), requires_grad=True)
    shared = T.mul(a, b)
    root = T.tsum(T.add(shared, T.mul(shared, a)))
    tracer = tracing.Tracer()
    workloads._count_graph_nodes(tracer, (root,))
    assert tracer.counters["tensor.graph_nodes"] == len(T._toposort(root)) == 6


def test_output_checks_reject_bad_output():
    good = "layer,d_total,d_inter,d_intra\n0,0.5,0.2,0.3\n1,0.4,0.1,0.3\n"
    assert workloads.check_decompose(good, 2)
    assert not workloads.check_decompose(good.replace("0.2,", "0.25,"), 2)
    heat = "# layer 0\nrow,expert_0,expert_1\na,0.25,0.75\nb,1,0\n"
    assert workloads.check_heatmap(heat, 1, 2)
    assert not workloads.check_heatmap(heat.replace("0.75", "0.7"), 1, 2)
    assert not workloads.check_heatmap("", 1, 2)


def test_benchmark_json_names_are_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    computed = set(run.unit_layer_values(workloads, tracing.Tracer()))
    computed |= set(workloads.FIGURES)
    computed |= {"setup_s", "run_s", "peak_rss_mb", "ops_failed_frac",
                 "bench.trace_overhead_frac"}
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert names <= computed
