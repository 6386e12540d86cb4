"""The tracer: self times, restoring capstrip, absent names, and the metric list."""

import json
from pathlib import Path

import spans
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("inner", inner, (), {}) + tracer.call("inner", inner, (), {})

    with tracer.recording(0):
        tracer.call("outer", outer, (), {})
    (o_name, o_start, o_end, o_parent, _, o_self, _), *children = tracer.spans
    assert (o_name, o_parent) == ("outer", -1)
    assert [c[0] for c in children] == ["inner", "inner"]
    assert all(c[3] == 0 for c in children)
    covered = sum(c[2] - c[1] for c in children)
    assert o_self == (o_end - o_start) - covered
    assert all(c[5] == c[2] - c[1] for c in children)


def test_nothing_is_recorded_outside_a_phase():
    tracer = spans.Tracer()
    assert tracer.call("x", lambda: 7, (), {}) == 7
    assert tracer.spans == []


def test_wrappers_are_removed_afterwards():
    capstrip = workloads.import_program()
    price_vector = capstrip.bachelier.price_vector
    vol_curve = capstrip.stripping.VolCurve
    loader = capstrip.term_structures.ZeroCurve.__dict__["from_csv"]
    tracer = spans.Tracer()
    with tracer.installed(capstrip):
        assert capstrip.bachelier.price_vector is not price_vector
        assert capstrip.stripping.VolCurve is not vol_curve
    assert capstrip.bachelier.price_vector is price_vector
    assert capstrip.stripping.VolCurve is vol_curve
    assert capstrip.term_structures.ZeroCurve.__dict__["from_csv"] is loader
    assert tracer.absent == set()


def test_traced_pass_counts_layers(tmp_path):
    capstrip = workloads.import_program()
    tracer = spans.Tracer()
    with tracer.installed(capstrip), tracer.recording(-1):
        workload = workloads.CleanGrid(0, tmp_path)
    with tracer.installed(capstrip):
        for op in workload.operations(0):
            with tracer.recording(0):
                op.check(op.run())
    metrics = spans.layer_metrics(tracer, min)
    assert metrics["stripping.global.iterations"]["value"] > 0
    assert metrics["stripping.global.max_iter_hits"]["value"] == 0
    assert metrics["term_structures.load_s"]["value"] > 0
    assert metrics["cli.bytes_written"]["value"] == 0
    assert metrics["stripping.global.mid.linear.none.iterations"]["value"] > 0
    assert metrics["stripping.tv.s"]["value"] > 0
    assert set(metrics) == set(spans.LAYER_METRICS)


def test_a_removed_name_is_absent_not_zero(monkeypatch):
    capstrip = workloads.import_program()
    monkeypatch.delattr(capstrip.cli, "compare_methods")
    tracer = spans.Tracer()
    with tracer.installed(capstrip), tracer.recording(0):
        capstrip.bachelier.price_vector(0.01, 0.0, 1.0, 1.0, 1.0, 0.01)
    assert tracer.absent == {"cli.compare_methods"}
    metrics = spans.layer_metrics(tracer, min)
    assert "cli.compare_methods.self_s" not in metrics
    assert "cli.run_pipeline.self_s" in metrics


def test_benchmark_json_lists_every_metric():
    bench = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "pass_s", "peak_rss_mb"]
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    expected[spans.OVERHEAD] = "s"
    assert listed == expected
