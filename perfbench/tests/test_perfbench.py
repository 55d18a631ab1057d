"""Tests of the benchmark harness itself. No test gates on a timing."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import tracer as tr  # noqa: E402
from rgcl import losses  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark's specification names.
NAMED_END_TO_END = (
    "setup_s", "epoch_s", "step_ms_p50", "step_ms_p90", "eval_s", "peak_rss_mb",
)
NAMED_PER_LAYER = (
    "training.sample_selections.ms", "training.encode_views.ms", "training.adam_update.ms",
    "rationale.attribute_nodes.calls", "rationale.attribute_nodes.ms",
    "rationale.gumbel_top_k.ms", "rationale.rationale_from_kept.ms",
    "rationale.complement_from_kept.ms", "graphs.induced_subgraph.calls",
    "graphs.induced_subgraph.ms", "graphs.batch_graphs.ms", "encoder.encode_graph.ms",
    "encoder.passes_per_anchor", "losses.rgcl_loss.ms", "losses.project.ms",
    "autodiff.backward.ms", "autodiff.tape_records", "autodiff.segment_sum.ms",
    "autodiff.segment_sum.calls", "autodiff.gather_rows.ms", "autodiff.gather_rows.calls",
    "autodiff.matmul.ms", "autodiff.matmul.calls", "params.lift_params.ms",
    "evaluation.embed_graphs.ms", "evaluation.linear_probe.ms",
    "evaluation.rationale_precision.ms", "evaluation.view_similarities.ms",
    "evaluation.linear_probe.iterations", "datasets.generate_planted_motif_dataset.ms",
    "trace.overhead_share",
)

SEED = 3
TINY = {
    "pretrain": dataclasses.replace(
        harness.WORKLOADS["pretrain-planted"], count=48, epochs=3, passes=1
    ),
    "eval": dataclasses.replace(harness.WORKLOADS["eval-planted"], count=48, epochs=3, passes=2),
}


def _check_result_line(line: dict, trace: bool) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["correct"], bool)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in table]
    for m in table:
        entry = line["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    json.loads(json.dumps(line, allow_nan=False))


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        harness.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_named_metric_is_present_with_a_unit():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in NAMED_END_TO_END:
        assert e2e.get(name), name
    for name in NAMED_PER_LAYER:
        assert layer.get(name), name


def test_tracer_restores_every_patched_attribute():
    before = tr.current_targets()
    t = tr.Tracer()
    with pytest.raises(KeyError):
        with t.installed():
            during = tr.current_targets()
            assert all(tr.is_wrapper(fn) for fn in during.values())
            assert all(during[k].__wrapped__ is before[k] for k in before)
            raise KeyError("leave the block early")
    after = tr.current_targets()
    assert all(after[k] is before[k] for k in before)
    assert not any(tr.is_wrapper(fn) for fn in after.values())


def test_self_time_is_inclusive_time_minus_children():
    t = tr.Tracer()
    with t.span("outer", "step"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    s = t.summarize("step")
    assert s["inner"]["calls"] == 2
    assert s["outer"]["self_ms"] == pytest.approx(s["outer"]["ms"] - s["inner"]["ms"])
    assert t.coverage("outer") == pytest.approx(s["inner"]["ms"] / s["outer"]["ms"])


@pytest.mark.parametrize("kind", ["pretrain", "eval"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_completes_without_failed_ops(kind, trace, tmp_path):
    before = tr.current_targets()
    record = harness.run_workload(TINY[kind], SEED, 0.0, trace, tmp_path)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["failed_ops_share"] == 0.0
    line = harness.result_line(record, trace)
    assert line["correct"] is True
    _check_result_line(line, trace)
    assert all(tr.current_targets()[k] is before[k] for k in before)
    assert list(tmp_path.iterdir()) == []  # the pretrain output dirs are gone
    if trace:
        m = {k: v["value"] for k, v in line["metrics"].items()}
        assert m["encoder.passes_per_anchor"] == 3.0
        if kind == "pretrain":
            anchors = m["training.train_step.anchors"]
            assert anchors == 24.0  # batches of 32 and 16 graphs
            assert m["rationale.attribute_nodes.calls"] == 2 * anchors
            assert m["graphs.induced_subgraph.calls"] == 3 * anchors
            assert m["autodiff.tape_records"] > 0
        else:
            assert m["bench.eval_pass.calls"] == 1.0
            # once per graph in rationale_precision, twice in view_similarities
            assert m["rationale.attribute_nodes.calls"] == 3 * TINY[kind].count
            assert m["evaluation.linear_probe.iterations"] > 0


def test_a_wrong_batched_loss_is_counted_as_a_failed_op(monkeypatch, tmp_path):
    real = losses.rgcl_loss

    def off_by_a_little(views, tau, lam):
        total, report = real(views, tau, lam)
        return total, dataclasses.replace(report, l_su=report.l_su + 1e-6)

    monkeypatch.setattr(losses, "rgcl_loss", off_by_a_little)
    record = harness.run_workload(TINY["pretrain"], SEED, 0.0, False, tmp_path)
    assert record["failed"] == 1
    assert not harness.result_line(record, False)["correct"]
    assert any("batched loss" in p for p in record["problems"])


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain-planted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
