"""Tests of the benchmark harness itself, on the small smoke models."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402

# Metrics the benchmark's definition promises, by name.
END_TO_END = {"compute_s", "check_accept_s", "check_reject_s", "peak_rss_mb", "setup_s"}
PER_LAYER = {
    "formats.parse_ks.self_s", "formats.parse_ks.bytes",
    "formats.parse_relation.self_s", "formats.parse_relation.pairs",
    "formats.serialize_result.self_s", "formats.serialize_ks.self_s",
    "model.KripkeStructure.self_s", "model.KripkeStructure.calls",
    "model.quotient.self_s", "model.state_pairs.self_s",
    "preprocess.collapse_inert_sccs.self_s", "preprocess.collapse_inert_sccs.states_out",
    "preprocess.sort_states_locally_topological.self_s",
    "engine.init.self_s", "engine.init_counters.self_s", "engine.init.peak_mb",
    "engine.find_refiner.self_s", "engine.find_refiner.calls",
    "engine.image.self_s", "engine.pos_ordered.self_s", "engine.pos_ordered.states_in",
    "engine.split.self_s", "engine.update.self_s", "engine.refine.self_s",
    "engine.build_result.self_s", "engine.split.useful_ratio",
    "engine.iterations", "engine.blocks_created", "engine.final_blocks",
    "checker.check_preorder.self_s", "checker.validate_relation.self_s",
    "checker.sink_components.self_s", "checker.sink_components.calls",
    "trace.overhead_ratio",
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sparse", "frontend"])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--smoke", "--seconds", "0", "--trace", str(trace)
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in metrics} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert (PER_LAYER if trace else END_TO_END) <= set(result["metrics"])
    # A metric that reads 0 gives later comparisons no baseline.
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    for key in ("python", "git_sha", "nproc", "seed", "untraced_wall_s", "traced_wall_s"):
        assert key in detail


def test_corrupted_digest_raises_fail_ratio():
    with harness.scratch_dir() as workdir:
        run = harness.Run("sparse", 3, 7, True, workdir)
        harness.prepare(run)
        run.ops[0].digests = {"0" * 64}
        harness.end_to_end(run, 0)
        assert run.attempted == 3 * harness.MIN_CYCLES
        assert len(run.failures) == harness.MIN_CYCLES  # every compute child
        harness.in_process_pass(run, layers.Tracer())
        assert len(run.failures) == harness.MIN_CYCLES + 1


def test_tracer_restores_the_program():
    originals = {name: owner.__dict__[attr] for name, (owner, attr, _) in layers.LAYERS.items()}
    with layers.Tracer().installed():
        assert all(owner.__dict__[attr] is not originals[name]
                   for name, (owner, attr, _) in layers.LAYERS.items())
    assert all(owner.__dict__[attr] is originals[name]
               for name, (owner, attr, _) in layers.LAYERS.items())


def test_self_time_excludes_child_spans():
    tracer = layers.Tracer()
    tracer.spans = [
        ["engine.init", 0.0, 1.0, -1, 0],
        ["engine.init_counters", 0.2, 0.5, 0, 0],
        ["preprocess.collapse_inert_sccs", 0.6, 0.7, 0, 98],
    ]
    summary = tracer.summary()
    assert summary["engine.init"]["self_s"] == pytest.approx(0.6)
    assert summary["engine.init_counters"]["self_s"] == pytest.approx(0.3)
    assert summary["preprocess.collapse_inert_sccs"]["work"] == 98


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "bench")
    proc = run_bench(
        tmp_path, "--workload", "sparse", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
