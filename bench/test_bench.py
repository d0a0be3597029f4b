"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cases  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

from pbw import cli, criterion, datumio, exprs, oracle, presets, rewrite  # noqa: E402
from pbw.algebra import Datum, NCPoly  # noqa: E402
from pbw.scalars import Cyclo  # noqa: E402

# digest of the nf-expand outputs for seed 1, recorded when the benchmark
# was defined; a change of normal forms or of their printing changes it
NF_SEED1_OUTPUTS = "f9627cf5b3761f1a7fc203491f0d1b03d18f4516fc2abce033b6a46c307ae937"

PBW = types.SimpleNamespace(
    cli=cli, criterion=criterion, datumio=datumio, exprs=exprs, oracle=oracle, presets=presets, rewrite=rewrite,
)


def _ops(workload, seed, tmp_path):
    return workloads.make_ops(cases.generate(workload, seed, presets, datumio), str(tmp_path))


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = cases.digest(cases.generate(workload, 7, presets, datumio))
    b = cases.digest(cases.generate(workload, 7, presets, datumio))
    c = cases.digest(cases.generate(workload, 8, presets, datumio))
    assert a == b != c


def test_end_to_end_metrics_use_each_ops_best_latency():
    import run

    # three sweeps of three ops; a slow phase inflates the second sweep
    latencies = [4.0, 20.0, 3.0, 8.0, 40.0, 6.0, 5.0, 21.0, 3.5]
    best = run.best_latencies(latencies, 3)
    assert best == [4.0, 20.0, 3.0]
    metrics = run.end_to_end(best, [0.3, 0.1, 0.2])
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 0.027)
    assert metrics["op_p50_ms"]["value"] == 4.0
    assert metrics["op_p90_ms"]["value"] == pytest.approx(4.0 + 0.8 * 16.0)
    assert metrics["setup_s"]["value"] == 0.2


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    import run

    metrics = run.end_to_end([1.0, 2.0, 3.0], [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}


def test_shape_checker_rejects_reducible_words():
    d = datumio.datum_from_dict(datumio.datum_to_dict(presets.build_preset("uq_sl2").datum))
    x1, x2 = (1,), (2,)

    def poly(*words):
        return NCPoly({(w, (0,)): d.field.one() for w in words})

    assert workloads.pbw_shape_error(poly((x2, x2, x1), ()), d.heights) is None
    assert "increase" in workloads.pbw_shape_error(poly((x1, x2)), d.heights)
    assert "height" in workloads.pbw_shape_error(poly((x1, x1, x1)), d.heights)
    assert "not a letter" in workloads.pbw_shape_error(poly(((1, 2),)), d.heights)


def test_tracer_restores_originals():
    originals = {
        (criterion, "reduce_bounded"): criterion.reduce_bounded,
        (criterion, "span_contains"): criterion.span_contains,
        (cli, "check_pbw"): cli.check_pbw,
        (cli, "build_rules"): cli.build_rules,
        (cli, "normal_form"): cli.normal_form,
        (rewrite.RuleSystem, "find_site"): vars(rewrite.RuleSystem)["find_site"],
        (Datum, "mul"): vars(Datum)["mul"],
        (Cyclo, "__mul__"): vars(Cyclo)["__mul__"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original, name
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, name


def test_traced_outputs_equal_untraced(tmp_path):
    ops = _ops("check-tampered", 1, tmp_path)[:4] + _ops("nf-expand", 1, tmp_path)[:1]
    plain = [workloads.run_op(op, PBW) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [tracer.run_op(i, "op.cli", workloads.run_op, op, PBW) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.counts["criterion.fallbacks"] > 0
    assert tracer.counts["rewrite.find_site"] > tracer.counts["rewrite.rewrite_at"] > 0


def test_tampered_uq_sl2_fails_and_drops_the_rank(tmp_path):
    generated = cases.generate("check-tampered", 1, presets, datumio)
    stem, data, specs = next(c for c in generated if c[0] == "uq_sl2_N3_red12")
    ops = workloads.make_ops([(stem, data, specs)], str(tmp_path))
    for op in ops:
        code, out = workloads.run_op(op, PBW)
        assert code == 1 and workloads.verify(op, code, out, PBW) is None
    rank = oracle.quotient_rank(datumio.datum_from_dict(data), margin=2)
    assert rank < cases.expected_dimension(data) == 27


def test_nf_outputs_match_recorded_digest(tmp_path):
    ops = _ops("nf-expand", 1, tmp_path)
    results = [workloads.run_op(op, PBW) for op in ops]
    for op, (code, out) in zip(ops, results):
        assert workloads.verify(op, code, out, PBW) is None, op.label
    assert cases.digest([list(r) for r in results]) == NF_SEED1_OUTPUTS


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-pass", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_run_prints_a_correct_result():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-tampered", "--seed", "3", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["criterion.fallback_share"]["value"] > 0
