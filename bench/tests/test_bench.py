"""Self-tests of the benchmark: the oracle counts what it must, every
metric is emitted by name with its unit, and a seed changes the values of
the inputs but not the work.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from gsvdkit import gsvd  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def first_op(workload, prefix):
    return next(op for op in workload.ops if op.name.startswith(prefix))


@pytest.fixture(scope="module")
def factor():
    return workloads.build("factor", 11, "")


def test_corrupted_factor_is_a_counted_failure(factor):
    op = first_op(factor, "small")

    def perturbed_h(a, b):
        f = gsvd.gsvd_decompose(a, b)
        return dataclasses.replace(f, h=f.h * (1 + 1e-6))

    corrupt = dataclasses.replace(op, name="corrupt", run=perturbed_h)
    record = harness.run_pass([op, corrupt, op])
    assert len(record.failures) == 1 and record.failures[0].startswith("corrupt")
    assert "reconstruction residual" in record.failures[0]
    # the failing op's defect still counts toward the defect metric
    attempted, failures, defects = harness.tally([record])
    assert (attempted, len(failures)) == (3, 1)
    assert len(defects) == 3 and max(defects) > 1e6
    line = json.loads(harness.result_line(attempted, len(failures), {}))
    assert line["correct"] is False and line["failed"] == 1


@pytest.mark.xfail(strict=True, raises=oracle.CheckFailed,
                   reason="known library defect: the B rows lose accuracy when B is small "
                          "beside A (workloads.KNOWN_DEFECT)")
@pytest.mark.parametrize("name", sorted(workloads.KNOWN_DEFECT))
def test_known_defect_pair_passes_the_oracle(name):
    op = workloads.known_defect_op(name)
    op.check(op.run(*op.args))


def test_library_exception_is_a_counted_failure(factor):
    op = first_op(factor, "small")
    bad = dataclasses.replace(op, name="mismatch", args=(op.args[0], op.args[1][:, :-1]))
    record = harness.run_pass([bad])
    assert len(record.failures) == 1 and "DimensionMismatch" in record.failures[0]


def test_nonzero_cli_exit_is_a_counted_failure(tmp_path):
    analyses = workloads.build("analyses", 3, str(tmp_path))
    op = first_op(analyses, "cli_verify")
    missing = dataclasses.replace(op, args=(op.args[0][:-1] + [str(tmp_path / "none.json")],))
    record = harness.run_pass([missing])
    assert len(record.failures) == 1 and "exit code 2" in record.failures[0]


def test_end_to_end_metrics_named_with_units(tmp_path):
    analyses = workloads.build("analyses", 5, str(tmp_path))
    small = dataclasses.replace(
        analyses, ops=tuple(op for op in analyses.ops if op.name.startswith(("anova", "cluster"))),
        min_passes=3)
    passes, setup_times = harness.run_passes(small, 0, 2)
    assert len(setup_times) == 2 and all(0 < t < 60 for t in setup_times)
    attempted, failures, defects = harness.tally(passes)
    metrics, details = harness.end_to_end(small, passes, [0.5, 0.7, 0.6], attempted,
                                          len(failures), defects)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert metrics["setup_s"][0] == 0.6
    line = json.loads(harness.result_line(attempted, len(failures), metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 6
    assert details["op_samples"] == 6


def test_layer_metrics_named_with_units(factor):
    jacobi = workloads.Op(
        "jacobi", workloads.run_cli,
        (["jacobi", "--m1", "3", "--m2", "5", "--n", "1", "--samples", "1000"],),
        lambda result: None)
    ops = [first_op(factor, "small"), first_op(factor, "rank"), jacobi]
    tracer = spans.Tracer()
    plain = [harness.run_pass(ops)]
    tracer.install()
    try:
        traced = [harness.run_pass(ops, tracer)]
    finally:
        tracer.uninstall()
    assert not traced[0].failures
    metrics = harness.layer_metrics(tracer, plain, traced)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [(m["name"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, better) for name, _, better in spans.metric_specs()]
    values = {name: value for name, (value, _) in metrics.items()}
    assert values["gsvd.gsvd_decompose.calls"] == 2
    assert values["gsvd.svdvals_per_decompose"] == 3
    assert values["gsvd.fallback_ratio"] == 0
    assert values["jacobi.sample_manova.calls"] == 1000
    assert values["jacobi.draws_per_sample"] == 1
    assert values["cli.main.calls"] == 1
    assert values["lapack.eig.calls"] == 2000
    assert 0 < values["lapack.share"] < 1
    # every LAPACK span hangs under a library span; the oracle's calls are not traced
    lapack = [i for i, name in enumerate(tracer.names) if name.startswith("lapack.")]
    assert all(tracer.parent[i] >= 0 for i in range(len(tracer.start))
               if tracer.name_id[i] in lapack)
    # uninstalling restores the library's own functions
    assert gsvd.gsvd_decompose.__module__ == "gsvdkit.gsvd"
    assert not hasattr(gsvd.gsvd_decompose, "__wrapped__")


def test_cossin_counts_as_svd_in_either_form():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((12, 12)))
    blocks = [q[:5, :4], q[:5, 4:], q[5:, :4], q[5:, 4:]]
    whole = spans._cossin_cost(q, p=5, q=4)
    assert whole[0] == "svd" and whole[1] > 0
    assert spans._cossin_cost(blocks) == whole
    assert spans._cossin_cost(q, p=5, q=4, compute_u=False, compute_vh=False)[0] == "svdvals"
    assert ("scipy.linalg", "cossin", spans._cossin_cost) in spans.LAPACK


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_arrays_not_work(name, tmp_path):
    def build(seed, subdir):
        (tmp_path / subdir).mkdir()
        return workloads.build(name, seed, str(tmp_path / subdir))

    one, two, again = build(1, "one"), build(2, "two"), build(1, "again")

    def shapes(workload):
        return [(op.name, [np.shape(x) for x in op.args if isinstance(x, np.ndarray)])
                for op in workload.ops] + [(k, v.shape) for k, v in workload.arrays.items()]

    def arrays(workload):
        return [x for op in workload.ops for x in op.args if isinstance(x, np.ndarray)] + \
            list(workload.arrays.values())

    assert shapes(one) == shapes(two)
    assert (one.min_passes, one.tail_pct) == (two.min_passes, two.tail_pct)
    pairs = list(zip(arrays(one), arrays(two)))
    assert pairs and any(not np.array_equal(x, y) for x, y in pairs)
    assert all(np.array_equal(x, y) for x, y in zip(arrays(one), arrays(again)))


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "factor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
