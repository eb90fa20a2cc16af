"""Tests of the benchmark itself, on a tiny grid.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_time_gap_ns, self_times  # noqa: E402

# A smooth density keeps a 32x32, 8-step build inside the residual check.
TINY = workloads.Sizes(density="sine-perturbation", grid=32, steps=8, sample_n=3000,
                       csv_n=500, validate_n=2000, bins=8, scatter_n=50)


@pytest.fixture(scope="module")
def program():
    modules, _import_s = run.load_program(ROOT)
    return modules


def make(program, name, tmp_path, nproc=2):
    wl = workloads.WORKLOADS[name](program, tmp_path, TINY, nproc=nproc)
    wl.setup()
    return wl


def test_self_time_of_synthetic_nested_spans():
    spans = [
        Span(1, "op", 0, 100, None, 1),
        Span(2, "a", 10, 40, 1, 1),
        Span(3, "c", 20, 30, 2, 1),
        Span(4, "b", 50, 90, 1, 1),
        Span(5, "worker", 15, 60, 1, 2),  # another thread: busy time, not subtracted
        Span(6, "inner", 20, 25, 5, 2),
    ]
    own = self_times(spans)
    assert own == {1: 30, 2: 20, 3: 10, 4: 40, 5: 40, 6: 5}
    assert self_time_gap_ns(spans, spans[0], own) == 0


def test_self_time_gap_detects_improper_nesting():
    leaked = [Span(1, "op", 0, 100, None, 1), Span(2, "a", 90, 120, 1, 1)]
    assert self_time_gap_ns(leaked, leaked[0], self_times(leaked)) == -20
    overlapping = [Span(1, "op", 0, 100, None, 1), Span(2, "a", 0, 60, 1, 1),
                   Span(3, "b", 40, 100, 1, 1)]
    assert self_time_gap_ns(overlapping, overlapping[0], self_times(overlapping)) == -20


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (200, 95), (1000, 99), (9999, 99), (10_000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    got = report.tail_percentile(values)
    if expected is None:
        assert got is None
        return
    p, value = got
    assert p == expected
    assert sum(v > value for v in values) >= 10
    summary = report.summarize(values)
    assert summary["n"] == n and summary["tail"] == {"p": p, "value": value}


def test_fail_ratio_counts_an_op_whose_map_is_missing(program, tmp_path):
    wl = make(program, "sample", tmp_path)
    ok = workloads.run_op(wl, 1)
    wl.map_path.unlink()
    failed = workloads.run_op(wl, 2)
    assert ok.ok
    assert not failed.ok
    assert all("exit 1" in f for f in failed.failures)
    got = run.Measured(warmup=[ok], timed=[failed])
    assert run.end_to_end(wl, got, setup_s=1.0)["fail_ratio"] == 0.5


def test_workers_above_nproc_are_refused(program, tmp_path):
    with pytest.raises(workloads.BenchError, match="exceeds nproc"):
        workloads.WORKLOADS["sample"](program, tmp_path, TINY, nproc=1)


def _bindings(program):
    owners = [getattr(program, m) for m in run.MODULES] + [program.grid._Stencil]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_traced_run_leaves_no_wrapper_installed(program, tmp_path):
    wl = make(program, "build", tmp_path)
    before = _bindings(program)
    got = run.measure(wl, seed=0, seconds=0.01, trace=True)
    assert _bindings(program) == before
    names = {s.name for s in got.tracer.spans}
    assert {"transport.build", "grid.stencil", "grid.gather", "poisson.solve"} <= names
    # a later untraced op records nothing
    count = len(got.tracer.spans)
    workloads.run_op(wl, 5)
    assert len(got.tracer.spans) == count


def test_build_loop_counts_and_additivity(program, tmp_path):
    wl = make(program, "build", tmp_path)
    got = run.measure(wl, seed=0, seconds=0.01, trace=True)
    assert all(op.ok for op in got.ops)
    layers, problems = run.per_layer(got)
    assert problems == []
    assert layers["transport.stencils_per_step"] == 6
    assert layers["transport.gathers_per_step"] == 23
    assert layers["poisson.solves"] == TINY.steps
    assert layers["grid.points"] > 0
    assert layers["grid.gather_bytes"] == (
        report.GATHER_BYTES_PER_POINT * layers["grid.gathers"] * TINY.grid ** 2)
    assert set(layers) | {"validate.reject_ratio"} == set(report.PER_LAYER)


@pytest.mark.parametrize("name", ["sample", "readme"])
def test_ops_pass_their_output_checks(program, tmp_path, name):
    wl = make(program, name, tmp_path)
    got = run.measure(wl, seed=3, seconds=0.01, trace=True)
    assert [op.failures for op in got.ops] == [[]] * len(got.ops)
    _layers, problems = run.per_layer(got)
    assert problems == []


def test_validate_rejection_is_a_completed_op(program, tmp_path):
    wl = make(program, "readme", tmp_path)
    op = workloads.run_op(wl, 0)
    cmd = op.commands["validate"]
    report_file = tmp_path / "report.txt"
    report_file.write_text(report_file.read_text().replace("result: pass", "result: fail"))
    cmd.stdout = report_file.read_text()
    cmd.rc = 3
    values = {}
    assert wl._check_report(report_file, cmd, values) == []
    assert values["rejected"] is True
    assert 3 in wl.allowed_exits("validate")


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == {k: v[:2] for k, v in report.END_TO_END.items()}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: v[:2] for k, v in report.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "correct" not in done.stdout
