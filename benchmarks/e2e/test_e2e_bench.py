"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_program_source()
import spans  # noqa: E402  (needs the program source on the path)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
        check=False,
    )


def printed_metrics(stdout: str, workload: str):
    """``metric -> (value, unit, n)`` from ``workload metric value unit n`` lines."""
    metrics = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] == workload:
            metrics[fields[1]] = (float(fields[2]), fields[3], int(fields[4]))
    return metrics


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    process = bench("--workload", workload, "--smoke", "--trace", str(trace))
    assert process.returncode == 0, process.stderr
    printed = printed_metrics(process.stdout, workload)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for metric in declared:
        value, unit, n = printed[metric["name"]]
        assert unit == metric["unit"], metric["name"]
        assert n >= 1, metric["name"]
    result = json.loads(process.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}


def test_corrupted_pin_fails_the_run(tmp_path):
    pins = tmp_path / "pins.json"
    made = bench("--write-pins", "--workload", "session", "--seed", "1", "--smoke", "--pins", str(pins))
    assert made.returncode == 0, made.stderr
    data = json.loads(pins.read_text())
    digests = data["session@smoke"]["1"]
    digests[1] = "0" * 24 + "/" + "0" * 24  # input 1: tenant clinic-01, sequence 0
    pins.write_text(json.dumps(data))

    process = bench("--workload", "session", "--seed", "1", "--smoke", "--pins", str(pins))
    assert process.returncode != 0
    assert printed_metrics(process.stdout, "session")["failed_ratio"][0] > 0
    result = json.loads(process.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert "session seed 1 tenant clinic-01 sequence 0" in process.stderr


def test_without_program_source_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path, check=False,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


@pytest.fixture(scope="module")
def traced():
    originals = {entry.path: getattr(*spans.resolve(entry.path)) for entry in spans.ENTRIES}
    results = [
        run.measure("session", 1, 0.5, trace=True, smoke=True),
        run.measure("fleet", 1, 2.0, trace=True, smoke=True),
    ]
    return originals, results


def test_traced_run_restores_every_wrapped_attribute(traced):
    originals, results = traced
    assert all(not result.problems for result in results)
    for path, original in originals.items():
        assert getattr(*spans.resolve(path)) is original, path


def test_self_times_are_non_negative_and_children_nest(traced):
    _, results = traced
    for result in results:
        tracer = result.tracer
        spans_by_index = {span.index: span for span in tracer.closed_spans()}
        assert len(spans_by_index) > 0
        for span in spans_by_index.values():
            if span.parent is None:
                continue
            parent = spans_by_index[span.parent]
            assert parent.start <= span.start and span.end <= parent.end, (span, parent)
            assert span.op == parent.op
        assert min(tracer.self_times().values()) >= -1e-9
        assert all(row["self_ms"] >= 0 for row in result.layers.values())


@pytest.mark.parametrize(
    "path",
    ["repro.dsp.peakdetect.PeakDetector.no_such_method", "repro.no_such_module.function"],
)
def test_unresolvable_entry_point_fails_with_its_dotted_path(path):
    first = spans.ENTRIES[0]
    original = getattr(*spans.resolve(first.path))
    tracer = spans.Tracer(spans.ENTRIES + (spans.Entry("bogus", path),))
    with pytest.raises(spans.EntryPointError, match=re.escape(path)):
        tracer.install()
    assert getattr(*spans.resolve(first.path)) is original
