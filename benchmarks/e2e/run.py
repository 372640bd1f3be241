"""End-to-end benchmark of the MedSen reproduction.

One command runs everything::

    python3 benchmarks/e2e/run.py                      # all workloads, one subprocess each
    python3 benchmarks/e2e/run.py --workload session --seed 7
    python3 benchmarks/e2e/run.py --workload stream --trace 1 --trace-dir out
    python3 benchmarks/e2e/run.py --repeat 5           # medians, quartiles, spread vs bound
    python3 benchmarks/e2e/run.py --write-pins         # regenerate pins.json

Every metric prints as ``workload metric value unit n``; a run with
``--workload`` ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``) and exits non-zero when any output check
fails.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` is a separate run that wraps each
layer's entry points (``spans.py``) and reports the per-layer metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAMES = ("session", "long_capture", "stream", "fleet")
PIN_SEEDS = (1, 2, 3)


def use_program_source() -> None:
    """Put the checkout's ``src`` on the path, or stop with an error."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str], Dict[str, float]]:
    """(end-to-end units, per-layer units, end-to-end bounds) by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        {m["name"]: m["bound"] for m in spec["end_to_end"]},
    )


@dataclass
class Measurement:
    workload: str
    metrics: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    tracer: object = None
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: printed but not gated: ``name -> (value, unit, n)``
    info: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)


def load_pins(path: Path) -> Dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    pins_path: Optional[Path] = None,
) -> Measurement:
    """Set up, run and check one workload in this process."""
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name](seed, smoke=smoke)
    setups: List[float] = []
    deployment = None
    for _ in range(workloads.SETUP_REPEATS):
        if deployment is not None:
            workload.retire(deployment)
        began = time.perf_counter()
        deployment = workload.setup()
        setups.append(time.perf_counter() - began)
    result = Measurement(workload=name)
    try:
        if trace:
            # Both halves replay the same inputs, so the traced half's
            # slowdown is the tracing overhead.
            base = workload.run(deployment, seconds / 2, None)
            tracer = Tracer()
            with tracer:
                timed = workload.run(deployment, seconds / 2, tracer)
            phases = [base, timed]
            result.tracer = tracer
            result.layers = tracer.layer_table()
            result.metrics = per_layer_metrics(tracer, result.layers, base, timed)
        else:
            timed = workload.run(deployment, seconds, None)
            phases = [timed]
        result.problems = workload.check(
            deployment, phases, load_pins(pins_path or workloads.PINS_PATH)
        )
    finally:
        workload.teardown(deployment)
    result.attempted = sum(len(phase.latencies_s) for phase in phases)
    result.failed = sum(phase.failed for phase in phases) + len(result.problems)
    result.info["failed_ratio"] = (result.failed / max(result.attempted, 1), "ratio", result.attempted)
    if not trace:
        latencies = timed.latencies_s
        completed = sum(1 for value in latencies if math.isfinite(value))
        result.metrics = {
            "setup_s": (statistics.median(setups), len(setups)),
            "latency_p50_ms": (1e3 * workloads.percentile(latencies, 0.50), len(latencies)),
            "ops_per_s": (completed / timed.wall_s, completed),
            "peak_rss_mb": (workloads.peak_rss_mb(), 1),
        }
        # Too few ops lie beyond p90 (4 to ~90 per run) to gate it.
        result.info["latency_p90_ms"] = (
            1e3 * workloads.percentile(latencies, 0.90), "ms", len(latencies)
        )
    return result


def per_layer_metrics(tracer, layers, base, timed) -> Dict[str, Tuple[float, int]]:
    import workloads
    from spans import LAYERS, OP

    n = len(timed.latencies_s)
    ops = max(n, 1)
    counters = tracer.counters

    def per_op(key: str) -> float:
        return counters.get(key, 0.0) / ops

    def ratio(numerator: str, denominator: str) -> float:
        den = counters.get(denominator, 0.0)
        return counters.get(numerator, 0.0) / den if den else 0.0

    values: Dict[str, float] = {}
    for layer in LAYERS:
        for key in ("calls", "self_ms", "share"):
            values[f"{layer}.{key}"] = layers[layer][key]
    values.update(
        {
            "microfluidics.schedule_arrivals.arrivals": per_op("microfluidics.schedule_arrivals.arrivals"),
            "hardware.acquire.samples": per_op("hardware.acquire.samples"),
            "dsp.recording.encode.bytes": per_op("dsp.recording.encode.bytes"),
            "dsp.recording.compress.ratio": ratio(
                "dsp.recording.compress.out_bytes", "dsp.recording.compress.raw_bytes"
            ),
            "dsp.detect.peaks": per_op("dsp.detect.peaks"),
            "crypto.decrypt.anomalous_ratio": ratio("crypto.decrypt.anomalous", "crypto.decrypt.observed"),
            "auth.authenticate.accept_ratio": ratio(
                "auth.authenticate.accepted", "auth.authenticate.attempts"
            ),
            "crypto.keystream.bytes": per_op("crypto.keystream.bytes"),
            "fleet.transport.encode_frame.bytes": per_op("fleet.transport.encode_frame.bytes"),
            "fleet.transport.decode_frame.bytes": per_op("fleet.transport.decode_frame.bytes"),
            "fleet.shard_rtt.p50_ms": 1e3 * workloads.percentile(tracer.durations("fleet.shard_rtt"), 0.50),
            "fleet.shard_rtt.p90_ms": 1e3 * workloads.percentile(tracer.durations("fleet.shard_rtt"), 0.90),
            "fleet.ship_ack.p50_ms": 1e3 * workloads.percentile(tracer.durations("fleet.ship_ack"), 0.50),
        }
    )
    for key in (
        "fleet.shard.queue_wait.p50_ms",
        "fleet.shard.queue_wait.p90_ms",
        "fleet.shard.session.p50_ms",
        "fleet.shed",
        "fleet.retried",
        "fleet.fenced",
        "fleet.auth_refused",
        "fleet.entries_shipped",
    ):
        values[key] = float(timed.extras.get(key, 0.0))
    values["loadgen.late.p99_ms"] = 1e3 * workloads.percentile(timed.late_s, 0.99)
    # Op k of each half has the same input (the fleet: the same arrival
    # time and tenant), so the median paired ratio is the overhead.
    ratios = [
        traced / plain
        for traced, plain in zip(timed.latencies_s, base.latencies_s)
        if math.isfinite(traced) and math.isfinite(plain)
    ]
    values["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    values["trace.uncovered_ratio"] = layers[OP]["share"] + layers["core.run_diagnostic"]["share"]
    return {key: (value, n) for key, value in values.items()}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def emit(result: Measurement, trace: bool, trace_dir: Optional[Path]) -> int:
    e2e_units, layer_units, _ = declared_metrics()
    units = layer_units if trace else e2e_units
    missing = sorted(set(units) - set(result.metrics))
    undeclared = sorted(set(result.metrics) - set(units))
    if missing or undeclared:
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {undeclared}")
    for problem in result.problems:
        print(f"[{result.workload}] CHECK FAILED: {problem}", file=sys.stderr)
    for name, unit in units.items():
        value, n = result.metrics[name]
        print(f"{result.workload} {name} {value!r} {unit} {n}")
    for name, (value, unit, n) in result.info.items():
        print(f"{result.workload} {name} {value!r} {unit} {n}")
    if trace:
        overhead = result.metrics["trace.overhead_ratio"][0]
        uncovered = result.metrics["trace.uncovered_ratio"][0]
        if overhead > 1.10 or (result.workload == "session" and uncovered > 0.05):
            print(
                f"[{result.workload}] trace validity: overhead {overhead:.3f} "
                f"(limit 1.10), uncovered {uncovered:.3f} (limit 0.05 on session)",
                file=sys.stderr,
            )
    if trace and trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{result.workload}.trace.json").write_text(
            json.dumps(result.tracer.chrome_trace())
        )
        (trace_dir / f"{result.workload}.layers.json").write_text(
            json.dumps(
                {
                    "layers": result.layers,
                    "counters": result.tracer.counters,
                    "metrics": {k: v for k, (v, _) in result.metrics.items()},
                },
                indent=1,
                sort_keys=True,
            )
        )
    correct = not result.problems and result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name][0], "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Several workloads: one subprocess each
# ---------------------------------------------------------------------------
def child_command(args, name: str, seed: int) -> List[str]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
    if args.seconds is not None:
        command += ["--seconds", repr(args.seconds)]
    command += ["--trace", str(args.trace)]
    if args.trace_dir is not None:
        command += ["--trace-dir", str(args.trace_dir)]
    if args.smoke:
        command.append("--smoke")
    if args.pins is not None:
        command += ["--pins", str(args.pins)]
    return command


def run_child(args, name: str, seed: int) -> Tuple[int, Optional[Dict]]:
    process = subprocess.run(
        child_command(args, name, seed), stdout=subprocess.PIPE, text=True, check=False
    )
    lines = process.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1])
        result = None
    return process.returncode, result


def run_all(args, names, seed: int) -> int:
    status = 0
    for name in names:
        code, _ = run_child(args, name, seed)
        status = status or code
    return status


def repeat(args, names, base_seed: int) -> int:
    _, _, bounds = declared_metrics()
    values: Dict[Tuple[str, str], List[float]] = {}
    failed: Dict[str, List[int]] = {name: [] for name in names}
    status = 0
    for round_index in range(args.repeat):
        order = names if round_index % 2 == 0 else tuple(reversed(names))
        for name in order:
            code, result = run_child(args, name, base_seed + round_index)
            status = status or code
            if result is None:
                continue
            failed[name].append(result["failed"])
            for metric, entry in result["metrics"].items():
                values.setdefault((name, metric), []).append(entry["value"])
    print(f"\n{'workload':13} {'metric':16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for (name, metric), series in sorted(values.items()):
        if len(series) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2 if q2 else math.inf
        bound = bounds.get(metric)
        flag = "  WIDER THAN BOUND" if bound is not None and spread > bound else ""
        print(f"{name:13} {metric:16} {q2:11.4f} {q1:11.4f} {q3:11.4f} {spread:7.3f} {bound!s:>6}{flag}")
    for name in names:
        print(f"{name:13} failed per run {failed[name]}")
    return status


def write_pins(args) -> int:
    import workloads

    path = args.pins or workloads.PINS_PATH
    pins = load_pins(path)
    names = [args.workload] if args.workload else ["session", "long_capture"]
    seeds = [args.seed] if args.seed is not None else list(PIN_SEEDS)
    for name in names:
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed, smoke=args.smoke)
            deployment = workload.setup()
            digests = [workload.digest(deployment, j) for j in range(workload.distinct)]
            pins.setdefault(workload.pins_key, {})[str(seed)] = digests
            print(f"pinned {workload.pins_key} seed {seed}: {len(digests)} inputs", flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, help="write <workload>.trace.json and .layers.json here")
    parser.add_argument("--repeat", type=int, default=0, help="run N times, report spreads")
    parser.add_argument("--write-pins", action="store_true")
    parser.add_argument("--pins", type=Path, help="pins file (default benchmarks/e2e/pins.json)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.trace_dir is not None:
        args.trace = 1
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread per process (shards inherit it): on two cores the
    # spinning OpenBLAS helper threads of a shard made fleet latency
    # jump between two levels ~50% apart from run to run.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    use_program_source()
    if args.write_pins:
        return write_pins(args)
    seed = 1 if args.seed is None else args.seed
    names = (args.workload,) if args.workload else NAMES
    if args.repeat:
        return repeat(args, names, seed)
    if args.workload is None:
        return run_all(args, names, seed)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    result = measure(
        args.workload, seed, seconds, bool(args.trace), smoke=args.smoke, pins_path=args.pins
    )
    return emit(result, bool(args.trace), args.trace_dir)


if __name__ == "__main__":
    sys.exit(main())
