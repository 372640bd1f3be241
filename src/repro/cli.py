"""Command-line interface: ``python -m repro <command>``.

Fifteen subcommands cover the workflows a bench scientist or security
reviewer would reach for first:

* ``demo``      — one full secure diagnostic session, verbose
  (``--report`` writes a Markdown session report, ``--trace-out``
  a Chrome-trace JSON of the session's spans).
* ``stats``     — run an instrumented session and print the span
  tree, metrics table, and audit event log (``--trace-out`` /
  ``--events-out`` export Chrome-trace JSON / JSONL;
  ``--folded-out`` writes the span tree as folded stacks for a
  flame graph).
* ``keysize``   — Eq. 2 key-length calculator.
* ``attacks``   — run the eavesdropper suite against a fresh capture.
* ``selftest``  — electrode-array self-test with optional injected
  faults (``--dead/--weak/--stuck``).
* ``serve``     — multi-tenant serving fleet over a synthetic clinic
  workload: worker pool, fair queue, retry/breaker
  (``--smoke`` runs the small CI check).
* ``chaos``     — seeded fault-injection campaign across every layer,
  including the in-process replication phase, checking the resilience
  invariants.
* ``harden``    — adversarial hardening campaign: protocol fuzzing,
  garbage admission, replay/freshness, envelope tampering, and auth
  lockout invariants.
* ``fleet``     — multi-process sharded cloud tier campaign:
  bit-identity vs the single-process scheduler, telemetry roll-up,
  shard kill/restart with journal recovery, garbage-frame containment,
  typed load shedding, and a heavy-tailed load replay (``--phases``
  picks a subset).
* ``stream``    — disconnection-tolerance drill for the streaming
  lane: chunked bit-identity, disconnect/resume, mid-stream key
  rotation, congestion backoff, and watchdog reaping.
* ``failover``  — replicated-partition drill: journal-shipped
  standbys, SIGKILL of a loaded primary, lease-fenced promotion with
  zero acked loss, stale-epoch fencing, stream resume on the promoted
  standby, and anti-entropy rejoin.
* ``figures``   — regenerate the paper's evaluation figures as SVG.
* ``alphabet``  — password-space statistics for the default alphabet.
* ``top``       — run an instrumented fleet and render the telemetry
  dashboard: SLO burn rates, counters, and quantile sketches
  (``--shards N`` runs the traffic through N shard processes and
  renders the cross-shard roll-up: summed counters, bucket-merged
  quantile sketches — never averaged percentiles).
* ``bench``     — run the benchmark trajectory and write versioned
  ``BENCH_<area>.json`` artifacts (``--check`` gates against the
  committed baseline).

The five seeded drills (``chaos``, ``harden``, ``fleet``, ``stream``,
``failover``) come from one table, :data:`DRILLS`, and share one
runner: each takes ``--seed``, ``--smoke`` (the small fixed CI gate)
and ``--metrics``, and exits 1 when any invariant fails.
``stats``, ``serve`` and the drills accept ``--trace-out`` /
``--events-out`` to export their runs as Chrome-trace JSON and JSONL
audit events.
"""

import argparse
import sys
from typing import List, Optional

from repro._util.errors import MedSenError
from repro.telemetry.bench import DEFAULT_AREAS as _BENCH_DEFAULT_AREAS


def _run_instrumented_session(seed: int, duration_s: float, concentration: float):
    """One observed diagnostic session (shared by demo/stats)."""
    from repro import CytoIdentifier, MedSenSession, Sample
    from repro.obs import EventLog, MetricsRegistry, Observer
    from repro.particles import BLOOD_CELL

    observer = Observer(metrics=MetricsRegistry(), events=EventLog())
    session = MedSenSession(rng=seed, observer=observer)
    identifier = CytoIdentifier(session.config.alphabet, (2, 1))
    session.authenticator.register("demo-user", identifier)
    blood = Sample.from_concentrations({BLOOD_CELL: concentration}, volume_ul=10)
    result = session.run_diagnostic(
        blood, identifier, duration_s=duration_s, rng=seed + 1
    )
    return result, observer


def _export_observability(observer, trace_out, events_out) -> None:
    """Honour ``--trace-out`` / ``--events-out`` for an observed run."""
    if trace_out:
        path = observer.tracer.write_chrome_trace(trace_out)
        print(f"trace written: {path}")
    if events_out:
        from repro.obs import JsonlFileSink

        with JsonlFileSink(events_out) as sink:
            for event in observer.events.events:
                sink.emit(event)
        print(f"events written: {events_out}")


def _cmd_demo(args: argparse.Namespace) -> int:
    result, observer = _run_instrumented_session(
        args.seed, args.duration, args.concentration
    )
    truth = result.capture.ground_truth
    print(f"particles arrived:   {truth.total_arrived}")
    print(f"ciphertext peaks:    {result.relay.report.count}")
    print(f"decrypted count:     {result.decryption.total_count}")
    print(f"authenticated:       {result.auth.user_id}")
    print(f"diagnosis:           {result.diagnosis.label} "
          f"({result.diagnosis.concentration_per_ul:.0f}/µL)")
    print(f"notification:        {result.notification().render()}")
    print(f"processing time:     {result.timing.processing_s:.3f} s")
    if args.report:
        from repro.report import write_session_report

        path = write_session_report(result, args.report)
        print(f"report written:      {path}")
    if args.trace_out:
        path = observer.tracer.write_chrome_trace(args.trace_out)
        print(f"trace written:       {path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import (
        folded_from_tracer,
        format_event_log,
        format_metrics_table,
        format_span_tree,
    )

    result, observer = _run_instrumented_session(
        args.seed, args.duration, args.concentration
    )
    print("=== span tree ===")
    print(format_span_tree(observer.tracer))
    print()
    print("=== metrics ===")
    print(format_metrics_table(observer.metrics))
    print()
    print("=== audit events ===")
    print(format_event_log(observer.events, limit=args.events))
    print()
    print(f"session outcome: auth={result.auth.accepted} "
          f"diagnosis={result.diagnosis.label} "
          f"recovered_count={result.decryption.total_count}")
    _export_observability(observer, args.trace_out, args.events_out)
    if args.folded_out:
        with open(args.folded_out, "w", encoding="utf-8") as handle:
            handle.write(folded_from_tracer(observer.tracer) + "\n")
        print(f"folded stacks written: {args.folded_out}")
    return 0


def _cmd_keysize(args: argparse.Namespace) -> int:
    from repro.crypto.key import eq2_bits_per_unit, eq2_key_length_bits

    bits = eq2_key_length_bits(args.cells, args.electrodes, args.gain_bits, args.flow_bits)
    per_unit = eq2_bits_per_unit(args.electrodes, args.gain_bits, args.flow_bits)
    print(f"bits per cell: {per_unit}")
    print(f"total key:     {bits:,} bits ({bits / 8 / 1e6:.3f} MB)")
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from repro.attacks import (
        AmplitudeClusteringAttack,
        DivideByExpectationAttack,
        FeatureClusteringAttack,
        NaivePeakCountAttack,
        PeriodicTrainAttack,
        WidthClusteringAttack,
        score_count_attack,
    )
    from repro.attacks.scenarios import encrypted_capture

    true_count, report, knowledge = encrypted_capture(args.seed)
    print(f"true particles: {true_count}; ciphertext peaks: {report.count}")
    attacks = [
        NaivePeakCountAttack(),
        DivideByExpectationAttack(assume_avoid_consecutive=True),
        AmplitudeClusteringAttack(),
        WidthClusteringAttack(),
        PeriodicTrainAttack(),
        FeatureClusteringAttack(),
    ]
    for attack in attacks:
        estimate = attack.estimate_count(report, knowledge)
        error = score_count_attack(estimate, true_count)
        print(f"{attack.name:<24} estimate={estimate:8.1f}  error={error:.2f}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.hardware.electrodes import standard_array
    from repro.hardware.faults import FaultModel, self_test

    array = standard_array(args.outputs)
    fault_model = FaultModel(
        dead_electrodes=frozenset(args.dead),
        weak_electrodes=frozenset(args.weak),
        stuck_on_electrodes=frozenset(args.stuck),
    )
    report = self_test(array, fault_model, rng=args.seed)
    for entry in report.electrodes:
        print(
            f"electrode {entry.electrode}: {entry.verdict:<6} "
            f"(dips {entry.observed_dips}/{entry.expected_dips}, "
            f"depth {entry.mean_depth:.5f})"
        )
    if report.healthy:
        print("array healthy")
        return 0
    print(f"faults detected: {report.faulty_electrodes()}")
    return 1


def _cmd_alphabet(args: argparse.Namespace) -> int:
    from repro.attacks.bruteforce import bruteforce_expected_attempts
    from repro.auth.alphabet import DEFAULT_ALPHABET
    from repro.auth.collision import (
        level_confusion_probability,
        password_space_entropy_bits,
        password_space_size,
    )

    alphabet = DEFAULT_ALPHABET
    print(f"bead types: {[t.name for t in alphabet.bead_types]}")
    print(f"levels (particles/µL): {alphabet.levels_per_ul}")
    print(f"password space: {password_space_size(alphabet)} "
          f"({password_space_entropy_bits(alphabet):.1f} bits)")
    print(f"expected brute-force submissions: "
          f"{bruteforce_expected_attempts(alphabet):.0f}")
    for level in range(alphabet.n_levels):
        p = level_confusion_probability(alphabet, level, args.volume)
        print(f"level {level} confusion at {args.volume} µL: {p:.4f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import (
        EventLog,
        MetricsRegistry,
        Observer,
        format_metrics_table,
    )
    from repro.serving import (
        ClinicWorkload,
        FleetConfig,
        FleetScheduler,
        run_clinic,
    )

    if args.smoke:
        # CI-friendly: tiny workload, exercise the failure-injection
        # and backpressure paths, exit non-zero on any anomaly.
        config = FleetConfig(
            seed=args.seed,
            n_workers=2,
            queue_capacity=8,
            drop_probability=0.05,
            duplicate_probability=0.05,
            deadline_s=30.0,
        )
        workload = ClinicWorkload(
            n_tenants=2, requests_per_tenant=2, duration_s=8.0
        )
    else:
        config = FleetConfig(
            seed=args.seed,
            n_workers=args.workers,
            queue_capacity=args.queue_capacity,
            drop_probability=args.drop,
            timeout_probability=args.timeout,
            duplicate_probability=args.duplicate,
            deadline_s=args.deadline,
        )
        workload = ClinicWorkload(
            n_tenants=args.tenants,
            requests_per_tenant=args.requests,
            duration_s=args.duration,
        )
    observer = Observer(metrics=MetricsRegistry(), events=EventLog())
    print(
        f"serving {workload.n_requests} sessions from {workload.n_tenants} "
        f"tenants on {config.n_workers} workers "
        f"(queue {config.queue_capacity})"
    )
    with FleetScheduler(config, observer=observer) as scheduler:
        report = run_clinic(scheduler, workload)
    print(report.format())
    if args.metrics:
        print()
        print(format_metrics_table(observer.metrics))
    _export_observability(observer, args.trace_out, args.events_out)
    if args.smoke:
        healthy = (
            report.n_completed + report.n_failed == workload.n_requests
            and report.n_completed >= workload.n_requests - 1
        )
        print("smoke:", "PASS" if healthy else "FAIL")
        return 0 if healthy else 1
    return 0


def _run_drill(args: argparse.Namespace) -> int:
    """Run one seeded drill (see :data:`DRILLS`) and render its report."""
    from repro.obs import EventLog, MetricsRegistry, Observer, format_metrics_table

    observer = Observer(metrics=MetricsRegistry(), events=EventLog())
    report = args.run(args, observer)
    print(report.format())
    if args.metrics:
        print()
        print(format_metrics_table(observer.metrics))
    _export_observability(observer, args.trace_out, args.events_out)
    return 0 if report.passed else 1


def _chaos(args: argparse.Namespace, observer):
    from repro.resilience import run_campaign

    campaign = "smoke" if args.smoke else args.campaign
    return run_campaign(seed=args.seed, campaign=campaign, observer=observer)


def _harden(args: argparse.Namespace, observer):
    from repro.guard.campaign import run_hardening

    return run_hardening(
        seed=args.seed,
        n_mutations=args.mutations,
        smoke=args.smoke,
        observer=observer,
    )


def _fleet(args: argparse.Namespace, observer):
    from repro.fleet import ALL_PHASES, run_fleet

    return run_fleet(
        seed=args.seed,
        n_shards=args.shards,
        smoke=args.smoke,
        phases=tuple(args.phases) if args.phases else ALL_PHASES,
        observer=observer,
    )


def _stream(args: argparse.Namespace, observer):
    from repro.stream import run_stream

    return run_stream(seed=args.seed, smoke=args.smoke, observer=observer)


def _failover(args: argparse.Namespace, observer):
    from repro.fleet import run_failover

    return run_failover(
        seed=args.seed,
        n_partitions=args.partitions,
        smoke=args.smoke,
        lease_ttl_s=args.lease_ttl,
        observer=observer,
    )


#: The seeded drills: ``(name, help, drill-specific arguments, run)``.
#: Each becomes one subcommand run by :func:`_run_drill`; ``--seed``,
#: ``--smoke``, ``--metrics``, ``--trace-out`` and ``--events-out`` come
#: from the shared parents.  CI runs each as ``<name> --smoke``.
DRILLS = (
    ("chaos", "seeded fault-injection campaign with resilience invariants", (
        ("--campaign", dict(type=str, default="smoke",
                            help="campaign name (see repro.resilience.CAMPAIGNS)")),
    ), _chaos),
    ("harden", "adversarial hardening campaign: fuzz + trust boundaries", (
        ("--mutations", dict(type=int, default=10_000,
                             help="fuzz mutations per parser")),
    ), _harden),
    ("fleet", "sharded cloud tier campaign: determinism, recovery, shedding", (
        ("--shards", dict(type=int, default=2, help="worker shard processes")),
        ("--phases", dict(type=str, nargs="*", default=None,
                          help="phase subset (default: all; see repro.fleet.ALL_PHASES)")),
    ), _fleet),
    ("stream",
     "disconnection-tolerance drill: streaming resume, rotation, congestion",
     (), _stream),
    ("failover", "replicated-partition drill: SIGKILL failover, fencing, rejoin", (
        ("--partitions", dict(type=int, default=2,
                              help="replicated partitions (one primary+standby pair each)")),
        ("--lease-ttl", dict(type=float, default=0.3,
                             help="primary lease TTL (s); bounds promotion MTTR")),
    ), _failover),
)


def _cmd_top_sharded(args: argparse.Namespace) -> int:
    """``top --shards N``: clinic traffic through N shard processes,
    then the cross-shard telemetry roll-up.

    :func:`~repro.fleet.rollup_telemetry` sums counters, merges
    histograms bucket by bucket and namespaces gauges per shard.
    """
    import asyncio
    import time

    from repro.core.config import MedSenConfig
    from repro.fleet import (
        AsyncFrontDoor,
        FleetCluster,
        FleetTierConfig,
        rollup_telemetry,
    )
    from repro.serving import ClinicWorkload, FleetConfig
    from repro.telemetry import render_dashboard

    workload = ClinicWorkload(
        n_tenants=args.tenants,
        requests_per_tenant=args.requests,
        duration_s=args.duration,
        seed=args.seed,
    )
    shard_config = FleetConfig(
        seed=args.seed,
        n_workers=args.workers,
        queue_capacity=max(8, workload.n_requests),
    )
    tier = FleetTierConfig(
        n_shards=args.shards,
        shard=shard_config,
        max_inflight=max(8, workload.n_requests),
    )
    started = time.monotonic()
    with FleetCluster(tier) as cluster:
        door = AsyncFrontDoor(cluster)

        async def run() -> None:
            identifiers = workload.identifiers(MedSenConfig())
            for tenant, identifier in identifiers.items():
                await door.register_tenant(tenant, identifier)
            coros = []
            for sequence in range(workload.requests_per_tenant):
                for tenant_index, tenant in enumerate(workload.tenant_ids()):
                    coros.append(
                        door.submit(
                            tenant,
                            workload.blood_sample(tenant_index, sequence),
                            identifiers[tenant],
                            duration_s=workload.duration_s,
                        )
                    )
            await asyncio.gather(*coros, return_exceptions=True)

        asyncio.run(run())
        snapshots = cluster.telemetry()
        healths = cluster.health()
    elapsed = time.monotonic() - started
    print(render_dashboard(rollup_telemetry(snapshots), None, now_s=elapsed))
    print()
    lane = ", ".join(
        f"{sid}:{health.completed}" for sid, health in sorted(healths.items())
    )
    print(
        f"fleet: {door.completed}/{workload.n_requests} completed over "
        f"{args.shards} shards ({lane}), "
        f"{door.completed / elapsed:.2f} sessions/s"
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import EventLog, MetricsRegistry
    from repro.serving import ClinicWorkload, FleetConfig, FleetScheduler, run_clinic
    from repro.telemetry import TelemetryObserver, render_observer

    if args.shards > 0:
        return _cmd_top_sharded(args)
    observer = TelemetryObserver(metrics=MetricsRegistry(), events=EventLog())
    config = FleetConfig(
        seed=args.seed,
        n_workers=args.workers,
        queue_capacity=max(8, args.tenants * args.requests),
    )
    workload = ClinicWorkload(
        n_tenants=args.tenants,
        requests_per_tenant=args.requests,
        duration_s=args.duration,
        seed=args.seed,
    )
    observer.tick()
    with FleetScheduler(config, observer=observer) as scheduler:
        report = run_clinic(scheduler, workload)
    observer.tick()
    print(render_observer(observer))
    print()
    print(
        f"fleet: {report.n_completed}/{workload.n_requests} completed, "
        f"{report.sessions_per_second:.2f} sessions/s"
    )
    worst = observer.engine.worst_state()
    if args.strict and worst == "page":
        print("telemetry: PAGE")
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.telemetry import run_benchmarks

    outcome = run_benchmarks(
        areas=tuple(args.areas),
        quick=args.quick,
        bench_dir=args.bench_dir,
        out_dir=args.out_dir,
        baseline_dir=(args.baseline_dir or args.out_dir) if args.check else None,
    )
    for area, path in sorted(outcome["artifacts"].items()):
        print(f"{area} -> {path}")
    regressions = outcome["regressions"]
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond tolerance:")
        for regression in regressions:
            print(f"  {regression.format()}")
        return 1
    if args.check:
        print("bench gate: PASS")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.plots import generate_all_figures

    written = generate_all_figures(args.output)
    for name, path in sorted(written.items()):
        print(f"{name} -> {path}")
    return 0


def _observability_parent() -> argparse.ArgumentParser:
    """Shared ``--trace-out`` / ``--events-out`` flags for observed runs.

    ``stats``, ``serve`` and every drill export their runs the same way
    with the same help text (``demo`` keeps its bespoke trace-only flag).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace-out", type=str, default=None,
                        help="write Chrome-trace JSON of the run's spans")
    parent.add_argument("--events-out", type=str, default=None,
                        help="write the audit event log as JSONL")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MedSen reproduction: secure point-of-care diagnostics",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    obs_parent = _observability_parent()
    drill_parent = argparse.ArgumentParser(add_help=False, parents=[obs_parent])
    drill_parent.add_argument("--seed", type=int, default=0)
    drill_parent.add_argument("--smoke", action="store_true",
                              help="small fixed run; exit 1 on any violation (CI gate)")
    drill_parent.add_argument("--metrics", action="store_true",
                              help="print the metrics table after the run")

    demo = subparsers.add_parser("demo", help="run one full secure session")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--duration", type=float, default=60.0)
    demo.add_argument("--concentration", type=float, default=400.0,
                      help="true marker concentration (cells/µL)")
    demo.add_argument("--report", type=str, default=None,
                      help="write a Markdown session report to this path")
    demo.add_argument("--trace-out", type=str, default=None,
                      help="write Chrome-trace JSON of the session's spans")
    demo.set_defaults(handler=_cmd_demo)

    stats = subparsers.add_parser(
        "stats",
        parents=[obs_parent],
        help="instrumented session: span tree + metrics + audit log",
    )
    stats.add_argument("--seed", type=int, default=42)
    stats.add_argument("--duration", type=float, default=20.0)
    stats.add_argument("--concentration", type=float, default=400.0,
                       help="true marker concentration (cells/µL)")
    stats.add_argument("--events", type=int, default=30,
                       help="audit events to print (0 = all retained)")
    stats.add_argument("--folded-out", type=str, default=None,
                       help="write the span tree as folded stacks for "
                            "flamegraph.pl/speedscope")
    stats.set_defaults(handler=_cmd_stats)

    keysize = subparsers.add_parser("keysize", help="Eq. 2 key-length calculator")
    keysize.add_argument("--cells", type=int, default=20_000)
    keysize.add_argument("--electrodes", type=int, default=16)
    keysize.add_argument("--gain-bits", type=int, default=4)
    keysize.add_argument("--flow-bits", type=int, default=4)
    keysize.set_defaults(handler=_cmd_keysize)

    attacks = subparsers.add_parser("attacks", help="eavesdropper suite")
    attacks.add_argument("--seed", type=int, default=2024)
    attacks.set_defaults(handler=_cmd_attacks)

    selftest = subparsers.add_parser("selftest", help="electrode self-test")
    selftest.add_argument("--outputs", type=int, default=9, choices=(2, 3, 5, 9, 16))
    selftest.add_argument("--dead", type=int, nargs="*", default=[])
    selftest.add_argument("--weak", type=int, nargs="*", default=[])
    selftest.add_argument("--stuck", type=int, nargs="*", default=[])
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(handler=_cmd_selftest)

    serve = subparsers.add_parser(
        "serve",
        parents=[obs_parent],
        help="run a multi-tenant serving fleet over a clinic workload",
    )
    serve.add_argument("--seed", type=int, default=2016)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--tenants", type=int, default=4)
    serve.add_argument("--requests", type=int, default=4,
                       help="requests per tenant")
    serve.add_argument("--duration", type=float, default=20.0,
                       help="capture duration per session (s)")
    serve.add_argument("--queue-capacity", type=int, default=64)
    serve.add_argument("--drop", type=float, default=0.0,
                       help="per-attempt drop probability on the uplink")
    serve.add_argument("--timeout", type=float, default=0.0,
                       help="per-attempt timeout probability on the uplink")
    serve.add_argument("--duplicate", type=float, default=0.0,
                       help="per-attempt duplicate-delivery probability")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request virtual-time deadline (s)")
    serve.add_argument("--metrics", action="store_true",
                       help="print the metrics table after the run")
    serve.add_argument("--smoke", action="store_true",
                       help="small fixed workload; exit 1 on anomalies (CI)")
    serve.set_defaults(handler=_cmd_serve)

    for name, help_text, arguments, run in DRILLS:
        drill = subparsers.add_parser(name, parents=[drill_parent], help=help_text)
        for flag, options in arguments:
            drill.add_argument(flag, **options)
        drill.set_defaults(handler=_run_drill, run=run)

    figures = subparsers.add_parser(
        "figures", help="regenerate the paper's figures as SVG files"
    )
    figures.add_argument("--output", type=str, default="figures")
    figures.set_defaults(handler=_cmd_figures)

    alphabet = subparsers.add_parser("alphabet", help="password-space statistics")
    alphabet.add_argument("--volume", type=float, default=0.16,
                          help="sampled volume in µL")
    alphabet.set_defaults(handler=_cmd_alphabet)

    top = subparsers.add_parser(
        "top", help="instrumented fleet run + telemetry dashboard (SLOs, quantiles)"
    )
    top.add_argument("--seed", type=int, default=2016)
    top.add_argument("--workers", type=int, default=2)
    top.add_argument("--tenants", type=int, default=2)
    top.add_argument("--requests", type=int, default=3,
                     help="requests per tenant")
    top.add_argument("--duration", type=float, default=8.0,
                     help="capture duration per session (s)")
    top.add_argument("--shards", type=int, default=0,
                     help="run the traffic through N shard processes and "
                          "render the merged cross-shard roll-up (0 = off)")
    top.add_argument("--strict", action="store_true",
                     help="exit 1 if any SLO is in the page state")
    top.set_defaults(handler=_cmd_top)

    bench = subparsers.add_parser(
        "bench", help="run the benchmark trajectory; write BENCH_<area>.json"
    )
    bench.add_argument("--areas", type=str, nargs="*",
                       default=list(_BENCH_DEFAULT_AREAS),
                       help="bench areas (bench_<area>.py with a collect())")
    bench.add_argument("--quick", action="store_true",
                       help="reduced workloads (CI)")
    bench.add_argument("--out-dir", type=str, default=".",
                       help="directory for the BENCH_*.json artifacts")
    bench.add_argument("--bench-dir", type=str, default=None,
                       help="benchmarks directory (default: repo's benchmarks/)")
    bench.add_argument("--check", action="store_true",
                       help="compare against committed baselines; exit 1 on regression")
    bench.add_argument("--baseline-dir", type=str, default=None,
                       help="baseline directory for --check (default: --out-dir)")
    bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MedSenError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
