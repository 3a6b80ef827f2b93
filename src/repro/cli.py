"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the quickstart scenario (basic metadata ops);
* ``spotify`` — a miniature Figure 8(a): λFS vs HopsFS under the
  bursty industrial workload, with throughput plots;
* ``scaling`` — one client-scaling comparison point per system;
* ``table3`` — the subtree-mv latency table;
* ``replay`` — replay an audit-log trace file;
* ``telemetry`` — a telemetry-instrumented microbenchmark rendering
  the sim-time metrics dashboard (fleet size, RPC mix, cache rates);
* ``profile`` — critical-path profiling: ``run`` a profiled
  microbenchmark (attribution report + Perfetto/flamegraph exports),
  ``diff`` two profile.json files stage-by-stage, ``export`` from a
  spans dump;
* ``chaos`` — deterministic fault injection, the one scenario
  pipeline: ``run`` one scenario (built-in name or JSON file) under
  load in its family's run shape and verify recovery (``--detect``
  adds online alerting + the detection gate, ``--out`` writes the
  incident report and telemetry); ``matrix --family F`` runs one
  regression family, writes ``BENCH_<F>.json`` with ``--bench-json``
  and fails on any drift from it with ``--baseline``;
* ``incidents`` — offline alerting + root-cause attribution:
  ``analyze`` a telemetry JSONL export, ``rules`` the alert-rule
  catalog;
* ``tenants`` — the default tenant cast through the no-fault
  ``control`` scenario: per-tenant dashboard, fairness report and
  verifier verdict;
* ``bench`` — wall-clock benchmarks of the toolkit itself: ``kernel``
  measures raw simulator events/sec + peak RSS at 1k/10k/100k client
  scales, with ``--baseline`` regression gating against a committed
  BENCH_kernel.json;
* ``experiments`` — list the experiment drivers and what they map to.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.report import tabulate


def _dump_json(path: str, doc, label: str = "bench json") -> None:
    import json

    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"\n{label}: {path}")


def _print_trace_summary(tracer) -> None:
    summary = tracer.summary()
    print(f"\ntrace: {summary['spans']} spans ({summary['points']} points), "
          f"{summary['events_hashed']} events hashed, "
          f"event hash {summary['event_hash']}, "
          f"{summary['violations']} invariant violation(s)")
    for violation in tracer.violations():
        print(f"  {violation}")


def _cmd_demo(args) -> int:
    from repro.core import LambdaFS
    from repro.sim import Environment

    env = Environment()
    tracer = None
    if args.trace:
        from repro.trace import install_tracer

        tracer = install_tracer(env)
    fs = LambdaFS(env)
    fs.format()
    fs.start()
    client = fs.new_client()

    def scenario(env):
        for op, path in (
            ("mkdirs", "/cli/demo"),
            ("create_file", "/cli/demo/file.txt"),
            ("stat", "/cli/demo/file.txt"),
            ("ls", "/cli/demo"),
            ("delete", "/cli/demo/file.txt"),
        ):
            response = yield from getattr(client, op)(path)
            print(f"{op:12s} {path:22s} ok={response.ok}")

    done = env.process(scenario(env))
    env.run(until=done)
    print(f"\nactive NameNodes: {fs.active_namenodes()}  "
          f"avg latency: {fs.metrics.average_latency():.2f} ms  "
          f"cost: ${fs.cost_usd():.6f}")
    if tracer is not None:
        _print_trace_summary(tracer)
    return 0


def _cmd_spotify(args) -> int:
    from repro.bench.experiments import fig8_spotify
    from repro.metrics.ascii_plot import line_plot

    runs = fig8_spotify(
        base_throughput=args.base,
        duration_ms=args.duration * 1000.0,
        clients=args.clients,
        systems=("lambda", "hopsfs"),
        trace=args.trace,
    )
    rows = [
        [run.name, run.avg_throughput, run.peak_throughput,
         run.avg_latency_ms, f"${run.final_cost_usd:.4f}"]
        for run in runs.values()
    ]
    print(tabulate(
        ["system", "avg ops/s", "peak ops/s", "avg lat (ms)", "cost"], rows
    ))
    print()
    print(line_plot({
        "λFS": runs["lambda"].throughput_timeline,
        "HopsFS": runs["hopsfs"].throughput_timeline,
    }))
    report = runs["lambda"].trace_report
    if report is not None:
        print(f"\ntrace: {report['spans']} spans, "
              f"event hash {report['event_hash']}, "
              f"{report['violations']} invariant violation(s)")
        for line in report["violation_detail"]:
            print(f"  {line}")
    return 0


def _cmd_scaling(args) -> int:
    from repro.bench.experiments import fig11_client_scaling
    from repro.core import OpType

    points = fig11_client_scaling(
        client_counts=(args.clients,),
        ops=(OpType.READ_FILE,),
        ops_per_client=args.ops,
        warmup_per_client=max(8, args.ops // 4),
    )
    print(tabulate(
        ["system", "clients", "ops/s", "servers", "cost"],
        [
            [p.system, p.clients, p.throughput, p.active_servers,
             f"${p.cost_usd:.4f}"]
            for p in points
        ],
    ))
    return 0


def _cmd_table3(args) -> int:
    from repro.bench.experiments import table3_subtree_mv

    rows = table3_subtree_mv(directory_sizes=tuple(args.sizes))
    print(tabulate(
        ["files", "HopsFS (ms)", "λFS (ms)", "λFS advantage"],
        [
            [r["files"], r["hopsfs"], r["lambda"],
             f"{(r['hopsfs'] - r['lambda']) / r['hopsfs'] * 100:.1f}%"]
            for r in rows
        ],
    ))
    return 0


def _cmd_replay(args) -> int:
    from repro.core import LambdaFS
    from repro.sim import Environment
    from repro.workloads import TraceReplayer, load_trace

    with open(args.trace) as handle:
        records = load_trace(handle)
    env = Environment()
    tracer = None
    if args.trace_spans:
        from repro.trace import install_tracer

        tracer = install_tracer(env)
    fs = LambdaFS(env)
    fs.format()
    fs.start()
    clients = [fs.new_client() for _ in range(args.clients)]
    warm = env.process((lambda g: (yield from g))(fs.prewarm(1)))
    env.run(until=warm)
    box = {}

    def main(env):
        box["r"] = yield from TraceReplayer(env, records).run(clients)

    done = env.process(main(env))
    env.run(until=done)
    result = box["r"]
    print(f"replayed {result.issued} ops "
          f"({result.succeeded} ok, {result.failed} failed) "
          f"in {result.duration_ms / 1000:.2f} s simulated "
          f"-> {result.throughput:,.0f} ops/s")
    print(f"avg latency {fs.metrics.average_latency():.2f} ms, "
          f"cost ${fs.cost_usd():.6f}, "
          f"NameNodes {fs.active_namenodes()}")
    if tracer is not None:
        _print_trace_summary(tracer)
    return 0


def _cmd_telemetry(args) -> int:
    """A Fig-11-style microbenchmark with full telemetry.

    A short prelude run by a few clients per VM establishes the
    shared TCP connections, so the measured phases' HTTP traffic is
    purely the deliberate replacement signal (§3.6) — the fleet
    timeline then scales out with ``--replacement`` instead of with
    the artefactual all-HTTP first-contact burst.  Phase 1 (reads)
    warms caches under that signal; a mid-run subtree mv (away and
    back) injects an invalidation storm so cache hit-rate gauges
    visibly dip; phase 2 re-reads under the cooled caches.  The
    sampled series are exported (JSONL/CSV/Prometheus) and rendered
    as a dashboard.
    """
    from repro.telemetry import read_jsonl, render_dashboard

    if args.load:
        print(render_dashboard(read_jsonl(args.load)))
        return 0

    from repro.bench.harness import build_lambdafs, drive
    from repro.core import OpType
    from repro.namespace.treegen import TreeSpec, generate_tree
    from repro.sim import Environment
    from repro.workloads import MicroBenchmark

    env = Environment()
    tree = generate_tree(TreeSpec(seed=args.seed))
    handle = build_lambdafs(
        env, tree,
        deployments=args.deployments,
        seed=args.seed,
        client_overrides={"replacement_probability": args.replacement},
        trace=args.trace,
        telemetry=True,
        telemetry_interval_ms=args.interval,
    )
    telemetry = handle.telemetry
    clients = handle.make_clients(args.clients)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=args.seed)
    # Connection prelude: a handful of clients (spanning every VM —
    # connections are VM-shared) touch every deployment so the fleet
    # the measured phases see is TCP-connected from op one.
    drive(env, bench.run(clients[:8], OpType.READ_FILE, 0, args.warmup))
    drive(env, bench.run(clients, OpType.READ_FILE, args.ops, 0))
    # Injected subtree invalidation: move a hot directory away and
    # back, blowing every deployment's cached entries beneath it.
    victim = tree.directories[1]

    def invalidate(env):
        yield from clients[0].mv(victim, victim + "_tmp")
        yield from clients[0].mv(victim + "_tmp", victim)

    drive(env, invalidate(env))
    drive(env, bench.run(clients, OpType.READ_FILE, args.ops, 0))
    telemetry.stop()
    print(telemetry.dashboard())
    if args.out:
        paths = telemetry.export(args.out)
        print("\nexports:")
        for kind in sorted(paths):
            print(f"  {kind:6s} {paths[kind]}")
    if handle.tracer is not None:
        _print_trace_summary(handle.tracer)
    return 0


def _run_profiled_micro(args):
    """Build a profiled λFS and run the standard profile workload.

    One read phase (cache-dominated) plus one create-file phase
    (store + coherence-dominated), after a TCP-connection prelude, so
    every stage of the taxonomy shows up in the attribution.  Returns
    ``(handle, profile)``.
    """
    from dataclasses import replace as _replace

    from repro.bench.harness import build_lambdafs, drive
    from repro.core import OpType
    from repro.metastore import NdbConfig
    from repro.namespace.treegen import TreeSpec, generate_tree
    from repro.sim import Environment
    from repro.workloads import MicroBenchmark

    ndb = None
    if args.slow_store != 1.0:
        base = NdbConfig()
        ndb = _replace(
            base,
            read_service_ms=base.read_service_ms * args.slow_store,
            write_service_ms=base.write_service_ms * args.slow_store,
            commit_service_ms=base.commit_service_ms * args.slow_store,
        )
    env = Environment()
    tree = generate_tree(TreeSpec(seed=args.seed))
    handle = build_lambdafs(
        env, tree,
        deployments=args.deployments,
        seed=args.seed,
        ndb=ndb,
        client_overrides={"replacement_probability": args.replacement},
        profile=True,
    )
    clients = handle.make_clients(args.clients)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=args.seed)
    drive(env, bench.run(clients[:8], OpType.READ_FILE, 0, args.warmup))
    drive(env, bench.run(clients, OpType.READ_FILE, args.ops, 0))
    drive(env, bench.run(clients, OpType.CREATE_FILE, max(1, args.ops // 4), 0))
    return handle, handle.profiler.analyze()


def _cmd_profile(args) -> int:
    import os

    from repro.profile import (
        Profile,
        diff_profiles,
        dump_spans,
        format_diff,
        format_report,
        load_spans,
        analyze_spans,
        write_chrome_trace,
        write_folded_stacks,
    )

    if args.profile_command == "run":
        handle, profile = _run_profiled_micro(args)
        print(format_report(profile, top=args.top))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            tracer = handle.tracer
            paths = {
                "profile": profile.save(os.path.join(args.out, "profile.json")),
                "chrome": write_chrome_trace(
                    tracer.spans.values(),
                    os.path.join(args.out, "trace.chrome.json"),
                ),
                "folded": write_folded_stacks(
                    profile, os.path.join(args.out, "stacks.folded")
                ),
                "spans": dump_spans(
                    tracer.spans.values(),
                    os.path.join(args.out, "spans.jsonl"),
                ),
            }
            print("\nexports:")
            for kind in sorted(paths):
                print(f"  {kind:8s} {paths[kind]}")
        if args.bench_json:
            _dump_json(args.bench_json, {
                "version": 1,
                "event_hash": handle.tracer.event_hash(),
                "ops": profile.to_dict()["summary"],
            })
        _print_trace_summary(handle.tracer)
        return 0

    if args.profile_command == "diff":
        before = Profile.load(args.before)
        after = Profile.load(args.after)
        diff = diff_profiles(
            before, after,
            rel_threshold=args.threshold, min_ms=args.min_ms,
        )
        print(format_diff(diff, verbose=args.verbose))
        return 1 if diff.regressions() else 0

    if args.profile_command == "export":
        spans = load_spans(args.spans)
        os.makedirs(args.out, exist_ok=True)
        profile = analyze_spans(spans)
        chrome = write_chrome_trace(
            spans, os.path.join(args.out, "trace.chrome.json")
        )
        folded = write_folded_stacks(
            profile, os.path.join(args.out, "stacks.folded"), by=args.by
        )
        print(f"chrome trace: {chrome}\nfolded stacks: {folded}")
        print(f"({len(profile.ops)} completed op(s) attributed)")
        return 0

    raise ValueError(f"unknown profile subcommand {args.profile_command!r}")


def _chaos_run_config(args, family: Optional[str]):
    """``family``'s run shape (the default one for None), overridden by
    every knob set on the command line.  Knobs are stored under their
    :class:`~repro.chaos.ChaosRunConfig` field names."""
    from dataclasses import fields, replace

    from repro.chaos import FAMILIES, ChaosRunConfig

    base = FAMILIES[family].config if family else ChaosRunConfig()
    changes = {
        f.name: getattr(args, f.name) for f in fields(base)
        if getattr(args, f.name, None) is not None
    }
    if args.window is not None:
        changes["slo"] = replace(base.slo, window_ms=args.window)
    return replace(base, **changes)


def _cmd_chaos_run(args) -> int:
    from repro.chaos import (
        builtin_scenarios,
        family_of,
        get_scenario,
        load_scenario,
        run_scenario,
    )

    if args.list:
        rows = [
            [s.name, family_of(s.name) or "-", len(s.faults),
             f"{s.clear_ms / 1000:.1f}s", s.description]
            for s in builtin_scenarios().values()
        ]
        print(tabulate(
            ["scenario", "family", "faults", "clear", "description"], rows
        ))
        return 0
    if args.file:
        scenario = load_scenario(args.file)
    elif args.scenario:
        try:
            scenario = get_scenario(args.scenario)
        except KeyError as exc:
            print(f"{exc.args[0]} (try: repro chaos run --list)",
                  file=sys.stderr)
            return 2
    else:
        print("need a scenario name or --file (or --list)", file=sys.stderr)
        return 2
    result = run_scenario(
        scenario, _chaos_run_config(args, family_of(scenario.name))
    )
    print(result.summary())
    print(result.report.render())
    injections = [e for e in result.engine.log if e.action == "inject"]
    print(f"fault log: {len(result.engine.log)} event(s), "
          f"{len(injections)} injection(s), hash {result.log_hash}")
    if result.incidents is not None:
        print()
        print(result.incidents.render())
    if args.verbose:
        for event in result.engine.log:
            print(f"  {event}")
    if args.out:
        import os

        from repro.telemetry.export import write_jsonl

        os.makedirs(args.out, exist_ok=True)
        paths = []
        if result.incidents is not None:
            paths.append(result.incidents.save(
                os.path.join(args.out, "incidents.json")
            ))
            paths.append(os.path.join(args.out, "incidents.md"))
            with open(paths[-1], "w") as handle:
                handle.write(result.incidents.render_markdown())
        if result.telemetry is not None:
            paths.append(os.path.join(args.out, "telemetry.jsonl"))
            write_jsonl(result.telemetry.timeseries, paths[-1])
        print("\nexports:")
        for path in paths:
            print(f"  {path}")
    return 0 if result.passed else 1


def _cmd_chaos_matrix(args) -> int:
    import json

    from repro.chaos import (
        FAMILIES,
        baseline_drift,
        get_scenario,
        run_matrix,
        scenario_record,
    )

    family = args.family
    config = _chaos_run_config(args, family)
    results = run_matrix(
        [get_scenario(name) for name in FAMILIES[family].scenarios], config
    )
    records = {r.scenario.name: scenario_record(r) for r in results}
    rows = []
    exit_code = 0
    for result in results:
        expected_fail = records[result.scenario.name]["expected_fail"]
        ok = result.passed != expected_fail
        if not ok:
            exit_code = 1
            print(result.report.render())
        recovery = result.report.recovery_time_ms
        rows.append([
            result.scenario.name,
            ("PASS" if result.passed else "FAIL")
            + (" (expected)" if expected_fail and ok else "")
            + (" (!)" if not ok else ""),
            result.ops_ok,
            result.ops_failed,
            "-" if recovery is None else f"{recovery:.0f} ms",
            result.event_hash[:12],
            result.log_hash[:12],
        ])
    print(tabulate(
        ["scenario", "verdict", "ok", "failed", "recovery", "events",
         "faults"],
        rows,
    ))
    if args.bench_json:
        doc = {"version": 1, "family": family, "seed": config.seed,
               "scenarios": records}
        if config.detect:
            doc["detection_window_ms"] = config.slo.detection_window_ms
        _dump_json(args.bench_json, doc)
    if args.baseline:
        with open(args.baseline) as fh:
            drift = baseline_drift(records, json.load(fh)["scenarios"])
        if drift.schedule or drift.outcome:
            exit_code = 1
            print(f"\n{family} baseline: "
                  f"schedule {'moved' if drift.schedule else 'held'}, "
                  f"outcome {'moved' if drift.outcome else 'held'}")
            for kind, lines in zip(drift._fields, drift):
                if lines:
                    print(f"{kind} drift:")
                    for line in lines:
                        print(f"  {line}")
        else:
            print(f"\n{family} baseline: OK")
    print(f"{family} matrix:", "PASS" if exit_code == 0 else "FAIL")
    return exit_code


def _cmd_chaos(args) -> int:
    if args.chaos_command == "run":
        return _cmd_chaos_run(args)
    return _cmd_chaos_matrix(args)


def _incident_rules(args):
    """The --rules-file catalog, or the default one."""
    from repro.incidents import default_rules, load_rules

    if args.rules_file:
        with open(args.rules_file) as handle:
            return load_rules(handle.read())
    return default_rules()


def _cmd_incidents(args) -> int:
    import json
    import os

    from repro.incidents import (
        AlertEngine,
        Evidence,
        build_report,
        rule_to_dict,
    )

    if args.incidents_command == "rules":
        rules = _incident_rules(args)
        if args.json:
            print(json.dumps(
                [rule_to_dict(rule) for rule in rules],
                indent=2, sort_keys=True,
            ))
            return 0
        rows = [
            [rule.name, rule.kind, rule.severity, rule.condition(),
             rule.description]
            for rule in rules
        ]
        print(tabulate(
            ["rule", "kind", "severity", "condition", "description"], rows
        ))
        return 0

    from repro.telemetry import read_jsonl

    timeseries = read_jsonl(args.series)
    engine = AlertEngine(_incident_rules(args))
    alerts = engine.replay(timeseries)
    end_ms = timeseries.samples[-1][0] if timeseries.samples else 0.0
    report = build_report(
        alerts, Evidence(timeseries=timeseries),
        scenario=args.scenario or os.path.basename(args.series),
        end_ms=end_ms,
    )
    print(report.render())
    if args.json:
        report.save(args.json)
        print(f"\nincidents json: {args.json}")
    return 0


def _cmd_tenants(args) -> int:
    """Multi-tenant run: per-tenant dashboard + fairness report."""
    from repro.chaos import (
        ChaosRunConfig,
        RecoverySLO,
        get_scenario,
        run_scenario,
    )
    from repro.tenants import (
        default_tenants,
        render_tenant_dashboard,
        summarize,
    )

    specs = default_tenants()
    result = run_scenario(get_scenario("control"), ChaosRunConfig(
        seed=args.seed,
        deployments=args.deployments,
        telemetry_interval_ms=args.interval,
        tenants=specs,
        slo=RecoverySLO(window_ms=args.duration),
        profile=args.profile,
    ))
    # Judge the workload window only: the prewarm and the untagged
    # prelude before the scenario epoch emit no tenant series.
    epoch = result.engine.epoch
    timeseries = result.telemetry.timeseries.window(epoch, result.duration_ms)
    report = summarize(timeseries, specs=specs)
    print(render_tenant_dashboard(timeseries, specs=specs, report=report))
    counts = result.tenant_counts
    total_ops = sum(c.issued for c in counts.values())
    print(f"\n{total_ops} op(s) across {len(specs)} tenant(s) "
          f"in {result.duration_ms - epoch:.0f} sim-ms  "
          f"events={result.event_hash[:12]}")
    throttled = result.engine.governor.throttled
    print("throttled: " + (", ".join(
        f"{tenant}={count}" for tenant, count in sorted(throttled.items())
    ) or "none"))
    print(result.report.render())
    if result.profile is not None:
        print("\nper-tenant critical-path shares:")
        for tenant, ops in sorted(result.profile.by_tenant().items()):
            if not tenant:
                continue
            shares = result.profile.stage_shares(tenant=tenant)
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
            stages = "  ".join(f"{s} {100 * v:.0f}%" for s, v in top)
            print(f"  {tenant:<12s} {len(ops):5d} ops  {stages}")
    if args.out:
        paths = result.telemetry.export(args.out, "tenants")
        print("\nexports:")
        for kind in ("jsonl", "csv", "prom"):
            print(f"  {paths[kind]}")
    if args.json:
        payload = {
            "version": 1,
            "seed": args.seed,
            "duration_ms": result.duration_ms,
            "event_hash": result.event_hash,
            "report": report.as_dict(),
            "counts": {
                tenant: {"issued": c.issued, "ok": c.ok, "failed": c.failed}
                for tenant, c in sorted(counts.items())
            },
        }
        _dump_json(args.json, payload, label="json")
    return 0 if result.passed else 1


def _cmd_bench(args) -> int:
    from repro.bench.kernel import (
        compare_kernel_bench,
        format_kernel_bench,
        format_kernel_diff,
        load_kernel_bench,
        quick_scale_names,
        run_kernel_bench,
        save_kernel_bench,
    )

    if args.bench_command != "kernel":
        raise ValueError(f"unknown bench subcommand {args.bench_command!r}")

    if args.diff:
        before = load_kernel_bench(args.diff[0])
        after = load_kernel_bench(args.diff[1])
        diff = compare_kernel_bench(before, after, threshold=args.threshold)
        print(format_kernel_diff(diff))
        return 0 if diff.ok else 1

    scales = quick_scale_names(args.quick, args.scales)
    result = run_kernel_bench(
        scales=scales,
        seed=args.seed,
        repeats=args.repeats,
        verify_count=args.verify_count,
        mem_probe=not args.no_mem,
    )
    print(format_kernel_bench(result))
    if args.json:
        print(f"\nbench json: {save_kernel_bench(result, args.json)}")
    if args.baseline:
        baseline = load_kernel_bench(args.baseline)
        diff = compare_kernel_bench(baseline, result, threshold=args.threshold)
        print()
        print(format_kernel_diff(diff))
        return 0 if diff.ok else 1
    return 0


def _cmd_experiments(_args) -> int:
    table = [
        ("fig8a/fig8b", "Spotify workload throughput", "benchmarks/test_fig8a…,8b…"),
        ("fig8c", "performance-per-cost timeline", "benchmarks/test_fig8c…"),
        ("fig9", "cumulative cost", "benchmarks/test_fig9…"),
        ("fig10", "latency CDFs", "benchmarks/test_fig10…"),
        ("fig11", "client-driven scaling", "benchmarks/test_fig11…"),
        ("fig12", "resource scaling", "benchmarks/test_fig12…"),
        ("fig13", "read perf-per-cost", "benchmarks/test_fig13…"),
        ("fig14", "auto-scaling ablation", "benchmarks/test_fig14…"),
        ("table3", "subtree mv latency", "benchmarks/test_table3…"),
        ("fig15", "fault tolerance", "benchmarks/test_fig15…"),
        ("fig16", "λIndexFS vs IndexFS", "benchmarks/test_fig16…"),
        ("app B/C/D", "straggler / anti-thrash / offload", "benchmarks/test_app*…"),
    ]
    print(tabulate(["experiment", "reproduces", "bench target"], table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.chaos.scenarios import FAMILIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="λFS (ASPLOS '23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_help = "enable causal tracing + invariant checking"
    demo = sub.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument("--trace", action="store_true", help=trace_help)

    spotify = sub.add_parser("spotify", help="mini Figure 8(a) run")
    spotify.add_argument("--base", type=float, default=3_000.0,
                         help="base throughput (ops/s)")
    spotify.add_argument("--duration", type=float, default=20.0,
                         help="workload duration (seconds)")
    spotify.add_argument("--clients", type=int, default=128)
    spotify.add_argument("--trace", action="store_true", help=trace_help)

    scaling = sub.add_parser("scaling", help="one client-scaling point")
    scaling.add_argument("--clients", type=int, default=64)
    scaling.add_argument("--ops", type=int, default=96)

    table3 = sub.add_parser("table3", help="subtree mv latency table")
    table3.add_argument("--sizes", type=int, nargs="+",
                        default=[1_024, 4_096])

    replay = sub.add_parser("replay", help="replay an audit-log trace")
    replay.add_argument("trace", help="trace file: '<ms> <op> <path> [dst]'")
    replay.add_argument("--clients", type=int, default=8)
    replay.add_argument("--trace-spans", action="store_true", help=trace_help)

    telemetry = sub.add_parser(
        "telemetry",
        help="telemetry-instrumented microbenchmark + ascii dashboard",
    )
    telemetry.add_argument("--clients", type=int, default=256)
    telemetry.add_argument("--ops", type=int, default=192,
                           help="measured ops per client per phase")
    telemetry.add_argument("--warmup", type=int, default=64,
                           help="connection-prelude ops per prelude client")
    telemetry.add_argument("--deployments", type=int, default=4)
    telemetry.add_argument("--interval", type=float, default=250.0,
                           help="sampling interval (sim-ms)")
    telemetry.add_argument("--replacement", type=float, default=0.1,
                           help="HTTP-TCP replacement probability")
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument("--out", default=None,
                           help="directory for JSONL/CSV/Prometheus exports")
    telemetry.add_argument("--load", default=None, metavar="JSONL",
                           help="render a dashboard from an existing export")
    telemetry.add_argument("--trace", action="store_true", help=trace_help)

    profile = sub.add_parser(
        "profile",
        help="critical-path profiling: run / diff / export",
    )
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)

    profile_run = profile_sub.add_parser(
        "run", help="profiled microbenchmark + attribution report"
    )
    profile_run.add_argument("--clients", type=int, default=64)
    profile_run.add_argument("--ops", type=int, default=48,
                             help="measured ops per client (read phase; "
                                  "the create phase runs a quarter)")
    profile_run.add_argument("--warmup", type=int, default=32,
                             help="connection-prelude ops per prelude client")
    profile_run.add_argument("--deployments", type=int, default=4)
    profile_run.add_argument("--seed", type=int, default=0)
    profile_run.add_argument("--replacement", type=float, default=0.05,
                             help="HTTP-TCP replacement probability")
    profile_run.add_argument("--slow-store", type=float, default=1.0,
                             help="multiply store service times (regression "
                                  "injection for diff testing)")
    profile_run.add_argument("--top", type=int, default=10,
                             help="rows in the top-contributors table")
    profile_run.add_argument("--out", default=None,
                             help="directory for profile.json, Chrome trace, "
                                  "folded stacks, spans JSONL")
    profile_run.add_argument("--bench-json", default=None, metavar="PATH",
                             help="write per-op p50/p99 + stage shares JSON")

    profile_diff = profile_sub.add_parser(
        "diff", help="stage-by-stage regression diff of two profile.json"
    )
    profile_diff.add_argument("before", help="baseline profile.json")
    profile_diff.add_argument("after", help="candidate profile.json")
    profile_diff.add_argument("--threshold", type=float, default=0.25,
                              help="relative growth flagged as regression")
    profile_diff.add_argument("--min-ms", type=float, default=0.05,
                              help="absolute per-op growth floor (ms)")
    profile_diff.add_argument("--verbose", action="store_true",
                              help="print every stage cell, not just movers")

    profile_export = profile_sub.add_parser(
        "export", help="re-render exports from a spans.jsonl dump"
    )
    profile_export.add_argument("spans", help="spans.jsonl from 'profile run'")
    profile_export.add_argument("--out", required=True,
                                help="output directory")
    profile_export.add_argument("--by", choices=("kind", "stage"),
                                default="kind",
                                help="folded-stack leaf frames")

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault injection: run / matrix",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    def _chaos_knobs(p):
        # Unset (None) keeps the run shape of the scenario's family.
        p.add_argument("--clients", type=int)
        p.add_argument("--deployments", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--write-frac", dest="write_fraction", type=float,
                       help="fraction of ops that are metadata writes")
        p.add_argument("--think", dest="think_ms", type=float,
                       help="mean client think time (sim-ms)")
        p.add_argument("--interval", dest="telemetry_interval_ms",
                       type=float,
                       help="telemetry sampling interval (sim-ms)")
        p.add_argument("--window", type=float,
                       help="recovery-SLO window after faults clear (sim-ms)")
        p.add_argument("--drain", dest="drain_ms", type=float,
                       help="grace beyond the SLO window before cutoff")
        p.add_argument("--datanodes", type=int,
                       help="DataNode fleet size (default: auto — 9 for "
                            "data-plane scenarios, none otherwise)")
        p.add_argument("--chunk-write-frac", dest="chunk_write_fraction",
                       type=float,
                       help="fraction of ops that are pipelined chunk "
                            "writes when a fleet is attached")

    chaos_run = chaos_sub.add_parser(
        "run", help="one scenario under load + recovery verification, "
                    "in its family's run shape"
    )
    chaos_run.add_argument("scenario", nargs="?", default=None,
                           help="built-in scenario name")
    chaos_run.add_argument("--file", default=None, metavar="JSON",
                           help="load the scenario from a JSON file instead")
    chaos_run.add_argument("--list", action="store_true",
                           help="list built-in scenarios and their families")
    chaos_run.add_argument("--verbose", action="store_true",
                           help="print the full fault log")
    chaos_run.add_argument("--detect", action=argparse.BooleanOptionalAction,
                           default=None,
                           help="attach the online alert engine and add the "
                                "detection gate to the verdict (default: "
                                "the family's setting)")
    chaos_run.add_argument("--out", default=None, metavar="DIR",
                           help="write incidents.json / incidents.md / "
                                "telemetry.jsonl")
    _chaos_knobs(chaos_run)

    chaos_matrix = chaos_sub.add_parser(
        "matrix", help="one regression family, gated against its baseline"
    )
    chaos_matrix.add_argument("--family", default="chaos",
                              choices=list(FAMILIES),
                              help="scenario family (default: chaos)")
    chaos_matrix.add_argument("--bench-json", default=None, metavar="PATH",
                              help="write the family's records "
                                   "(BENCH_<family>.json)")
    chaos_matrix.add_argument("--baseline", default=None, metavar="PATH",
                              help="compare every record field against a "
                                   "committed baseline (exit 1 on drift)")
    _chaos_knobs(chaos_matrix)

    incidents = sub.add_parser(
        "incidents",
        help="online alerting + root-cause attribution: analyze / rules",
    )
    incidents_sub = incidents.add_subparsers(
        dest="incidents_command", required=True
    )

    incidents_analyze = incidents_sub.add_parser(
        "analyze", help="offline rule replay over a telemetry JSONL export"
    )
    incidents_analyze.add_argument("series", help="telemetry.jsonl path")
    incidents_analyze.add_argument("--scenario", default=None,
                                   help="label for the report header")
    incidents_analyze.add_argument("--rules-file", default=None,
                                   metavar="JSON",
                                   help="load rules from a JSON file "
                                        "instead of the default catalog")
    incidents_analyze.add_argument("--json", default=None, metavar="PATH",
                                   help="write the incident report JSON")

    incidents_rules = incidents_sub.add_parser(
        "rules", help="show the alert-rule catalog"
    )
    incidents_rules.add_argument("--rules-file", default=None, metavar="JSON")
    incidents_rules.add_argument("--json", action="store_true",
                                 help="dump the catalog as JSON")

    tenants = sub.add_parser(
        "tenants",
        help="multi-tenant run: per-tenant dashboard + fairness report",
    )
    tenants.add_argument("--seed", type=int, default=0)
    tenants.add_argument("--duration", type=float, default=10_000.0,
                         help="workload window after the prelude (sim-ms)")
    tenants.add_argument("--deployments", type=int, default=4)
    tenants.add_argument("--interval", type=float, default=250.0,
                         help="telemetry sampling interval (sim-ms)")
    tenants.add_argument("--profile", action="store_true",
                         help="also attribute per-tenant critical paths")
    tenants.add_argument("--out", default=None, metavar="DIR",
                         help="export the series (JSONL/CSV/Prometheus)")
    tenants.add_argument("--json", default=None, metavar="PATH",
                         help="write the fairness report JSON")

    bench = sub.add_parser(
        "bench",
        help="wall-clock toolkit benchmarks: kernel",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_kernel = bench_sub.add_parser(
        "kernel",
        help="raw simulator throughput (events/sec, ops/sec, peak RSS)",
    )
    bench_kernel.add_argument("--quick", action="store_true",
                              help="run only the smoke scale point "
                                   "(for regression gating)")
    bench_kernel.add_argument("--scales", nargs="+", default=None,
                              help="explicit scale points (default: all)")
    bench_kernel.add_argument("--seed", type=int, default=0)
    bench_kernel.add_argument("--repeats", type=int, default=2,
                              help="timed repetitions per point (best wins)")
    bench_kernel.add_argument("--json", default=None, metavar="PATH",
                              help="write the result JSON (BENCH_kernel.json)")
    bench_kernel.add_argument("--baseline", default=None, metavar="PATH",
                              help="gate events/sec against this bench JSON "
                                   "(exit 1 on regression)")
    bench_kernel.add_argument("--threshold", type=float, default=0.10,
                              help="relative events/sec drop that fails "
                                   "the gate")
    bench_kernel.add_argument("--diff", nargs=2, default=None,
                              metavar=("BEFORE", "AFTER"),
                              help="compare two bench JSONs without running")
    bench_kernel.add_argument("--no-mem", action="store_true",
                              help="skip the tracemalloc heap probe")
    bench_kernel.add_argument("--verify-count", action="store_true",
                              help="cross-check event counts with a "
                                   "counting on_step hook (untimed)")

    sub.add_parser("experiments", help="list experiment drivers")
    return parser


COMMANDS = {
    "demo": _cmd_demo,
    "spotify": _cmd_spotify,
    "scaling": _cmd_scaling,
    "table3": _cmd_table3,
    "replay": _cmd_replay,
    "telemetry": _cmd_telemetry,
    "profile": _cmd_profile,
    "chaos": _cmd_chaos,
    "incidents": _cmd_incidents,
    "tenants": _cmd_tenants,
    "bench": _cmd_bench,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
