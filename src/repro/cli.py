"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro run fig5 --scale default
    python -m repro run all --scale test --verify
    python -m repro run fig9 --scale test --metrics --trace-out trace.jsonl
    python -m repro scenario list
    python -m repro scenario run link_flap --scale test --crosscheck
    python -m repro serve --events 5000 --checkpoint-every 1000
    python -m repro serve --events 5000 --restore-from service.ckpt.json
    python -m repro trace summarize trace.jsonl
    python -m repro verify --scale default
    python -m repro topology --n-ases 2000 --out topo.txt

The ``mifo-repro`` console script (pyproject) maps here too.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .bgp.propagation import BACKENDS, DEFAULT_BACKEND, RoutingCache
from .errors import ReproError, VerificationError
from .experiments import REGISTRY, SCALES
from .telemetry import Stopwatch, Telemetry, TelemetrySnapshot
from .topology.generator import TopologyConfig, generate_topology
from .topology.loader import save_caida
from .topology.stats import topology_stats

__all__ = ["main"]


def _add_backend_option(
    parser: argparse.ArgumentParser, *, default: str | None = DEFAULT_BACKEND
) -> None:
    """``--routing-backend`` for every compute subcommand; ``serve`` passes
    ``default=None``, where unset means the checkpoint's backend on restore."""
    parser.add_argument(
        "--routing-backend",
        choices=BACKENDS,
        default=default,
        help="BGP convergence implementation (array ships; dict is the oracle)",
    )


def _write_json(path: pathlib.Path, text: str) -> None:
    """``--json``: write ``text`` to ``path`` (parents made), say so on stderr."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for name, mod in REGISTRY.items():
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:8s} {doc}")
    print("\nscales:", ", ".join(SCALES))
    return 0


def _render_phases(delta: TelemetrySnapshot) -> str:
    """``--profile``: just the wall-time-by-phase table, slowest first."""
    if not delta.spans:
        return "profile: no phases recorded"
    lines = ["profile (wall time by phase):"]
    width = max(len(n) for n in delta.spans)
    for name, (total, count) in sorted(
        delta.spans.items(), key=lambda kv: -kv[1][0]
    ):
        mean_ms = total / count * 1e3 if count else 0.0
        lines.append(
            f"  {name:<{width}}  {total:9.3f} s  x{count:<7d} "
            f"({mean_ms:8.3f} ms avg)"
        )
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    names = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2
    # One registry shared across the whole invocation: per-experiment
    # deltas come from instrumented_run's session, the trace file and the
    # verify cross-check see everything that happened.
    telem: Telemetry | None = None
    if args.metrics or args.profile or args.trace_out:
        telem = Telemetry()
    for name in names:
        watch = Stopwatch()
        base = telem.snapshot() if telem is not None else None
        result = REGISTRY[name].run(
            args.scale, backend=args.routing_backend, telemetry=telem
        )
        print(
            f"==== {name} (scale={args.scale}, {watch.elapsed:.1f}s) " + "=" * 20
        )
        print(result.render())
        if telem is not None and base is not None:
            delta = telem.snapshot().subtract(base)
            if args.metrics:
                print(delta.render())
            elif args.profile:
                print(_render_phases(delta))
        print()
        if args.json:
            out = pathlib.Path(args.json) / f"{name}_{args.scale}.json"
            _write_json(out, result.to_json(indent=2))
    if telem is not None and args.trace_out:
        from .telemetry import trace

        n = trace.write_jsonl(telem.trace_events(), args.trace_out)
        print(f"wrote {n} trace event(s) to {args.trace_out}", file=sys.stderr)
    if args.verify:
        from .experiments.common import SharedContext

        # The run above went through the memoized per-scale context, so
        # this re-get is the same object — its cache holds exactly the
        # destinations the experiments forwarded along.
        ctx = SharedContext.get(args.scale, backend=args.routing_backend)
        try:
            report = ctx.verify(
                events=telem.trace_events() if telem is not None else None
            )
        except VerificationError as exc:
            print(f"post-run invariant gate FAILED: {exc}", file=sys.stderr)
            report_attr = getattr(exc, "report", None)
            if report_attr is not None:
                print(report_attr.render(), file=sys.stderr)
            return 1
        print(
            f"post-run invariant gate: {report.render().splitlines()[0]}",
            file=sys.stderr,
        )
    return 0


def _cmd_scenario_list(_args: argparse.Namespace) -> int:
    """List the built-in dynamic scenarios."""
    from .scenario import SCENARIOS

    print("scenarios:")
    for name, spec in SCENARIOS.items():
        print(f"  {name:16s} {spec.description}")
        for when, ev in spec.timeline:
            print(f"    t={when:g}s  {ev!r}")
    print("\nscales:", ", ".join(SCALES))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    """Play one scenario timeline through the experiment API."""
    from .experiments import scenario as scenario_mod

    telem: Telemetry | None = None
    if args.metrics or args.trace_out:
        telem = Telemetry()
    watch = Stopwatch()
    result = scenario_mod.run(
        args.scale,
        backend=args.routing_backend,
        scenario=args.name,
        detector=args.detector,
        n_flows=args.n_flows,
        verify=not args.no_verify,
        crosscheck=args.crosscheck,
        telemetry=telem,
    )
    print(
        f"==== scenario {args.name} (scale={args.scale}, "
        f"detector={args.detector}, {watch.elapsed:.1f}s) " + "=" * 12
    )
    print(result.render())
    if telem is not None and args.metrics:
        print(telem.snapshot().render())
    if telem is not None and args.trace_out:
        from .telemetry import trace

        n = trace.write_jsonl(telem.trace_events(), args.trace_out)
        print(f"wrote {n} trace event(s) to {args.trace_out}", file=sys.stderr)
    if args.json:
        out = pathlib.Path(args.json) / f"scenario_{args.name}_{args.scale}.json"
        _write_json(out, result.to_json(indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the streaming service session from the command line."""
    import json

    from .service import ServiceConfig, ServiceSession

    if args.restore_from:
        session = ServiceSession.restore(
            args.restore_from, backend=args.routing_backend
        )
        print(
            f"restored session at event {session.events_processed} "
            f"({session.engine.n_flows} live flows, "
            f"clock {session.clock_s:.2f}s)",
            file=sys.stderr,
        )
    else:
        cfg = ServiceConfig(
            seed=args.seed,
            arrival_rate=args.arrival_rate,
            traffic=args.traffic,
            detector=args.detector,
            record_capacity=args.record_capacity,
            checkpoint_every=args.checkpoint_every or 0,
            batch_max=args.batch_max if args.batch_max is not None else 1,
        )
        session = ServiceSession(
            cfg,
            topology=TopologyConfig(n_ases=args.n_ases, seed=args.seed),
            backend=args.routing_backend or DEFAULT_BACKEND,
            telemetry=args.metrics,
        )
    interval = (
        args.checkpoint_every
        if args.checkpoint_every is not None
        else session.config.checkpoint_every
    )
    watch = Stopwatch()
    done = 0
    while done < args.events:
        batch = (
            args.events - done
            if interval <= 0
            else min(interval, args.events - done)
        )
        report = session.drain(batch)
        done += batch
        print(
            f"[{session.events_processed}] +{batch} events: "
            f"{report.arrivals} arrivals, {report.retired} retired, "
            f"{report.flows_live} live, clock {report.clock_s:.2f}s",
            file=sys.stderr,
        )
        if interval > 0:
            session.save_checkpoint(args.checkpoint_out)
            print(f"checkpointed to {args.checkpoint_out}", file=sys.stderr)
    rate = done / watch.elapsed if watch.elapsed > 0 else float("inf")
    print(f"processed {done} events in {watch.elapsed:.1f}s "
          f"({rate:.0f} events/s)", file=sys.stderr)
    print(json.dumps(session.snapshot(), indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Validate and aggregate a recorded JSONL telemetry trace."""
    import json

    from .telemetry import trace

    try:
        events = trace.read_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    schema: dict[str, object] | None = None
    if args.schema:
        try:
            loaded = json.loads(
                pathlib.Path(args.schema).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read schema: {exc}", file=sys.stderr)
            return 2
        if not isinstance(loaded, dict):
            print("schema file is not a JSON object", file=sys.stderr)
            return 2
        schema = loaded
    problems = trace.validate_events(events, schema)
    if problems:
        for p in problems[:20]:
            print(f"invalid trace: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        return 1
    summary = trace.summarize(events, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(trace.render_summary(summary))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Statically prove (or refute) the forwarding invariants."""
    from .experiments.common import deployment_sample, get_scale
    from .verify import verify_routing

    sc = get_scale(args.scale)
    n_ases = args.n_ases or sc.n_ases
    graph = generate_topology(TopologyConfig(n_ases=n_ases, seed=args.seed))
    routing = RoutingCache(graph, backend=args.routing_backend)

    nodes = sorted(graph.nodes())
    if args.dests and args.dests < len(nodes):
        # Evenly spaced sample: deterministic, covers the whole hierarchy.
        step = max(1, len(nodes) // args.dests)
        dests = nodes[::step][: args.dests]
    else:
        dests = nodes

    capable = deployment_sample(graph, args.deployment)
    report = verify_routing(
        graph,
        routing,
        dests,
        capable=capable,
        tag_check_enabled=not args.no_tag_check,
    )
    print(report.render())
    if args.json:
        _write_json(pathlib.Path(args.json), report.to_json(indent=2))
    return 0 if report.ok else 1


def _cmd_topology(args: argparse.Namespace) -> int:
    cfg = TopologyConfig(n_ases=args.n_ases, seed=args.seed)
    graph = generate_topology(cfg)
    stats = topology_stats(graph)
    print(
        f"generated {stats.n_nodes} ASes, {stats.n_links} links "
        f"(P/C {stats.p2c_fraction:.0%}, peering {stats.peering_fraction:.0%})"
    )
    if args.out:
        save_caida(graph, args.out, header=f"synthetic Internet, seed={args.seed}")
        print(f"wrote {args.out} (CAIDA serial-1 format)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .experiments.export import export_all

    for p in export_all(args.out, args.scale, backend=args.routing_backend):
        print(f"wrote {p}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """One-shot scheme comparison on user-chosen parameters."""
    from .experiments.common import deployment_sample, make_provider
    from .experiments.report import text_table
    from .flowsim.simulator import FluidSimulator
    from .metrics.summary import comparison_rows
    from .traffic.matrix import TrafficConfig, powerlaw_matrix, uniform_matrix

    graph = generate_topology(TopologyConfig(n_ases=args.n_ases, seed=args.seed))
    routing = RoutingCache(graph, backend=args.routing_backend)
    capable = deployment_sample(graph, args.deployment)
    tc = TrafficConfig(
        n_flows=args.n_flows,
        arrival_rate=args.rate,
        alpha=args.alpha,
        seed=args.seed,
        size_distribution=args.size_distribution,
    )
    if args.traffic == "uniform":
        specs = uniform_matrix(graph, tc)
    else:
        specs = powerlaw_matrix(graph, tc, n_providers=max(50, args.n_ases // 20))

    results = []
    for scheme in args.schemes:
        watch = Stopwatch()
        provider = make_provider(scheme, graph, routing, capable)
        res = FluidSimulator(graph, provider).run(specs)
        results.append(res)
        print(f"ran {scheme} in {watch.elapsed:.1f}s", file=sys.stderr)
    print(
        text_table(
            ["Scheme", "Flows", "Median Mbps", "p10", "p90", ">=500 Mbps", "On alt paths"],
            comparison_rows(results),
            title=(
                f"{args.traffic} traffic, {args.n_ases} ASes, "
                f"{args.n_flows} flows @ {args.rate:.0f}/s, "
                f"deployment {args.deployment:.0%}"
            ),
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the exit code.

    A :class:`~repro.errors.ReproError` or :class:`OSError` out of the
    command (a bad knob, an unknown scenario, a missing or hostile
    checkpoint) prints one ``error: <message>`` line on stderr and
    returns 2, the exit code argparse gives bad arguments.  A refuted
    invariant (:class:`~repro.errors.VerificationError`, from ``scenario
    run``'s per-event certification or ``serve``'s ``verify_every``)
    returns 1, as ``run --verify``'s post-run gate does.
    """
    parser = argparse.ArgumentParser(
        prog="mifo-repro",
        description="Reproduction of 'MIFO: Multi-Path Interdomain Forwarding' (ICPP 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and scales").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment name from 'list', or 'all'")
    p_run.add_argument("--scale", default="default", choices=sorted(SCALES))
    _add_backend_option(p_run)
    p_run.add_argument(
        "--json", default=None, metavar="DIR", help="also dump ExperimentResult JSON"
    )
    p_run.add_argument(
        "--verify",
        action="store_true",
        help="statically re-prove the forwarding invariants after the run "
        "(with --metrics/--trace-out, also cross-checks the recorded trace)",
    )
    p_run.add_argument(
        "--metrics",
        action="store_true",
        help="record telemetry and print counters + phase timers per experiment",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="record telemetry and print only the phase wall-time breakdown",
    )
    p_run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record the structured event trace and write it as JSONL",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_sc = sub.add_parser(
        "scenario", help="event-driven dynamic scenarios (link flaps, ...)"
    )
    sc_sub = p_sc.add_subparsers(dest="scenario_command", required=True)
    sc_sub.add_parser("list", help="list built-in scenarios").set_defaults(
        fn=_cmd_scenario_list
    )
    p_sc_run = sc_sub.add_parser("run", help="play one scenario timeline")
    p_sc_run.add_argument("name", help="scenario name from 'scenario list'")
    p_sc_run.add_argument("--scale", default="test", choices=sorted(SCALES))
    p_sc_run.add_argument(
        "--detector",
        choices=("oracle", "threshold", "changepoint"),
        default="oracle",
        help="congestion signal driving deflection: hysteresis bits over "
        "true link load ('oracle') or a measurement-driven detector over "
        "per-path RTT samples",
    )
    _add_backend_option(p_sc_run)
    p_sc_run.add_argument(
        "--n-flows", type=int, default=None, help="base demand population size"
    )
    p_sc_run.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-event invariant re-certification",
    )
    p_sc_run.add_argument(
        "--crosscheck",
        action="store_true",
        help="diff incremental state against full recomputation every event",
    )
    p_sc_run.add_argument(
        "--metrics", action="store_true", help="record and print telemetry"
    )
    p_sc_run.add_argument(
        "--trace-out", default=None, metavar="FILE", help="write the event trace JSONL"
    )
    p_sc_run.add_argument(
        "--json", default=None, metavar="DIR", help="also dump ExperimentResult JSON"
    )
    p_sc_run.set_defaults(fn=_cmd_scenario_run)

    p_srv = sub.add_parser(
        "serve",
        help="run the streaming service (checkpointable long-lived session)",
    )
    p_srv.add_argument(
        "--events", type=int, default=1000, help="stream events to process"
    )
    p_srv.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="K",
        help="checkpoint every K events (default: the config's setting; "
        "0 = never)",
    )
    p_srv.add_argument(
        "--checkpoint-out",
        default="service.ckpt.json",
        metavar="PATH",
        help="where periodic checkpoints are written",
    )
    p_srv.add_argument(
        "--restore-from",
        default=None,
        metavar="PATH",
        help="resume from a checkpoint file instead of starting fresh",
    )
    p_srv.add_argument(
        "--n-ases", type=int, default=300, help="topology size (fresh start)"
    )
    p_srv.add_argument("--seed", type=int, default=2014)
    p_srv.add_argument(
        "--arrival-rate", type=float, default=200.0, help="flow arrivals/s"
    )
    p_srv.add_argument(
        "--traffic", choices=("zipf", "uniform"), default="zipf"
    )
    p_srv.add_argument(
        "--detector",
        choices=("oracle", "threshold", "changepoint"),
        default="oracle",
        help="congestion signal driving deflection (fresh start; restore "
        "keeps the checkpoint's setting)",
    )
    p_srv.add_argument(
        "--record-capacity",
        type=int,
        default=1024,
        help="per-event records retained (the bounded ring)",
    )
    p_srv.add_argument(
        "--batch-max",
        type=int,
        default=None,
        metavar="N",
        help="coalesce up to N consecutive arrival/retirement ticks into "
        "one solve (fresh start; restore keeps the checkpoint's setting)",
    )
    _add_backend_option(p_srv, default=None)
    p_srv.add_argument(
        "--metrics",
        action="store_true",
        help="attach a telemetry registry (counters land in the snapshot)",
    )
    p_srv.set_defaults(fn=_cmd_serve)

    p_tr = sub.add_parser("trace", help="inspect recorded telemetry traces")
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)
    p_sum = tr_sub.add_parser(
        "summarize", help="validate a JSONL trace and aggregate it"
    )
    p_sum.add_argument("file", help="JSONL trace written by 'run --trace-out'")
    p_sum.add_argument(
        "--schema",
        default=None,
        metavar="PATH",
        help="validate against a JSON-schema file (default: built-in schema)",
    )
    p_sum.add_argument(
        "--top", type=int, default=5, help="rows in the top-N breakdowns"
    )
    p_sum.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    p_sum.set_defaults(fn=_cmd_trace)

    p_ver = sub.add_parser(
        "verify",
        help="statically prove or refute MIFO's forwarding invariants",
    )
    p_ver.add_argument("--scale", default="test", choices=sorted(SCALES))
    p_ver.add_argument(
        "--n-ases", type=int, default=None, help="override the scale's topology size"
    )
    p_ver.add_argument("--seed", type=int, default=2014)
    p_ver.add_argument(
        "--dests",
        type=int,
        default=25,
        help="destinations to verify, evenly sampled (0 = every AS)",
    )
    p_ver.add_argument(
        "--deployment", type=float, default=1.0, help="MIFO-capable fraction"
    )
    p_ver.add_argument(
        "--no-tag-check",
        action="store_true",
        help="ablation: verify with Tag-Check disabled",
    )
    _add_backend_option(p_ver)
    p_ver.add_argument(
        "--json", default=None, metavar="FILE", help="dump the report as JSON"
    )
    p_ver.set_defaults(fn=_cmd_verify)

    p_topo = sub.add_parser("topology", help="generate a synthetic AS topology")
    p_topo.add_argument("--n-ases", type=int, default=2000)
    p_topo.add_argument("--seed", type=int, default=2014)
    p_topo.add_argument("--out", default=None, help="write CAIDA serial-1 file")
    p_topo.set_defaults(fn=_cmd_topology)

    p_exp = sub.add_parser(
        "export", help="dump every figure's series as gnuplot .dat files"
    )
    p_exp.add_argument("--out", default="results/dat")
    p_exp.add_argument("--scale", default="bench", choices=sorted(SCALES))
    _add_backend_option(p_exp)
    p_exp.set_defaults(fn=_cmd_export)

    p_sim = sub.add_parser(
        "simulate", help="one-shot BGP/MIRO/MIFO comparison, custom parameters"
    )
    p_sim.add_argument("--n-ases", type=int, default=1000)
    p_sim.add_argument("--n-flows", type=int, default=1000)
    p_sim.add_argument("--rate", type=float, default=1000.0, help="flow arrivals/s")
    p_sim.add_argument("--deployment", type=float, default=1.0)
    p_sim.add_argument("--traffic", choices=("uniform", "powerlaw"), default="uniform")
    p_sim.add_argument("--alpha", type=float, default=1.0)
    p_sim.add_argument(
        "--size-distribution", choices=("fixed", "lognormal", "pareto"), default="fixed"
    )
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument(
        "--schemes", nargs="+", default=["BGP", "MIRO", "MIFO"],
        help="any of BGP MIRO MIFO",
    )
    _add_backend_option(p_sim)
    p_sim.set_defaults(fn=_cmd_simulate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
