"""``mfv`` — the model-free verification command line.

Subcommands::

    mfv [-v|-vv] verify TOPOLOGY [--backend emulation|model]
                                 [--save SNAP.json] [--trace OUT.jsonl]
                                 [--delta-stats]
    mfv diff REFERENCE.json SNAPSHOT.json [--delta-stats]
    mfv trace SNAPSHOT.json NODE DEST
    mfv routes SNAPSHOT.json [NODE]
    mfv demo {fig2,fig3,production} [--trace OUT.jsonl]
    mfv whatif DEPLOYMENT [--mode links|nodes|flaps|k-links] [--k K]
               [--limit N] [--workers N]
    mfv chaos DEPLOYMENT [--plan acceptance|sampled] FAULT-PLAN
              [--no-crash] [--seeds N|a,b,c] [--temporal]
    mfv ensemble DEPLOYMENT [--seeds N|a,b,c]
                 [--plans none|acceptance|sampled] [--plan-count N]
                 FAULT-PLAN [--temporal] [--waypoint DEST_IP:VIA_NODE]
                 [--workers N]
    mfv temporal DEPLOYMENT [--flap A-Z] [--flap-hold S]
                 [--replay STREAM.json] [--save-stream OUT.json]
                 [--brute-force] [--max-churn N]
                 [--waypoint DEST_IP:VIA_NODE]
    mfv obs timeline [--scenario fig2|fig3|whatif] [--topology FILE]
                     [--trace OUT.jsonl]
    mfv obs summary TRACE.jsonl
    mfv obs waterfall TRACE.jsonl JOB_ID
    mfv obs metrics TRACE.jsonl [--format prometheus|records]
    mfv serve [SNAPSHOT.json ...] [--workers N] [--queue-depth N]
              [--store N] [--trace OUT.jsonl] [--journal DIR] [--recover]
              [--worker-mode thread|process]
    mfv submit SNAPSHOT.json QUESTION [--param KEY=VALUE ...]
               [--reference REF.json] [--priority CLASS] [--timeout S]

where ``DEPLOYMENT`` is the argument group the four sweep verbs share,
``[TOPOLOGY] [--corpus fig2|fig3|production] [--nodes N] [--routes N]
[--quiet-period S] [--fast] [--json OUT.json] [--trace OUT.jsonl]``
(``--corpus`` defaults to fig2 for ``whatif``, production for ``chaos``
and fig3 otherwise), and ``FAULT-PLAN`` is ``[--plan-seed N]
[--intensity N] [--crash-at S]``. ``--workers N`` deals the campaign's
scenarios or the ensemble's (seed x plan) members round-robin to N
processes, each on its own deployment.

``verify`` takes a KNE-style topology file (see
:mod:`repro.topo.parser`) whose nodes reference config files, runs the
chosen backend to convergence, reports reachability health, and can
persist the extracted snapshot for later offline queries.
``--delta-stats`` (on ``verify`` and ``diff``) prints how the engine
came to exist: dirty-atom count and reused-vs-rebuilt device indexes
for an incremental derivation, or the fallback reason for a cold build.

``temporal`` verifies the network *during* convergence: it converges a
baseline, flaps one link while recording a checkpoint stream of FIB
deltas, and reports every invariant-violation interval — transient
loops and blackhole windows that a post-convergence check on the final
state cannot see. ``--replay`` re-evaluates a stream saved with
``--save-stream`` offline; ``--brute-force`` rebuilds a cold engine per
checkpoint instead of applying deltas (the correctness oracle). Exit
code 2 means at least one violation interval was found.

``ensemble`` runs the same scenario once per seed (optionally crossed
with fault plans), dedups the converged states by forwarding
fingerprint, and folds every invariant across the set into
holds-always / holds-sometimes / never — each "sometimes" carrying a
witness seed, plan, and (with ``--temporal``) the violating interval.
Exit code 2 means at least one invariant is not holds-always. ``chaos
--seeds`` scores verdict stability over such an ensemble of faulted
runs instead of a single seed.

``obs timeline`` runs a built-in scenario (or a topology file) with the
tracer installed and prints the convergence timeline: per-phase spans,
per-device adjacency-up / last-route-install times, and event counters.
``obs summary`` renders a previously saved ``--trace`` JSONL file,
including the slowest spans and per-span-name duration percentiles.
``obs waterfall`` correlates everything one service job did — submit,
queue, run, engine builds — into a single per-job lifecycle view.
``obs metrics`` re-renders the metrics records in a saved trace as
Prometheus text exposition (or raw JSONL records).

``serve`` starts the continuous verification service and speaks
JSON-lines on stdin/stdout (one request per line; see
:mod:`repro.service.frontend` for the ops). ``--journal DIR`` makes
accepted jobs durable (write-ahead log + snapshot manifest);
``--recover`` replays that journal after a crash before serving;
``--worker-mode process`` gives each worker thread its own forked,
crash-isolated child: a question job runs in the child, and a child
that dies or hangs is killed, respawned and its job redelivered.
SIGTERM drains gracefully: admissions stop, in-flight jobs
settle (or stay journaled), and the process exits 0. ``submit`` is the
one-shot client shape: spin up a service, load snapshots, run one
question through the queue, print the answer.

``-v`` raises log verbosity to INFO, ``-vv`` to DEBUG (module-level
``logging``; warnings such as ignored link cuts always print).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional

from repro.core.pipeline import ModelFreeBackend, NativeBatfishBackend, phase
from repro.core.snapshot import Snapshot
from repro.ensemble.runner import DEFAULT_SEEDS
from repro.obs import ConvergenceTimeline, read_jsonl, summary_text, tracing, write_jsonl
from repro.pybf.session import Session
from repro.service.jobs import DEFAULT_QUEUE_DEPTH
from repro.service.store import DEFAULT_CAPACITY
from repro.service.workers import DEFAULT_WORKERS
from repro.topo.parser import load_topology
from repro.verify.engine import engine_for
from repro.verify.invariants import detect_blackholes, detect_loops
from repro.verify.reachability import verify_pairwise_reachability_text


def _print_delta_stats(engine) -> None:
    """The ``--delta-stats`` block: how this engine came to exist
    relative to its lineage base (or why it could not derive)."""
    stats = getattr(engine, "delta_stats", None)
    print("delta stats:")
    if stats is None:
        print("  cold build (no lineage base offered)")
        return
    if stats.fallback is not None:
        print(f"  cold build, delta fallback: {stats.fallback}")
        print(f"  atoms: {stats.total_atoms}")
        return
    print(
        f"  dirty atoms: {stats.dirty_atoms}/{stats.total_atoms} "
        f"({stats.dirty_fraction:.1%})"
    )
    print(f"  reused verdict tables: {stats.reused_tables}")
    print(
        f"  device indexes: {stats.reused_indexes} reused, "
        f"{stats.rebuilt_indexes} rebuilt "
        f"({', '.join(stats.touched_devices) or 'none touched'})"
    )
    print(f"  apply time: {stats.apply_seconds * 1e3:.1f} ms")


def _traced(run, to_stderr: bool = False):
    """The verb ``run``, recording an observability trace to
    ``--trace`` when one is given."""

    def command(args: argparse.Namespace) -> int:
        if not args.trace:
            return run(args)
        with tracing() as tracer:
            code = run(args)
        lines = write_jsonl(tracer, args.trace)
        print(
            f"trace written to {args.trace} ({lines} records)",
            file=sys.stderr if to_stderr else sys.stdout,
        )
        return code

    return command


def _write_json(path: Optional[str], report) -> None:
    """The ``--json`` report file, when one was asked for."""
    import json

    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2)
    print(f"report written to {path}")


def _parse_waypoint(spec: str):
    from repro.verify.invariants import parse_waypoint

    try:
        return parse_waypoint(spec)
    except ValueError as exc:
        raise SystemExit(f"--waypoint: {exc}")


def _run_verify(args: argparse.Namespace) -> int:
    topology = load_topology(args.topology)
    print(f"Loaded {topology}")
    if args.backend == "model":
        snapshot = NativeBatfishBackend(topology).run()
        unrecognized = snapshot.metadata["unrecognized_lines"]
        total = sum(unrecognized.values())
        if total:
            print(f"warning: model failed to parse {total} lines:")
            for name, count in sorted(unrecognized.items()):
                if count:
                    print(f"  {name}: {count} unrecognized lines")
    else:
        backend = ModelFreeBackend(topology, quiet_period=args.quiet_period)
        snapshot = backend.run(seed=args.seed)
        print(
            f"Emulation: startup {snapshot.startup_seconds / 60:.1f} sim-min, "
            f"convergence {snapshot.convergence_seconds:.1f} sim-s"
        )
    phases = snapshot.metadata.setdefault("phases", {})
    with phase("verify", None, phases):
        dataplane = snapshot.dataplane
        # Build the shared atom-graph engine up front; every check
        # below answers from its tables.
        engine = engine_for(dataplane)
        engine.precompute()
        if args.delta_stats:
            _print_delta_stats(engine)
        print(verify_pairwise_reachability_text(dataplane))
        loops = detect_loops(dataplane)
        print(f"forwarding loops: {len(loops)}")
        for row in loops[:10]:
            print(f"  {row}")
        blackholes = detect_blackholes(dataplane)
        print(f"blackholed owned destinations: {len(blackholes)}")
    if args.save:
        snapshot.save(args.save)
        print(f"snapshot saved to {args.save}")
    return 0 if not loops else 2


def _cmd_diff(args: argparse.Namespace) -> int:
    reference = Snapshot.load(args.reference)
    snapshot = Snapshot.load(args.snapshot)
    bf = Session()
    bf.init_snapshot(reference, name="reference")
    bf.init_snapshot(snapshot, name="snapshot")
    answer = bf.q.differentialReachability().answer(
        snapshot="snapshot", reference_snapshot="reference"
    )
    print(answer)
    if args.delta_stats:
        # The differential answer derives the snapshot's engine from
        # the reference's via the delta path; the (content-cached)
        # engine carries the derivation record.
        _print_delta_stats(engine_for(snapshot.dataplane))
    regressed = sum(1 for row in answer.frame() if row["Regressed"])
    return 2 if regressed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    snapshot = Snapshot.load(args.snapshot)
    bf = Session()
    bf.init_snapshot(snapshot)
    answer = bf.q.traceroute(
        startLocation=args.node, dst=args.destination
    ).answer()
    print(answer)
    return 0


def _cmd_routes(args: argparse.Namespace) -> int:
    snapshot = Snapshot.load(args.snapshot)
    bf = Session()
    bf.init_snapshot(snapshot)
    print(bf.q.routes(nodes=args.node).answer())
    return 0


def _run_demo(args: argparse.Namespace) -> int:
    from repro.protocols.timers import FAST_TIMERS

    if args.scenario == "fig3":
        from repro.corpus.fig3 import fig3_scenario

        scenario = fig3_scenario()
        emulated = ModelFreeBackend(
            scenario.topology, timers=FAST_TIMERS, quiet_period=5.0
        ).run(snapshot_name="emulated")
        model = NativeBatfishBackend(scenario.topology).run(
            snapshot_name="model"
        )
        bf = Session()
        bf.init_snapshot(emulated, name="emulated")
        bf.init_snapshot(model, name="model")
        print(
            bf.q.differentialReachability().answer(
                snapshot="model", reference_snapshot="emulated"
            )
        )
        return 0
    if args.scenario == "production":
        from repro.core.context import ScenarioContext
        from repro.corpus.production import production_scenario, scaled_timers

        scenario = production_scenario(
            args.nodes, peers=2, routes_per_peer=args.routes, seed=7
        )
        backend = ModelFreeBackend(
            scenario.topology,
            timers=scaled_timers(args.routes),
            quiet_period=30.0,
        )
        snapshot = backend.run(
            ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
        )
        print(
            f"startup {snapshot.startup_seconds / 60:.1f} sim-min, "
            f"convergence {snapshot.convergence_seconds / 60:.1f} sim-min, "
            f"{snapshot.metadata['injected_routes']} routes injected"
        )
        sizes = sorted(len(d) for d in snapshot.dataplane.devices.values())
        print(f"FIB sizes: min {sizes[0]}, max {sizes[-1]}")
        loops = detect_loops(snapshot.dataplane)
        print(f"forwarding loops: {len(loops)}")
        return 0 if not loops else 2
    from repro.corpus.fig2 import fig2_scenario

    scenario = fig2_scenario()
    healthy = ModelFreeBackend(
        scenario.topology, timers=FAST_TIMERS, quiet_period=5.0
    ).run(snapshot_name="healthy")
    buggy = ModelFreeBackend(
        scenario.buggy_topology(), timers=FAST_TIMERS, quiet_period=5.0
    ).run(snapshot_name="buggy")
    bf = Session()
    bf.init_snapshot(healthy, name="healthy")
    bf.init_snapshot(buggy, name="buggy")
    print(
        bf.q.differentialReachability().answer(
            snapshot="buggy", reference_snapshot="healthy"
        )
    )
    return 0


def _deployment(args: argparse.Namespace):
    """Resolve the deployment arguments: (topology, context, timers, quiet)."""
    from repro.core.context import ScenarioContext
    from repro.protocols.timers import FAST_TIMERS, PRODUCTION_TIMERS

    context = ScenarioContext()
    if args.topology:
        topology = load_topology(args.topology)
        timers = FAST_TIMERS if args.fast else PRODUCTION_TIMERS
        quiet = args.quiet_period or (5.0 if args.fast else 30.0)
    elif args.corpus == "production":
        from repro.corpus.production import production_scenario, scaled_timers

        scenario = production_scenario(
            args.nodes, peers=2, routes_per_peer=args.routes, seed=7
        )
        topology = scenario.topology
        context = ScenarioContext(
            name="prod", injectors=tuple(scenario.injectors)
        )
        timers = scaled_timers(args.routes)
        quiet = args.quiet_period or 30.0
    elif args.corpus == "fig3":
        from repro.corpus.fig3 import fig3_scenario

        topology = fig3_scenario().topology
        timers = FAST_TIMERS
        quiet = args.quiet_period or 5.0
    else:
        from repro.corpus.fig2 import fig2_scenario

        topology = fig2_scenario().topology
        timers = FAST_TIMERS
        quiet = args.quiet_period or 5.0
    return topology, context, timers, quiet


def _whatif_scenarios(args: argparse.Namespace, topology):
    from repro.whatif import (
        k_link_failures,
        link_flap_scenarios,
        single_link_failures,
        single_node_failures,
    )

    if args.mode == "nodes":
        scenarios = list(single_node_failures(topology))
    elif args.mode == "flaps":
        scenarios = list(
            link_flap_scenarios(topology, hold_seconds=args.flap_hold)
        )
    elif args.mode == "k-links":
        scenarios = list(k_link_failures(topology, k=args.k))
    else:
        scenarios = list(single_link_failures(topology))
    if args.limit is not None:
        scenarios = scenarios[: args.limit]
    return scenarios


def _run_whatif(args: argparse.Namespace) -> int:
    from repro.whatif import WhatIfCampaign

    topology, context, timers, quiet = _deployment(args)
    scenarios = _whatif_scenarios(args, topology)
    if not scenarios:
        print("no scenarios to run")
        return 0
    print(
        f"what-if campaign over {topology.name}: "
        f"{len(scenarios)} {args.mode} scenario(s)"
    )
    campaign = WhatIfCampaign(
        topology,
        scenarios,
        context=context,
        timers=timers,
        quiet_period=quiet,
        seed=args.seed,
    )
    report = campaign.run(workers=args.workers)
    print()
    print(report.render())
    _write_json(args.json, report)
    return 2 if report.worst_severity else 0


def _parse_seeds(spec):
    """``--seeds`` spec: "8" means seeds 0..7, "1,5,9" means exactly those."""
    if spec is None:
        return None
    try:
        if "," in spec:
            return tuple(int(part) for part in spec.split(",") if part.strip())
        return tuple(range(int(spec)))
    except ValueError:
        raise SystemExit(f"--seeds wants a count or a comma list, not {spec!r}")


def _run_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_chaos

    topology, context, timers, quiet = _deployment(args)
    [plan] = _fault_plans(args, topology, args.plan, crash=not args.no_crash)
    print(f"chaos run over {topology.name}: plan {plan.name!r}, "
          f"{len(plan)} fault(s)")
    for line in plan.describe()["faults"]:
        print(f"  - {line}")
    report = run_chaos(
        topology,
        plan,
        context=context,
        seed=args.seed,
        seeds=_parse_seeds(args.seeds),
        timers=timers,
        quiet_period=quiet,
        temporal=True if args.temporal else None,
    )
    print()
    print(f"survived:                  {'yes' if report.survived else 'NO'}")
    print(f"faults fired:              {len(report.fault_log)}")
    print(f"extraction retries:        {report.total_retries}")
    print(f"degraded nodes:            "
          f"{', '.join(sorted(report.degraded_nodes)) or '(none)'}")
    print(f"verdict stability:         {report.stability:.4f}")
    print(f"degraded verdict fraction: "
          f"{report.degraded_verdict_fraction:.4f}")
    if report.ensemble:
        per_seed = report.ensemble["per_seed_stability"]
        print(f"stability ensemble:        {len(per_seed)} seed(s), "
              f"{report.ensemble['distinct_faulted_outcomes']} distinct "
              f"faulted outcome(s)")
        for run_seed, value in per_seed.items():
            print(f"  seed {run_seed:<4} stability {value:.4f}")
    if report.temporal:
        print(f"transient intervals:       "
              f"{report.temporal.get('transient', 0)} "
              f"(over {report.temporal.get('checkpoints', 0)} checkpoints)")
    _write_json(args.json, report)
    return 0 if report.survived else 2


def _fault_plans(
    args: argparse.Namespace,
    topology,
    kind: str,
    *,
    count: int = 1,
    crash: bool = True,
) -> list:
    """``count`` plans of ``kind`` over ``topology``'s nodes, drawn from
    ``--plan-seed`` onwards (an acceptance plan is always just one)."""
    from repro.chaos import acceptance_plan, sampled_plan

    names = sorted(spec.name for spec in topology.nodes)
    if kind == "acceptance":
        return [acceptance_plan(names, crash_at=args.crash_at)]
    return [
        sampled_plan(
            names,
            seed=args.plan_seed + i,
            intensity=args.intensity,
            crash=crash,
            crash_at=args.crash_at,
        )
        for i in range(count)
    ]


def _run_ensemble(args: argparse.Namespace) -> int:
    from repro.ensemble import EnsembleRunner, default_ensemble_invariants

    topology, context, timers, quiet = _deployment(args)
    seeds = _parse_seeds(args.seeds)
    # The fault-free member is always in the matrix.
    plans = [None]
    if args.plans != "none":
        plans += _fault_plans(args, topology, args.plans, count=args.plan_count)
    invariants = default_ensemble_invariants()
    if args.waypoint:
        invariants.append(_parse_waypoint(args.waypoint))
    runner = EnsembleRunner(
        topology,
        context=context,
        seeds=seeds,
        plans=plans,
        invariants=invariants,
        temporal=True if args.temporal else None,
        timers=timers,
        quiet_period=quiet,
    )
    print(
        f"ensemble over {topology.name}: {len(runner.seeds)} seed(s) x "
        f"{len(runner.plans)} plan(s) = {len(runner.matrix)} run(s)"
    )
    report = runner.run(workers=args.workers)
    print()
    print(report.render())
    _write_json(args.json, report)
    return 2 if report.unstable else 0


def _temporal_invariants(args: argparse.Namespace):
    from repro.temporal import MaxChurn
    from repro.verify.invariants import Blackhole, Loop

    invariants = [
        Loop(max_sim_s=args.max_loop_s),
        Blackhole(max_sim_s=args.max_blackhole_s),
    ]
    if args.max_churn is not None:
        invariants.append(MaxChurn(args.max_churn))
    if args.waypoint:
        invariants.append(_parse_waypoint(args.waypoint))
    return invariants


def _temporal_scenario(args: argparse.Namespace, topology):
    from repro.whatif import link_flap_scenarios

    plans = list(link_flap_scenarios(topology, hold_seconds=args.flap_hold))
    if not plans:
        raise SystemExit(f"topology {topology.name} has no links to flap")
    matching = [p for p in plans if args.flap in p.name] if args.flap else plans
    if not matching:
        raise SystemExit(
            f"no link matching {args.flap!r}; "
            f"have {', '.join(p.name for p in plans)}"
        )
    return matching[0]


def _run_temporal(args: argparse.Namespace) -> int:
    from repro.temporal import (
        CheckpointRecorder,
        CheckpointStream,
        evaluate_stream,
    )

    invariants = _temporal_invariants(args)
    if args.replay:
        stream = CheckpointStream.load(args.replay)
        print(
            f"replaying {args.replay}: {len(stream)} checkpoint(s) over "
            f"{len(stream.initial.dataplane.devices)} device(s)"
        )
    else:
        topology, context, timers, quiet = _deployment(args)
        backend = ModelFreeBackend(
            topology, timers=timers, quiet_period=quiet
        )
        print(f"deploying {topology.name} and converging a baseline...")
        backend.run(context, seed=args.seed)
        assert backend.last_run is not None
        deployment = backend.last_run.deployment
        scenario = _temporal_scenario(args, topology)
        print(f"recording checkpoints through {scenario.name!r}...")
        recorder = CheckpointRecorder(deployment)
        recorder.arm()
        scenario.apply(deployment)
        deployment.wait_converged(
            quiet_period=max(quiet, scenario.min_quiet_period)
        )
        stream = recorder.finalize()
        if args.save_stream:
            stream.save(args.save_stream)
            print(f"stream written to {args.save_stream}")
    report = evaluate_stream(
        stream, invariants, use_delta=not args.brute_force
    )
    print()
    print(report.render())
    # What a snapshot-based check sees of the same episode: only the
    # final, converged state.
    final = stream.final.dataplane
    loops = len(detect_loops(final))
    blackholes = len(detect_blackholes(final))
    print()
    print(
        f"post-convergence verify on the final state: "
        f"{loops} loop(s), {blackholes} blackhole(s)"
    )
    transient = len(report.transient)
    if transient:
        print(
            f"temporal verification found {transient} transient "
            f"interval(s) a post-convergence check cannot see"
        )
    _write_json(args.json, report)
    return 2 if report.intervals else 0


def _obs_timeline_whatif(args: argparse.Namespace) -> int:
    """Trace a small what-if campaign and render its timeline: the
    per-scenario ``whatif:<name>`` phase spans nest apply/converge/
    extract/verify/revert, and the verdicts section ranks the damage."""
    from repro.corpus.fig2 import fig2_scenario
    from repro.protocols.timers import FAST_TIMERS
    from repro.whatif import WhatIfCampaign, single_link_failures

    topology = fig2_scenario().topology
    scenarios = list(single_link_failures(topology))[:2]
    with tracing() as tracer:
        campaign = WhatIfCampaign(
            topology,
            scenarios,
            timers=FAST_TIMERS,
            quiet_period=args.quiet_period,
            seed=args.seed,
        )
        report = campaign.run()
    timeline = ConvergenceTimeline.from_tracer(tracer)
    print(
        timeline.render(
            f"What-if timeline - fig2, {len(scenarios)} scenarios "
            f"(seed {args.seed})"
        )
    )
    print()
    print(report.render())
    if args.trace:
        lines = write_jsonl(tracer, args.trace)
        print(f"trace written to {args.trace} ({lines} records)")
    return 2 if report.worst_severity else 0


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.protocols.timers import FAST_TIMERS

    if not args.topology and args.scenario == "whatif":
        return _obs_timeline_whatif(args)
    if args.topology:
        topology = load_topology(args.topology)
        title = f"Convergence timeline - {topology.name}"
    elif args.scenario == "fig3":
        from repro.corpus.fig3 import fig3_scenario

        topology = fig3_scenario().topology
        title = "Convergence timeline - fig3 (3-node line)"
    else:
        from repro.corpus.fig2 import fig2_scenario

        topology = fig2_scenario().topology
        title = "Convergence timeline - fig2 (6-node demo)"

    with tracing() as tracer:
        backend = ModelFreeBackend(
            topology, timers=FAST_TIMERS, quiet_period=args.quiet_period
        )
        snapshot = backend.run(seed=args.seed, verify=True)
    counts = snapshot.metadata["verification"]
    timeline = ConvergenceTimeline.from_tracer(tracer)
    print(timeline.render(f"{title} (seed {args.seed})"))
    print()
    print(
        f"Verification: {counts['loops']} forwarding loops, "
        f"{counts['blackholes']} blackholed destinations, "
        f"{counts['unreachable_pairs']} unreachable device pairs"
    )
    if args.trace:
        lines = write_jsonl(tracer, args.trace)
        print(f"trace written to {args.trace} ({lines} records)")
    return 0 if not counts["loops"] else 2


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    tracer = read_jsonl(args.trace_file)
    print(summary_text(tracer, title=f"Trace summary - {args.trace_file}"))
    return 0


def _cmd_obs_waterfall(args: argparse.Namespace) -> int:
    from repro.obs.timeline import waterfall_text

    tracer = read_jsonl(args.trace_file)
    try:
        print(waterfall_text(tracer, args.job_id))
    except KeyError as exc:
        print(exc.args[0] if exc.args else str(exc))
        return 2
    return 0


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    from repro.obs import read_metrics_jsonl, render_prometheus

    registry = read_metrics_jsonl(args.trace_file)
    if args.format == "records":
        import json

        for record in registry.collect():
            print(json.dumps(record, sort_keys=True))
    else:
        text = render_prometheus(registry)
        if text:
            print(text, end="")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import signal as signal_mod

    from repro.service import SnapshotStore, VerificationService
    from repro.service.frontend import serve_loop

    kwargs = {
        # Sized before recovery re-registers the journaled snapshots.
        "store": SnapshotStore(capacity=args.store),
        "workers": args.workers,
        "max_queue_depth": args.queue_depth,
        "worker_mode": args.worker_mode,
    }
    if args.recover:
        if not args.journal:
            print("--recover requires --journal", file=sys.stderr)
            return 2
        service, report = VerificationService.recover(args.journal, **kwargs)
        print(
            f"recovered from {args.journal}: "
            f"{report.snapshots_recovered} snapshot(s), "
            f"{report.jobs_requeued} job(s) requeued, "
            f"{report.jobs_dead_lettered} dead-lettered "
            f"in {report.wall_seconds:.3f}s",
            file=sys.stderr, flush=True,
        )
    else:
        service = VerificationService(journal_dir=args.journal, **kwargs)
    for path in args.snapshots:
        name, fingerprint = service.load_snapshot(path)
        print(
            f"loaded {name} ({fingerprint:#x})", file=sys.stderr, flush=True
        )

    def _on_sigterm(signum, frame):
        raise SystemExit(0)

    previous = signal_mod.signal(signal_mod.SIGTERM, _on_sigterm)
    handled = 0
    try:
        service.start()
        handled = serve_loop(service)
    except SystemExit:
        # Graceful drain: stop admitting, settle (or journal) what's
        # in flight, flush the journal, exit 0.
        print("SIGTERM: draining service", file=sys.stderr, flush=True)
    finally:
        counts = service.stop()
        signal_mod.signal(signal_mod.SIGTERM, previous)
        print(
            f"drained: {counts.get('settled', 0)} settled, "
            f"{counts.get('rejected', 0)} rejected",
            file=sys.stderr, flush=True,
        )
    print(f"served {handled} request(s)", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import JobFailedError, OverloadedError, VerificationService

    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"bad --param {item!r} (expected KEY=VALUE)")
            return 2
        params[key] = value
    with VerificationService(workers=args.workers) as service:
        service.load_snapshot(args.snapshot, name="snapshot")
        kwargs = {"snapshot": "snapshot"}
        if args.reference:
            service.load_snapshot(args.reference, name="reference")
            kwargs["reference_snapshot"] = "reference"
        job = service.submit(
            args.question,
            params,
            priority=args.priority,
            timeout=args.timeout,
            **kwargs,
        )
        try:
            result = job.result(args.timeout)
        except OverloadedError as exc:
            print(f"rejected: {exc}")
            return 3
        except JobFailedError as exc:
            print(f"failed: {exc.__cause__ or exc}")
            return 2
    print(result.value)
    return 0


def _add_deployment_args(
    parser: argparse.ArgumentParser, *, corpus: str
) -> None:
    """What to deploy and where the output goes: the argument group
    ``whatif``, ``chaos``, ``ensemble`` and ``temporal`` share."""
    group = parser.add_argument_group("deployment")
    group.add_argument(
        "topology",
        nargs="?",
        default=None,
        help="KNE-style topology file (default: a built-in corpus)",
    )
    group.add_argument(
        "--corpus",
        choices=("fig2", "fig3", "production"),
        default=corpus,
        help="built-in corpus when no topology file is given",
    )
    group.add_argument(
        "--nodes", type=int, default=8, help="production corpus size"
    )
    group.add_argument(
        "--routes", type=int, default=1000,
        help="production corpus routes per peer",
    )
    group.add_argument("--quiet-period", type=float, default=None)
    group.add_argument(
        "--fast", action="store_true",
        help="compressed protocol timers for a topology file",
    )
    group.add_argument("--json", help="write the report JSON here")
    group.add_argument(
        "--trace", help="record an observability trace to this JSONL file"
    )


def _add_fault_plan_args(parser: argparse.ArgumentParser) -> None:
    """The knobs :func:`_fault_plans` reads (``chaos``, ``ensemble``)."""
    group = parser.add_argument_group("fault plan")
    group.add_argument(
        "--plan-seed", type=int, default=0,
        help="seed for the (first) sampled plan's fault draw",
    )
    group.add_argument(
        "--intensity", type=int, default=3,
        help="fault count per sampled plan",
    )
    group.add_argument(
        "--crash-at", type=float, default=900.0,
        help="simulated seconds before a plan's pod crash fires",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfv", description="Model-free network verification"
    )
    parser.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help="-v for INFO logs, -vv for DEBUG",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="emulate + verify a topology")
    verify.add_argument("topology", help="KNE-style topology file")
    verify.add_argument(
        "--backend", choices=("emulation", "model"), default="emulation"
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--quiet-period", type=float, default=30.0)
    verify.add_argument("--save", help="write the snapshot JSON here")
    verify.add_argument(
        "--trace", help="record an observability trace to this JSONL file"
    )
    verify.add_argument(
        "--delta-stats",
        action="store_true",
        help="print how the engine was derived (delta apply vs cold build)",
    )
    verify.set_defaults(func=_traced(_run_verify))

    diff = sub.add_parser("diff", help="differential reachability")
    diff.add_argument("reference")
    diff.add_argument("snapshot")
    diff.add_argument(
        "--delta-stats",
        action="store_true",
        help="print dirty atoms / reused indexes / fallback reason for "
        "the snapshot engine's incremental derivation",
    )
    diff.set_defaults(func=_cmd_diff)

    trace = sub.add_parser("trace", help="virtual traceroute")
    trace.add_argument("snapshot")
    trace.add_argument("node")
    trace.add_argument("destination")
    trace.set_defaults(func=_cmd_trace)

    routes = sub.add_parser("routes", help="show a snapshot's FIBs")
    routes.add_argument("snapshot")
    routes.add_argument("node", nargs="?", default=None)
    routes.set_defaults(func=_cmd_routes)

    demo = sub.add_parser("demo", help="run a built-in paper scenario")
    demo.add_argument("scenario", choices=("fig2", "fig3", "production"))
    demo.add_argument("--nodes", type=int, default=12)
    demo.add_argument("--routes", type=int, default=5000)
    demo.add_argument(
        "--trace", help="record an observability trace to this JSONL file"
    )
    demo.set_defaults(func=_traced(_run_demo))

    whatif = sub.add_parser(
        "whatif", help="fault-exploration campaign on a warm deployment"
    )
    _add_deployment_args(whatif, corpus="fig2")
    whatif.add_argument(
        "--mode",
        choices=("links", "nodes", "flaps", "k-links"),
        default="links",
        help="which fault sweep to run",
    )
    whatif.add_argument(
        "--k", type=int, default=2, help="combination size for k-links mode"
    )
    whatif.add_argument(
        "--flap-hold", type=float, default=30.0,
        help="seconds a flapped link stays down",
    )
    whatif.add_argument(
        "--limit", type=int, default=None,
        help="run only the first N scenarios",
    )
    whatif.add_argument("--seed", type=int, default=0)
    whatif.add_argument(
        "--workers", type=int, default=1,
        help="shard scenarios across N worker processes, each paying its "
        "own cold bring-up; default: %(default)s (in process)",
    )
    whatif.set_defaults(func=_traced(_run_whatif))

    chaos = sub.add_parser(
        "chaos",
        help="run a corpus under a fault plan and score verdict stability",
    )
    _add_deployment_args(chaos, corpus="production")
    chaos.add_argument(
        "--plan",
        choices=("acceptance", "sampled"),
        default="acceptance",
        help="acceptance: one crash + gNMI flakes; "
        "sampled: seed-drawn fault mix",
    )
    _add_fault_plan_args(chaos)
    chaos.add_argument(
        "--no-crash", action="store_true",
        help="sampled plan: skip the pod crash",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--seeds", default=None,
        help="score stability over an ensemble of faulted runs: a count "
        "(\"8\" = seeds 0..7) or a comma list (\"1,5,9\")",
    )
    chaos.add_argument(
        "--temporal", action="store_true",
        help="record a checkpoint stream through the faulted run and "
        "score transient-state invariants",
    )
    chaos.set_defaults(func=_traced(_run_chaos))

    ensemble = sub.add_parser(
        "ensemble",
        help="seeded ensemble verification: holds-always / "
        "holds-sometimes / never over the set of converged states",
    )
    _add_deployment_args(ensemble, corpus="fig3")
    ensemble.add_argument(
        "--seeds", default=str(DEFAULT_SEEDS),
        help="a count (\"8\" = seeds 0..7) or a comma list (\"1,5,9\"); "
        "default: %(default)s",
    )
    ensemble.add_argument(
        "--plans",
        choices=("none", "acceptance", "sampled"),
        default="none",
        help="cross the seed sweep with fault plans (the fault-free "
        "member is always included)",
    )
    ensemble.add_argument(
        "--plan-count", type=int, default=2,
        help="sampled plans to draw (seeds plan-seed, plan-seed+1, ...)",
    )
    _add_fault_plan_args(ensemble)
    ensemble.add_argument(
        "--temporal", action="store_true",
        help="record a checkpoint stream per member run and fold "
        "transient-state invariants into the verdicts",
    )
    ensemble.add_argument(
        "--waypoint", default=None,
        help="DEST_IP:VIA_NODE — add a waypoint invariant to the battery",
    )
    ensemble.add_argument(
        "--workers", type=int, default=1,
        help="shard the (seed x plan) matrix across N worker processes; "
        "default: %(default)s (in process)",
    )
    ensemble.set_defaults(func=_traced(_run_ensemble))

    temporal = sub.add_parser(
        "temporal",
        help="transient-state verification: check invariants during "
        "convergence, not just after",
    )
    _add_deployment_args(temporal, corpus="fig3")
    temporal.add_argument(
        "--flap", default=None,
        help="link to flap, as an A-Z substring of the scenario name "
        "(default: the first link)",
    )
    temporal.add_argument(
        "--flap-hold", type=float, default=15.0,
        help="seconds the flapped link stays down",
    )
    temporal.add_argument(
        "--replay", default=None,
        help="evaluate a saved checkpoint stream instead of running live",
    )
    temporal.add_argument(
        "--save-stream", default=None,
        help="write the recorded checkpoint stream JSON here",
    )
    temporal.add_argument(
        "--brute-force", action="store_true",
        help="rebuild a cold engine per checkpoint instead of applying "
        "deltas (the oracle mode)",
    )
    temporal.add_argument(
        "--max-loop-s", type=float, default=0.0,
        help="tolerate transient loops shorter than this many sim-seconds",
    )
    temporal.add_argument(
        "--max-blackhole-s", type=float, default=0.0,
        help="tolerate transient blackholes shorter than this",
    )
    temporal.add_argument(
        "--max-churn", type=float, default=None,
        help="flag checkpoints installing more than N routes/sim-second",
    )
    temporal.add_argument(
        "--waypoint", default=None,
        help="DEST_IP:VIA_NODE — require traffic to DEST_IP to traverse "
        "VIA_NODE at every checkpoint",
    )
    temporal.add_argument("--seed", type=int, default=0)
    temporal.set_defaults(func=_traced(_run_temporal))

    obs = sub.add_parser("obs", help="observability: timelines and traces")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    timeline = obs_sub.add_parser(
        "timeline", help="run a scenario traced and print its timeline"
    )
    timeline.add_argument(
        "--scenario", choices=("fig2", "fig3", "whatif"), default="fig2"
    )
    timeline.add_argument(
        "--topology", help="trace a KNE-style topology file instead"
    )
    timeline.add_argument("--seed", type=int, default=0)
    timeline.add_argument("--quiet-period", type=float, default=5.0)
    timeline.add_argument(
        "--trace", help="also save the trace to this JSONL file"
    )
    timeline.set_defaults(func=_cmd_obs_timeline)

    summary = obs_sub.add_parser(
        "summary", help="summarize a saved JSONL trace"
    )
    summary.add_argument("trace_file", help="JSONL file from --trace")
    summary.set_defaults(func=_cmd_obs_summary)

    waterfall = obs_sub.add_parser(
        "waterfall", help="render one service job's lifecycle from a trace"
    )
    waterfall.add_argument("trace_file", help="JSONL file from --trace")
    waterfall.add_argument("job_id", type=int, help="service job id")
    waterfall.set_defaults(func=_cmd_obs_waterfall)

    metrics = obs_sub.add_parser(
        "metrics", help="render the metrics plane from a saved trace"
    )
    metrics.add_argument(
        "trace_file", help="JSONL trace or metrics export file"
    )
    metrics.add_argument(
        "--format",
        choices=("prometheus", "records"),
        default="prometheus",
        help="output shape (default: %(default)s)",
    )
    metrics.set_defaults(func=_cmd_obs_metrics)

    serve = sub.add_parser(
        "serve", help="continuous verification service (JSON-lines on stdin)"
    )
    serve.add_argument(
        "snapshots", nargs="*", help="snapshot JSON files to preload"
    )
    serve.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help="worker threads or processes (default: %(default)s)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
        help="admission-control watermark (default: %(default)s)",
    )
    serve.add_argument(
        "--store", type=int, default=DEFAULT_CAPACITY,
        help="resident snapshot capacity (default: %(default)s)",
    )
    serve.add_argument(
        "--trace", help="record an observability trace to this JSONL file"
    )
    serve.add_argument(
        "--journal", default=None, metavar="DIR",
        help="durable job journal directory (required by --recover)",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="replay the journal before serving: re-register snapshots, "
        "requeue unsettled jobs, dead-letter past the redelivery limit",
    )
    serve.add_argument(
        "--worker-mode", choices=("thread", "process"), default="thread",
        help="worker isolation (default: %(default)s); in process mode "
        "each worker runs questions in its own crash-isolated child",
    )
    serve.set_defaults(func=_traced(_run_serve, to_stderr=True))

    submit = sub.add_parser(
        "submit", help="run one question through the verification service"
    )
    submit.add_argument("snapshot", help="snapshot JSON file")
    submit.add_argument("question", help="pybf question name")
    submit.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="question parameter (repeatable)",
    )
    submit.add_argument(
        "--reference", help="reference snapshot for differential questions"
    )
    submit.add_argument(
        "--priority", default=None,
        help="interactive | differential | campaign",
    )
    submit.add_argument("--timeout", type=float, default=None)
    submit.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    submit.set_defaults(func=_cmd_submit)

    return parser


def _configure_logging(verbosity: int) -> None:
    level = {0: logging.WARNING, 1: logging.INFO}.get(verbosity, logging.DEBUG)
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
