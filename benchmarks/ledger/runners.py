"""Run one workload: the timed pass, or the traced pass.

The timed pass calls only what a user calls (``ModelFreeBackend.run``,
``WhatIfCampaign.run``, ``VerificationService.submit``), repeats the
operation until ``seconds`` have been measured, and reports the five
end-to-end metrics. The traced pass does the same work with
``repro.obs.tracing()`` installed for its exact counters and a
:class:`~benchmarks.ledger.spans.SpanLog` around this file's own calls
into each layer, then profiles one more operation; none of its timings
feed an end-to-end number.

Every output check is a function that returns a list of problems, so
the tests can feed one a corrupted answer.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import shutil
import statistics
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional

from repro.core.pipeline import ModelFreeBackend
from repro.core.snapshot import Snapshot
from repro.corpus.routes import RouteInjector
from repro.dataplane.delta import DataplaneDelta
from repro.dataplane.model import Dataplane
from repro.gnmi.server import dump_afts, extract_afts
from repro.kube.cluster import KubeCluster
from repro.kube.kne import KneDeployment
from repro.obs import tracing
from repro.pybf.session import Session
from repro.service import VerificationService
from repro.sim.kernel import SimKernel
from repro.verify.engine import clear_engine_cache, engine_for
from repro.verify.invariants import verification_summary
from repro.verify.reachability import ReachabilityAnalysis
from repro.whatif.campaign import WhatIfCampaign

from . import workloads
from .report import WORK_DIR, contract, percentile, scalar, summarise
from .spans import SpanLog

SETUP_REPS = 3
CLIENT_TIMEOUT_S = 60.0

#: ``prof.<package>_share`` rows: the packages that carry a run.
_PROFILED = ("net", "protocols", "rib", "kube", "sim", "gnmi", "dataplane",
             "verify", "service")


def cpu_seconds() -> float:
    """Process + children CPU, so a wall gain bought with a core shows."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Timed:
    """Accumulates the wall and CPU seconds of the timed regions."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.last = 0.0

    def __enter__(self) -> "Timed":
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.last = time.perf_counter() - self._wall
        self.wall += self.last
        self.cpu += cpu_seconds() - self._cpu


class Pass:
    """The outcome of one pass: counts, problems and named metrics.

    Metric names and units come from ``BENCHMARK.json``; a name the
    contract does not list is a bug here, and a per-layer name this
    workload never touched reads 0 (it bypasses that layer).
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.profile_top: list[dict] = []
        section = "per_layer" if trace else "end_to_end"
        self._units = {m["name"]: m["unit"] for m in contract()[section]}

    def observe(self, name: str, values) -> None:
        self.metrics[name] = summarise(values, self._units[name])

    def set(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = scalar(float(value), self._units[name], n)

    def result(self) -> dict:
        metrics = {
            name: self.metrics.get(name, scalar(0.0, unit, 0))
            for name, unit in self._units.items()
        }
        return {
            "trace": self.trace,
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "metrics": metrics,
            "profile_top": self.profile_top,
        }


def repeat(op: Callable[[], None], seconds: float, timed: Timed) -> int:
    """Run ``op`` until ``seconds`` are measured; returns how many ran.

    Another one starts only if half of it still fits, so a run measures
    ``seconds`` give or take half an operation. Garbage from the last
    operation is collected between regions, not inside the next one.
    """
    count = 0
    while count == 0 or timed.wall + 0.5 * timed.wall / count < seconds:
        gc.collect()
        op()
        count += 1
    return count


def measure_setup(prepare: Callable[[], object]):
    """Set up ``SETUP_REPS`` times; report the median, keep the last."""
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        prepared = prepare()
        samples.append(time.perf_counter() - start)
    return prepared, samples


def finish_timed(
    p: Pass, import_s: float, setup: list[float], answer_ms: list[float],
    timed: Timed,
) -> None:
    answers = len(answer_ms)
    p.observe("setup_s", [import_s + s for s in setup])
    p.observe("answer_ms", answer_ms)
    p.set("answers_per_min", answers * 60.0 / timed.wall, answers)
    p.set("cpu_ms_per_answer", timed.cpu * 1000.0 / answers, answers)
    p.set("peak_rss_mb", peak_rss_mb())


def profile(op: Callable[[], None], p: Pass) -> None:
    """One more operation under cProfile: ``tottime`` share per package.

    Every thread the operation starts gets its own profiler, clocked in
    thread CPU time so that a worker parked on its queue costs nothing.
    cProfile taxes Python calls and not native code, so the shares point
    at candidates; they are never mixed with timed or traced numbers.
    """
    profilers = []

    def enable(*_event) -> None:
        # Installed as a new thread's Python-level profile hook; the
        # first event swaps it for that thread's C profiler.
        profilers.append(cProfile.Profile(time.thread_time))
        profilers[-1].enable()

    threading.setprofile(enable)
    enable()
    try:
        op()
    finally:
        threading.setprofile(None)
        profilers[0].disable()
    stats = pstats.Stats(*profilers)
    packages: Counter = Counter()
    modules: Counter = Counter()
    total = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        total += tottime
        _, found, tail = filename.partition("/repro/")
        if found:
            packages[tail.split("/")[0]] += tottime
            modules["repro." + tail[:-3].replace("/", ".")] += tottime
        else:
            packages["builtin"] += tottime
    for package in (*_PROFILED, "builtin"):
        p.set(f"prof.{package}_share", packages[package] / total)
    p.profile_top = [
        {"module": module, "share": seconds / total}
        for module, seconds in modules.most_common(10)
    ]


def noop_event_us(events: int) -> float:
    """Microseconds per no-op ``schedule`` + ``step`` on a bare kernel."""
    kernel = SimKernel()
    start = time.perf_counter()
    for _ in range(events):
        kernel.schedule(0.0, _noop)
        kernel.step()
    return (time.perf_counter() - start) * 1e6 / events


def _noop() -> None:
    pass


# -- cold runs ---------------------------------------------------------------


def _row_key(rows) -> dict:
    return {(r.ingress, r.dispositions): r.dst_set for r in rows}


def check_cold_oracle(dataplane: Dataplane, ingresses, engine_rows=None) -> list[str]:
    """Engine rows must equal the scalar ``ForwardingWalk`` oracle."""
    if engine_rows is None:
        engine_rows = ReachabilityAnalysis(dataplane).analyze(ingresses)
    oracle = ReachabilityAnalysis(dataplane, use_engine=False).analyze(ingresses)
    if _row_key(engine_rows) != _row_key(oracle):
        return [f"engine rows differ from the scalar oracle on {list(ingresses)}"]
    return []


def check_repeatable(signatures: list) -> list[str]:
    """Same kernel seed, same summary and counts, every repetition."""
    if any(s != signatures[0] for s in signatures):
        return [f"cold runs with one kernel seed disagree: {signatures}"]
    return []


def _entries(afts) -> int:
    return sum(len(aft.entries) for aft in afts.values())


def cold_op(em: workloads.Emulation):
    """One cold run the way a user makes it; returns (snapshot, signature)."""
    clear_engine_cache()
    backend = ModelFreeBackend(
        em.topology, timers=em.timers, quiet_period=em.quiet_period
    )
    snapshot = backend.run(em.context, seed=em.kernel_seed, verify=True)
    signature = (
        tuple(sorted(snapshot.metadata["verification"].items())),
        _entries(snapshot.afts),
        backend.last_run.deployment.kernel.events_processed,
        snapshot.convergence_seconds,
    )
    return snapshot, signature


def cold_timed(inputs: workloads.ColdInputs, seconds: float, p: Pass, timed: Timed):
    answer_ms: list[float] = []
    signatures = []
    last = [None]  # only the newest snapshot: the rest would inflate RSS

    def op() -> None:
        with timed:
            last[0], signature = cold_op(inputs.emulation)
        answer_ms.append(timed.last * 1000.0)
        signatures.append(signature)

    p.attempted = repeat(op, seconds, timed)
    p.problems += check_repeatable(signatures)
    p.problems += check_cold_oracle(last[0].dataplane, inputs.oracle_ingresses)
    return answer_ms


def cold_layers(em: workloads.Emulation, log: SpanLog, trace: int):
    """The cold run again, layer by layer, a span around each call.

    Mirrors ``ModelFreeBackend.run(verify=True)``; the caller checks the
    signature against an untraced run so the two cannot drift apart.
    """
    clear_engine_cache()
    with log.span("cold_run", trace):
        with log.span("kube.deploy"):
            deployment = KneDeployment(
                em.topology, cluster=KubeCluster(), timers=em.timers,
                seed=em.kernel_seed,
            )
            deployment.deploy()
        kernel = deployment.kernel
        deploy_events = kernel.events_processed
        with log.span("corpus.inject"):
            for spec in em.context.injectors:
                RouteInjector(
                    spec, kernel, deployment.fabric, timers=em.timers
                ).start()
        with log.span("protocols.converge"):
            deployment.wait_converged(quiet_period=em.quiet_period)
        with log.span("gnmi.extract"):
            extraction = extract_afts(deployment)
        with log.span("dataplane.build"):
            dataplane = Dataplane.from_afts(extraction.afts)
            dataplane.fib_fingerprint()
        with log.span("verify.engine_init"):
            engine = engine_for(dataplane)
        with log.span("verify.precompute"):
            engine.precompute()
        with log.span("verify.query"):
            summary = verification_summary(dataplane)
    signature = (
        tuple(sorted(summary.items())),
        _entries(extraction.afts),
        kernel.events_processed,
        deployment.report.convergence_seconds,
    )
    return signature, {
        "kube.deploy_events": deploy_events,
        "gnmi.retries": extraction.total_retries,
    }


def _obs_counters(p: Pass, rows: list[dict], noop_us: float) -> None:
    """Per-operation tracer counters: sim, protocols, corpus, verify."""
    def col(name):
        return [row.get(name, 0) for row in rows]

    p.observe("sim.events", col("kernel.dispatch"))
    p.set("sim.noop_event_us", noop_us)
    p.set("sim.kernel_s", statistics.median(col("kernel.dispatch")) * noop_us / 1e6)
    for label in ("fabric", "bgp-keepalive", "bgp-mrai", "deliver", "isis-hello"):
        p.observe(f"sim.dispatch.{label}", col(f"kernel.dispatch.{label}"))
    p.observe("protocols.bgp_prefixes_received", col("bgp.prefixes.received"))
    p.observe("protocols.bgp_updates_received", col("bgp.update.received"))
    p.observe("protocols.isis_spf_runs", col("isis.spf.runs"))
    p.observe("corpus.routes_sent", col("inject.routes.sent"))
    for name in ("atoms", "graph_builds", "graph_shared", "index_probes",
                 "scalar_walks"):
        p.observe(f"verify.{name}", col(f"verify.{name}"))
    p.observe("verify.dirty_atoms", col("verify.delta_dirty_atoms"))
    p.observe("verify.delta_fallbacks", col("verify.delta_fallbacks"))


def cold_traced(inputs: workloads.ColdInputs, seconds: float, p: Pass, log: SpanLog):
    em = inputs.emulation
    reference = Timed()
    signatures = []

    def untraced() -> None:
        with reference:
            signatures.append(cold_op(em)[1])

    plain = repeat(untraced, 0.3 * seconds, reference)

    traced = Timed()
    rows: list[dict] = []

    def layered() -> None:
        with tracing() as tracer, traced:
            signature, counts = cold_layers(em, log, len(rows))
        signatures.append(signature)
        rows.append({**tracer.counters, **counts})

    ops = repeat(layered, 0.4 * seconds, traced)
    p.attempted = plain + ops
    p.problems += check_repeatable(signatures)
    for root in (s for s in log.spans if s.name == "cold_run"):
        if log.self_seconds(root) > 0.05 * root.seconds:
            p.problems.append(
                f"layer spans cover only {1 - log.self_seconds(root) / root.seconds:.1%}"
                " of a traced cold run"
            )

    noop_us = noop_event_us(200_000)
    _obs_counters(p, rows, noop_us)
    # Counts repeat exactly (checked above), so the first row speaks for all.
    _, entries, events, convergence_s = signatures[0]
    converge_events = events - rows[0]["kube.deploy_events"]
    prefixes = rows[0].get("bgp.prefixes.received", 0)
    for span in ("kube.deploy", "corpus.inject", "protocols.converge",
                 "gnmi.extract", "dataplane.build", "verify.engine_init",
                 "verify.precompute", "verify.query"):
        p.observe(f"{span}_s", log.seconds(span))
    for name in ("kube.deploy_events", "gnmi.retries"):
        p.observe(name, [row[name] for row in rows])
    converge = statistics.median(log.seconds("protocols.converge"))
    p.set("sim.convergence_s", convergence_s)
    p.set("protocols.handler_s", converge - converge_events * noop_us / 1e6)
    p.set("protocols.us_per_event", converge * 1e6 / converge_events)
    p.set("protocols.us_per_prefix", converge * 1e6 / max(1, prefixes))
    p.set("gnmi.entries", entries)
    p.set("gnmi.us_per_entry",
          statistics.median(log.seconds("gnmi.extract")) * 1e6 / entries)
    p.set("dataplane.us_per_entry",
          statistics.median(log.seconds("dataplane.build")) * 1e6 / entries)
    p.set("obs.tracing_overhead_ratio",
          (traced.wall / ops) / (reference.wall / plain))
    profile(lambda: cold_op(em), p)


# -- churn campaign ----------------------------------------------------------


def check_campaign(report, scenarios) -> list[str]:
    """Every scenario answered, reverted clean, and no cold reset."""
    problems = []
    if len(report.verdicts) != len(scenarios):
        problems.append(
            f"{len(report.verdicts)} verdicts for {len(scenarios)} scenarios"
        )
    dirty = [v.scenario for v in report.verdicts if not v.reverted_clean]
    if dirty:
        problems.append(f"scenarios did not revert clean: {dirty}")
    if report.cold_resets:
        problems.append(f"{report.cold_resets} cold resets")
    return problems


def campaign_op(inputs: workloads.ChurnInputs):
    clear_engine_cache()
    em = inputs.emulation
    campaign = WhatIfCampaign(
        em.topology, inputs.scenarios, context=em.context, timers=em.timers,
        quiet_period=em.quiet_period, seed=em.kernel_seed, temporal=True,
    )
    return campaign, campaign.run()


def _phase_seconds(campaign, scenarios, phase: str = "") -> list[float]:
    suffix = f":{phase}" if phase else ""
    return [
        campaign.phases[f"whatif:{s.name}{suffix}"]["wall_seconds"]
        for s in scenarios
    ]


def churn_timed(inputs: workloads.ChurnInputs, seconds: float, p: Pass, timed: Timed):
    answer_ms: list[float] = []

    def op() -> None:
        with timed:
            campaign, report = campaign_op(inputs)
        p.problems += check_campaign(report, inputs.scenarios)
        p.failed += sum(not v.reverted_clean for v in report.verdicts)
        answer_ms.extend(
            s * 1000.0 for s in _phase_seconds(campaign, inputs.scenarios)
        )

    repeat(op, seconds, timed)
    p.attempted = len(answer_ms)
    return answer_ms


def churn_traced(inputs: workloads.ChurnInputs, p: Pass, log: SpanLog):
    """One campaign plain, one traced, one profiled: it is the unit of work."""
    scenarios = inputs.scenarios
    reference = Timed()
    with reference:
        _, plain_report = campaign_op(inputs)
    gc.collect()
    traced = Timed()
    with tracing() as tracer, traced, log.span("whatif.campaign"):
        campaign, report = campaign_op(inputs)
    p.attempted = 2 * len(scenarios)
    p.problems += check_campaign(report, scenarios)
    plain = [(v.scenario, v.severity, v.changed) for v in plain_report.verdicts]
    if plain != [(v.scenario, v.severity, v.changed) for v in report.verdicts]:
        p.problems.append("traced and untraced campaigns reached different verdicts")

    counters = tracer.counters
    _obs_counters(p, [counters], noop_event_us(200_000))
    p.set("sim.convergence_s", report.baseline_convergence_seconds)
    p.set("whatif.baseline_s", traced.wall - sum(_phase_seconds(campaign, scenarios)))
    for metric, phase in (
        ("apply_s", "apply"), ("reconverge_s", "converge"),
        ("extract_s", "extract"), ("verify_s", "verify"),
        ("revert_s", "revert"),
    ):
        p.observe(f"whatif.{metric}", _phase_seconds(campaign, scenarios, phase))
    p.set("whatif.cold_resets", report.cold_resets)
    evaluate = _phase_seconds(campaign, scenarios, "temporal")
    checkpoints = sum(v.temporal_checkpoints for v in report.verdicts)
    p.observe("temporal.evaluate_s", evaluate)
    p.set("temporal.checkpoints", checkpoints)
    p.set("temporal.ms_per_checkpoint", sum(evaluate) * 1000.0 / max(1, checkpoints))
    p.set("temporal.fallbacks", counters.get("verify.temporal_fallbacks", 0))
    p.set("temporal.intervals", sum(v.temporal_violations for v in report.verdicts))
    applies = [
        e.detail["delta_apply_seconds"]
        for e in tracer.events_in("whatif.verdict")
        if e.detail.get("delta_apply_seconds")
    ]
    p.observe("verify.apply_delta_s", applies)
    p.set("obs.tracing_overhead_ratio", traced.wall / reference.wall)
    profile(lambda: campaign_op(inputs), p)


# -- service -----------------------------------------------------------------


def build_pool(inputs: workloads.ServiceInputs) -> list[Snapshot]:
    """Converge once, then one distinct forwarding state per link cut."""
    em = inputs.emulation
    backend = ModelFreeBackend(
        em.topology, timers=em.timers, quiet_period=em.quiet_period
    )
    pool = [backend.run(em.context, seed=em.kernel_seed, snapshot_name="state0")]
    deployment = backend.last_run.deployment
    seen = {pool[0].dataplane.fib_fingerprint()}
    for cut in inputs.cuts:
        if len(pool) == inputs.pool_size:
            return pool
        cut.apply(deployment)
        deployment.wait_converged(quiet_period=em.quiet_period)
        snapshot = Snapshot(
            name=f"state{len(pool)}", afts=dump_afts(deployment),
            seed=em.kernel_seed,
        )
        cut.revert(deployment)
        deployment.wait_converged(quiet_period=em.quiet_period)
        fingerprint = snapshot.dataplane.fib_fingerprint()
        if fingerprint not in seen:
            seen.add(fingerprint)
            pool.append(snapshot)
    raise RuntimeError(
        f"only {len(pool)} distinct states from {len(inputs.cuts)} link cuts"
    )


class Record:
    """What one client operation left behind."""

    __slots__ = ("request", "latency_ms", "error", "rows", "submit_ms",
                 "job", "distinct")

    def __init__(self, request: workloads.Request) -> None:
        self.request = request
        self.latency_ms = 0.0
        self.error: Optional[str] = None
        self.rows = None  # answer rows, kept only for checked requests
        self.submit_ms = 0.0  # time inside submit(), write-ahead included
        self.job = None  # the JobResult, minus its value
        self.distinct = 0  # ensemble folds: distinct outcomes


def _perform(svc, pool, request: workloads.Request, record: Record, log) -> None:
    span = log.span if log is not None else (lambda name: nullcontext())
    if request.op == "write":
        svc.register_snapshot(pool[request.state], name=request.snapshot)
    submit_start = time.perf_counter()
    with span("service.submit"):
        if request.op == "ensemble":
            job = svc.submit_ensemble(list(request.members))
        else:
            job = svc.submit(
                request.question, dict(request.params),
                snapshot=request.snapshot,
                reference_snapshot="s0" if request.differential else None,
            )
    record.submit_ms = (time.perf_counter() - submit_start) * 1000.0
    with span("service.wait"):
        result = job.result(timeout=CLIENT_TIMEOUT_S)
    answer, result.value = result.value, None
    record.job = result
    if request.op == "ensemble":
        record.distinct = answer.distinct
        if not answer.verdicts:
            record.error = "ensemble folded no verdicts"
        return
    rows = answer.frame().rows
    if request.question in ("traceroute", "reachability", "routes") and not rows:
        record.error = f"empty {request.question} answer"
    if request.check:
        record.rows = rows


def _client(svc, pool, stream, stop, records: list, log) -> None:
    """Closed loop: the next request leaves when the last one answered."""
    for request in stream:
        if stop():
            return
        record = Record(request)
        start = time.perf_counter()
        try:
            _perform(svc, pool, request, record, log)
        except Exception as exc:  # count it, keep the loop offering load
            record.error = f"{type(exc).__name__}: {exc}"
        record.latency_ms = (time.perf_counter() - start) * 1000.0
        records.append(record)


def _drive(svc, pool, streams, stop, log=None) -> list[Record]:
    per_client: list[list[Record]] = [[] for _ in streams]
    threads = [
        threading.Thread(
            target=_client, args=(svc, pool, stream, stop, records, log)
        )
        for stream, records in zip(streams, per_client)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for records in per_client for record in records]


def check_service_answers(records: list[Record], pool: list[Snapshot]) -> list[str]:
    """Each sampled answer must equal a plain ``Session``'s, row for row."""
    session = Session()
    for index, snapshot in enumerate(pool):
        session.init_snapshot(snapshot, name=f"state{index}")
    problems = []
    for record in records:
        request = record.request
        if record.rows is None:
            continue
        kwargs = {"snapshot": f"state{request.state}"}
        if request.differential:
            kwargs["reference_snapshot"] = "state0"
        question = getattr(session.q, request.question)(**dict(request.params))
        if question.answer(**kwargs).frame().rows != record.rows:
            problems.append(
                f"{request.question}{dict(request.params)} on {request.snapshot}"
                f" (state {request.state}) differs from a direct Session"
            )
    return problems


class ServiceRun:
    """One service instance fed one slice of the client streams."""

    def __init__(self, inputs: workloads.ServiceInputs, pool, tag: str) -> None:
        self.inputs = inputs
        self.pool = pool
        self.journal_dir = WORK_DIR / f"{os.getpid()}-{tag}"
        self.svc = VerificationService(workers=2, journal_dir=self.journal_dir)
        self.records: list[Record] = []
        self.wall = Timed()

    def __enter__(self) -> "ServiceRun":
        clear_engine_cache()  # no engine survives from the last instance
        self.svc.start()
        self.svc.register_snapshot(self.pool[0], name="s0")
        for bound in self.inputs.initial:
            for name, state in bound.items():
                self.svc.register_snapshot(self.pool[state], name=name)
        warm = self.inputs.warmup_requests
        failed = [
            r.error for r in _drive(
                self.svc, self.pool,
                [s[:warm] for s in self.inputs.streams], lambda: False,
            ) if r.error
        ]
        if failed:
            raise RuntimeError(f"warm-up failed: {failed[:3]}")
        return self

    def __exit__(self, *exc) -> None:
        self.svc.stop()
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    def drive(
        self, *, count: Optional[int] = None, seconds: Optional[float] = None,
        log=None,
    ) -> None:
        """``count`` requests per client, or as many as fit ``seconds``."""
        warm = self.inputs.warmup_requests
        streams = [
            s[warm:] if count is None else s[warm:warm + count]
            for s in self.inputs.streams
        ]
        deadline = time.perf_counter() + (seconds or 0.0)
        stop = (lambda: False) if seconds is None else (
            lambda: time.perf_counter() >= deadline
        )
        gc.collect()
        with self.wall:
            self.records = _drive(self.svc, self.pool, streams, stop, log)

    def settle(self, p: Pass) -> None:
        p.attempted += len(self.records)
        errors = [r.error for r in self.records if r.error]
        p.failed += len(errors)
        p.problems += sorted(set(errors))[:5]
        p.problems += check_service_answers(self.records, self.pool)


def service_timed(inputs, pool, seconds: float, p: Pass, timed: Timed):
    with ServiceRun(inputs, pool, "timed") as run:
        run.drive(seconds=seconds)
    run.settle(p)
    timed.wall, timed.cpu = run.wall.wall, run.wall.cpu
    return [r.latency_ms for r in run.records]


def _service_counts(svc) -> Counter:
    stats = svc.stats()
    counts = Counter(stats["counters"])
    counts.update({f"store_{k}": v for k, v in stats["store"].items()})
    counts["journal_records"] = stats["journal"]["records_written"]
    counts["journal_fsyncs"] = stats["journal"]["fsyncs"]
    return counts


def service_traced(inputs, pool, p: Pass, log: SpanLog):
    """A fixed request count per segment, so the counters can repeat."""
    count = inputs.traced_requests
    with ServiceRun(inputs, pool, "plain") as plain:
        plain.drive(count=count)
    plain.settle(p)

    with tracing() as tracer:
        with ServiceRun(inputs, pool, "traced") as run:
            journal = run.journal_dir / "journal.jsonl"
            before = _service_counts(run.svc)
            before["journal_bytes"] = journal.stat().st_size
            obs_before = Counter(tracer.counters)
            run.drive(count=count, log=log)
            after = _service_counts(run.svc)
            after["journal_bytes"] = journal.stat().st_size
        obs = Counter(tracer.counters)
        obs.subtract(obs_before)
    run.settle(p)
    after.subtract(before)

    records = [r for r in run.records if r.job is not None]
    asked = len(records)
    p.observe("service.submit_ms_p50", [r.submit_ms for r in records])
    executed = [r.job for r in records if not r.job.cached]
    queue_ms = [j.queue_seconds * 1000.0 for j in executed]
    run_ms = [j.run_seconds * 1000.0 for j in executed]
    p.observe("service.queue_wait_ms_p50", queue_ms)
    p.set("service.queue_wait_ms_p95", percentile(queue_ms, 0.95), len(executed))
    p.observe("service.run_ms_p50", run_ms)
    p.set("service.run_ms_p95", percentile(run_ms, 0.95), len(executed))
    latencies = [r.latency_ms for r in records]
    p.set("service.latency_p95_ms", percentile(latencies, 0.95), len(latencies))
    p.set("service.latency_p99_ms", percentile(latencies, 0.99), len(latencies))
    p.observe("service.write_to_answer_ms",
              [r.latency_ms for r in records if r.request.op == "write"])
    p.set("service.result_cache_hit_ratio", after["result_cache_hits"] / asked, asked)
    for name in ("coalesced", "store_hits", "store_misses", "store_evictions",
                 "journal_records", "journal_fsyncs", "journal_bytes",
                 "retries"):
        p.set(f"service.{name}", after[name])
    p.set("service.rejected", after["jobs_rejected"])
    p.set("service.engines_built",
          obs["verify.engine_builds"] + obs["verify.delta_applies"])
    folds = [
        r for r in records if r.request.op == "ensemble" and not r.job.cached
    ]
    p.observe("ensemble.fold_ms", [r.job.run_seconds * 1000.0 for r in folds])
    p.observe("ensemble.distinct", [r.distinct for r in folds])
    for name in ("atoms", "graph_builds", "graph_shared", "index_probes",
                 "scalar_walks"):
        p.set(f"verify.{name}", obs[f"verify.{name}"])
    p.set("verify.dirty_atoms", obs["verify.delta_dirty_atoms"])
    p.set("verify.delta_fallbacks", obs["verify.delta_fallbacks"])
    # The one derived-path call this file can make itself: the FIB diff
    # between the shared baseline and every other pool state.
    deltas = []
    for snapshot in pool[1:]:
        with log.span("dataplane.delta") as span:
            delta = DataplaneDelta(pool[0].dataplane, snapshot.dataplane)
        deltas.append((
            span.seconds,
            sum(len(d.fib_prefixes) for d in delta.device_deltas.values()),
        ))
    p.observe("dataplane.delta_s", [d[0] for d in deltas])
    p.observe("dataplane.delta_prefixes", [d[1] for d in deltas])
    p.set("obs.tracing_overhead_ratio", run.wall.wall / plain.wall.wall)

    def profiled() -> None:
        with ServiceRun(inputs, pool, "prof") as prof:
            prof.drive(count=max(1, count // 4))

    profile(profiled, p)


# -- entry -------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    import_s: float = 0.0, spans_out: Optional[str] = None,
) -> dict:
    """One pass of workload ``name``; returns the pass result dict."""
    p = Pass(trace)
    service = name == "service_mixed"

    def prepare():
        inputs = workloads.generate(name, seed, smoke)
        return (inputs, build_pool(inputs)) if service else (inputs, None)

    if trace:
        inputs, pool = prepare()
        log = SpanLog()
        if service:
            service_traced(inputs, pool, p, log)
        elif name == "churn_campaign":
            churn_traced(inputs, p, log)
        else:
            cold_traced(inputs, seconds, p, log)
        log.write(Path(spans_out) if spans_out else WORK_DIR / f"spans-{name}.jsonl")
    else:
        (inputs, pool), setup = measure_setup(prepare)
        timed = Timed()
        if service:
            answer_ms = service_timed(inputs, pool, seconds, p, timed)
        elif name == "churn_campaign":
            answer_ms = churn_timed(inputs, seconds, p, timed)
        else:
            answer_ms = cold_timed(inputs, seconds, p, timed)
        finish_timed(p, import_s, setup, answer_ms, timed)
    return p.result()
