"""Transient-state (temporal) verification tests.

The load-bearing property mirrors ``test_verify_delta.py``'s: every
violation interval the incremental evaluator reports (one warm engine
advanced with ``apply_delta``) must match, row for row, the brute-force
oracle that rebuilds a cold engine per checkpoint. Everything else here
guards the machinery around that core — the recorder's coalescing and
compaction, ``DataplaneDelta.compose``, stream serialization, the
kernel's ``quiesced_at``, and the pipeline/campaign/CLI wiring.
"""

from __future__ import annotations

import pytest

from repro.core.context import ScenarioContext
from repro.core.faults import FaultPlan, NodeDown
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.dataplane.delta import DataplaneDelta
from repro.dataplane.model import Dataplane
from repro.gnmi.aft import (
    AftInterface,
    AftIpv4Entry,
    AftNextHop,
    AftNextHopGroup,
    AftSnapshot,
)
from repro.net.addr import Prefix
from repro.obs import ConvergenceTimeline, summary_text, tracing
from repro.protocols.timers import FAST_TIMERS
from repro.temporal import (
    CheckpointRecorder,
    CheckpointStream,
    MaxChurn,
    evaluate_stream,
)
from repro.temporal.checkpoints import (
    DEFAULT_COALESCE,
    DEFAULT_MAX_CHECKPOINTS,
)
from repro.verify import engine as engine_mod
from repro.verify.engine import AtomGraphEngine
from repro.verify.invariants import (
    Blackhole,
    Loop,
    Waypoint,
    detect_blackholes,
    detect_loops,
)
from repro.whatif import WhatIfCampaign, link_flap_scenarios


def record_flap(deployment, topology, *, hold=15.0, quiet=5.0, **kwargs):
    """Flap the topology's first link on a warm deployment while a
    recorder is armed; returns the checkpoint stream."""
    scenario = next(iter(link_flap_scenarios(topology, hold_seconds=hold)))
    recorder = CheckpointRecorder(deployment, **kwargs)
    recorder.arm()
    scenario.apply(deployment)
    deployment.wait_converged(
        quiet_period=max(quiet, scenario.min_quiet_period)
    )
    return recorder, recorder.finalize()


def assert_matches_oracle(stream, invariants=None):
    """Incremental intervals == brute-force intervals, row for row."""
    incremental = evaluate_stream(stream, invariants, use_delta=True)
    oracle = evaluate_stream(stream, invariants, use_delta=False)
    assert oracle.fallbacks == 0
    assert incremental.intervals == oracle.intervals
    return incremental


@pytest.fixture(scope="module")
def fig3_warm(fig3):
    """A converged fig3 deployment that flap recordings can reuse —
    flaps self-revert, so sequential recordings stay independent."""
    backend = ModelFreeBackend(
        fig3.topology, timers=FAST_TIMERS, quiet_period=5.0
    )
    backend.run(ScenarioContext())
    assert backend.last_run is not None
    return backend, backend.last_run.deployment, fig3.topology


@pytest.fixture(scope="module")
def fig3_stream(fig3_warm):
    _backend, deployment, topology = fig3_warm
    _recorder, stream = record_flap(deployment, topology)
    return stream


@pytest.fixture(scope="module")
def prod():
    scenario = production_scenario(8, peers=1, routes_per_peer=80, seed=7)
    backend = ModelFreeBackend(
        scenario.topology, timers=scaled_timers(80), quiet_period=30.0
    )
    context = ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
    backend.run(context)
    return backend, scenario.topology


class TestTemporalOracleEquivalence:
    """Incremental evaluation == rebuild-per-checkpoint, on real
    convergence episodes."""

    def test_fig3_flap_finds_what_snapshot_verify_misses(self, fig3_stream):
        assert len(fig3_stream) >= 2
        report = assert_matches_oracle(fig3_stream)
        # The flap blackholes the line topology mid-convergence...
        assert report.transient
        names = {i.invariant for i in report.transient}
        assert names & {"blackhole-window", "no-transient-loop"}
        # ...but the final state is clean: a post-convergence check on
        # the very same episode reports nothing.
        final = fig3_stream.final.dataplane
        assert not detect_loops(final)
        assert not detect_blackholes(final)

    def test_fig2_flap_matches_oracle(self, fig2):
        backend = ModelFreeBackend(
            fig2.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        backend.run(ScenarioContext())
        _recorder, stream = record_flap(
            backend.last_run.deployment, fig2.topology
        )
        assert len(stream) >= 2
        assert_matches_oracle(stream)

    def test_production_flap_matches_oracle(self, prod, monkeypatch):
        # Lift the dirty-fraction gate so the warm path actually
        # patches (the mechanism under test), as test_verify_delta does.
        monkeypatch.setattr(engine_mod, "DELTA_THRESHOLD", 1.0)
        backend, topology = prod
        _recorder, stream = record_flap(
            backend.last_run.deployment, topology, hold=30.0, quiet=30.0
        )
        assert len(stream) >= 2
        report = assert_matches_oracle(stream)
        assert report.fallbacks == 0  # every step took the delta path

    def test_chaos_crash_matches_oracle(self, fig3):
        plan = FaultPlan(
            name="crash-restart",
            faults=(NodeDown("r2", at=60.0, restore_after=30.0),),
        )
        backend = ModelFreeBackend(
            fig3.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        snapshot = backend.run(ScenarioContext(), chaos=plan, temporal=True)
        assert backend.last_temporal is not None
        stream, report = backend.last_temporal
        assert report.checkpoints == len(stream)
        assert snapshot.metadata["temporal"]["checkpoints"] == len(stream)
        assert_matches_oracle(stream)


# -- hand-built dataplanes for the compose tests -----------------------------


def _iface(name, cidr):
    address, _, length = cidr.partition("/")
    return AftInterface(
        name=name,
        ipv4_address=address,
        prefix_length=int(length),
        enabled=True,
    )


def _line_afts(*, a_routes_b=True, b_routes_c=True, with_c=False):
    """a -> b (-> c), with knobs to perturb either device."""
    a = AftSnapshot(device="a")
    a.interfaces = [_iface("eth0", "10.0.0.0/31"), _iface("lo", "1.1.1.1/32")]
    a.next_hops[1] = AftNextHop(index=1, interface="eth0", ip_address="10.0.0.1")
    a.next_hop_groups[1] = AftNextHopGroup(group_id=1, next_hop_indices=(1,))
    a.entries = [AftIpv4Entry(prefix=Prefix.parse("1.1.1.1/32"), entry_type="receive")]
    if a_routes_b:
        a.entries.append(
            AftIpv4Entry(
                prefix=Prefix.parse("2.2.2.2/32"), entry_type="forward", next_hop_group=1
            )
        )
    a.entries.append(
        AftIpv4Entry(
            prefix=Prefix.parse("3.3.3.3/32"), entry_type="forward", next_hop_group=1
        )
    )

    b = AftSnapshot(device="b")
    b.interfaces = [
        _iface("eth0", "10.0.0.1/31"),
        _iface("eth1", "10.0.1.0/31"),
        _iface("lo", "2.2.2.2/32"),
    ]
    b.next_hops[1] = AftNextHop(index=1, interface="eth1", ip_address="10.0.1.1")
    b.next_hop_groups[1] = AftNextHopGroup(group_id=1, next_hop_indices=(1,))
    b.entries = [AftIpv4Entry(prefix=Prefix.parse("2.2.2.2/32"), entry_type="receive")]
    if b_routes_c:
        b.entries.append(
            AftIpv4Entry(
                prefix=Prefix.parse("3.3.3.3/32"), entry_type="forward", next_hop_group=1
            )
        )

    snapshots = {"a": a, "b": b}
    if with_c:
        c = AftSnapshot(device="c")
        c.interfaces = [
            _iface("eth0", "10.0.1.1/31"),
            _iface("lo", "3.3.3.3/32"),
        ]
        c.entries = [AftIpv4Entry(prefix=Prefix.parse("3.3.3.3/32"), entry_type="receive")]
        snapshots["c"] = c
    return snapshots


class TestDeltaCompose:
    """A->B composed with B->C must behave exactly like A->C."""

    def test_compose_equals_direct_diff(self):
        plane_a = Dataplane.from_afts(_line_afts())
        plane_b = Dataplane.from_afts(_line_afts(b_routes_c=False))
        plane_c = Dataplane.from_afts(
            _line_afts(b_routes_c=False, a_routes_b=False)
        )
        composed = DataplaneDelta.compose(
            DataplaneDelta(plane_a, plane_b), DataplaneDelta(plane_b, plane_c)
        )
        direct = DataplaneDelta(plane_a, plane_c)
        assert composed.base is plane_a and composed.target is plane_c
        assert set(composed.touched_devices) == set(direct.touched_devices)
        assert composed.boundary_prefixes() == direct.boundary_prefixes()
        assert composed.fallback_reason() == direct.fallback_reason()
        # The real oracle: applying the composed delta yields the same
        # verdicts as a cold build of C.
        engine = AtomGraphEngine(plane_a)
        derived = engine.apply_delta(composed)
        cold = AtomGraphEngine(plane_c)
        cold.precompute()
        for index, atom in enumerate(derived.atoms):
            cold_index = cold.atom_index_of(atom.min())
            for ingress in plane_c.node_names():
                assert derived.verdict(ingress, index) == cold.verdict(
                    ingress, cold_index
                )

    def test_compose_revert_collapses_to_empty(self):
        plane_a = Dataplane.from_afts(_line_afts())
        plane_b = Dataplane.from_afts(_line_afts(b_routes_c=False))
        plane_a2 = Dataplane.from_afts(_line_afts())
        composed = DataplaneDelta.compose(
            DataplaneDelta(plane_a, plane_b), DataplaneDelta(plane_b, plane_a2)
        )
        assert composed.is_empty
        assert composed.touched_devices == ()

    def test_compose_rejects_broken_chain(self):
        plane_a = Dataplane.from_afts(_line_afts())
        plane_b = Dataplane.from_afts(_line_afts(b_routes_c=False))
        plane_c = Dataplane.from_afts(_line_afts(a_routes_b=False))
        with pytest.raises(ValueError):
            DataplaneDelta.compose(
                DataplaneDelta(plane_a, plane_b),
                DataplaneDelta(plane_a, plane_c),
            )

    def test_compose_device_set_change_falls_back_to_full_diff(self):
        plane_a = Dataplane.from_afts(_line_afts(with_c=True))
        plane_b = Dataplane.from_afts(_line_afts())
        plane_c = Dataplane.from_afts(_line_afts(b_routes_c=False))
        composed = DataplaneDelta.compose(
            DataplaneDelta(plane_a, plane_b), DataplaneDelta(plane_b, plane_c)
        )
        direct = DataplaneDelta(plane_a, plane_c)
        assert composed.fallback_reason() == "device-set"
        assert composed.fallback_reason() == direct.fallback_reason()
        assert composed.removed_devices == direct.removed_devices


class TestRecorder:
    def test_knob_arguments_and_clamps(self, fig3_warm):
        _backend, deployment, _topology = fig3_warm
        default = CheckpointRecorder(deployment)
        assert default.coalesce == DEFAULT_COALESCE == 0.25
        assert default.max_checkpoints == DEFAULT_MAX_CHECKPOINTS == 256
        assert CheckpointRecorder(deployment, coalesce=2.5).coalesce == 2.5
        assert CheckpointRecorder(deployment, coalesce=-3).coalesce == 0.0
        assert (
            CheckpointRecorder(deployment, max_checkpoints=17).max_checkpoints
            == 17
        )
        # Endpoints always survive: the cap never drops below two.
        assert (
            CheckpointRecorder(deployment, max_checkpoints=1).max_checkpoints
            == 2
        )

    def test_wider_coalesce_window_never_adds_checkpoints(
        self, fig3_warm, fig3_stream
    ):
        _backend, deployment, topology = fig3_warm
        _recorder, wide = record_flap(deployment, topology, coalesce=5.0)
        assert 2 <= len(wide) <= len(fig3_stream)
        assert (
            wide.final.dataplane.fib_fingerprint()
            == fig3_stream.final.dataplane.fib_fingerprint()
        )
        assert_matches_oracle(wide)

    def test_recorder_is_single_shot(self, fig3_warm):
        _backend, deployment, _topology = fig3_warm
        recorder = CheckpointRecorder(deployment)
        with pytest.raises(RuntimeError):
            recorder.finalize()  # never armed
        recorder.arm()
        with pytest.raises(RuntimeError):
            recorder.arm()
        recorder.finalize()
        with pytest.raises(RuntimeError):
            recorder.finalize()

    def test_quiet_deployment_yields_single_checkpoint(self, fig3_warm):
        _backend, deployment, _topology = fig3_warm
        recorder = CheckpointRecorder(deployment)
        recorder.arm()
        stream = recorder.finalize()
        assert len(stream) == 1
        assert stream.initial.delta is None
        # A converged fig3 has nothing to report at its one checkpoint.
        assert evaluate_stream(stream).intervals == []

    def test_cap_compacts_interior_checkpoints(self, fig3_warm):
        backend, deployment, topology = fig3_warm
        recorder, stream = record_flap(
            deployment, topology, max_checkpoints=2
        )
        assert len(stream) == 2
        assert recorder.compactions >= 1
        # The chain invariant survives compaction: each delta's base IS
        # the previous checkpoint's dataplane (identity, not equality).
        for prev, nxt in zip(stream.checkpoints, stream.checkpoints[1:]):
            assert nxt.delta is not None
            assert nxt.delta.base is prev.dataplane
            assert nxt.delta.target is nxt.dataplane
        # Endpoints stay exact: the final checkpoint matches a fresh
        # dump of the live (re-converged) deployment.
        live = Dataplane.from_afts(
            {
                name: AftSnapshot.from_router(
                    router, now=deployment.kernel.now
                )
                for name, router in deployment.routers.items()
            }
        )
        assert (
            stream.final.dataplane.fib_fingerprint()
            == live.fib_fingerprint()
        )
        assert_matches_oracle(stream)

    def test_stream_save_load_roundtrip(self, fig3_stream, tmp_path):
        path = tmp_path / "stream.json"
        fig3_stream.save(path)
        loaded = CheckpointStream.load(path)
        assert len(loaded) == len(fig3_stream)
        for orig, back in zip(fig3_stream.checkpoints, loaded.checkpoints):
            assert back.t == orig.t
            assert back.installs == orig.installs
            assert (
                back.dataplane.fib_fingerprint()
                == orig.dataplane.fib_fingerprint()
            )
        assert (
            evaluate_stream(loaded).intervals
            == evaluate_stream(fig3_stream).intervals
        )

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            CheckpointStream.from_dict({"checkpoints": []})


class TestInvariants:
    def test_waypoint_violation_is_persistent(self, fig3_stream):
        # fig3 is a line r1-r2-r3: traffic to r2's loopback never
        # passes r3, so the waypoint is violated whenever forwarding
        # succeeds at all (the finding blinks off during the flap's
        # blackhole window, when there is no successful trace to judge)
        # and is still violated at the final, converged checkpoint.
        report = assert_matches_oracle(
            fig3_stream, [Waypoint("2.2.2.2", "r3")]
        )
        assert report.intervals
        assert all(i.invariant == "waypoint-always" for i in report.intervals)
        assert report.persistent
        assert report.persistent[-1].t_end == fig3_stream.final.t

    def test_max_churn_rate_gate(self, fig3_stream):
        strict = assert_matches_oracle(fig3_stream, [MaxChurn(1e-9)])
        assert strict.intervals
        assert strict.intervals[0].invariant == "max-churn"
        assert strict.intervals[0].ingress == ""  # network-wide witness
        lax = evaluate_stream(fig3_stream, [MaxChurn(1e12)])
        assert lax.intervals == []

    def test_tolerance_suppresses_short_transients(self, fig3_stream):
        baseline = evaluate_stream(
            fig3_stream, [Loop(), Blackhole()]
        )
        assert baseline.transient
        tolerant = evaluate_stream(
            fig3_stream,
            [
                Loop(max_sim_s=1e9),
                Blackhole(max_sim_s=1e9),
            ],
        )
        assert tolerant.transient == []
        # Persistent intervals are never suppressed by the tolerance.
        assert len(tolerant.persistent) == len(baseline.persistent)

    def test_interval_rendering(self, fig3_stream):
        report = evaluate_stream(fig3_stream)
        assert report.transient
        line = str(report.transient[0])
        assert "transient" in line and ")s" in line
        assert "checkpoints" in report.render()


class TestWiring:
    def test_evaluate_emits_metrics(self, fig3_stream):
        with tracing() as tracer:
            report = evaluate_stream(fig3_stream)
            assert tracer.counters["verify.temporal_checkpoints"] == len(
                fig3_stream
            )
            assert tracer.counters["verify.temporal_violations"] == len(
                report.intervals
            )
            records = {
                record["name"]: record for record in tracer.registry.collect()
            }
            assert records["verify.temporal_apply_seconds"]["count"] == len(
                fig3_stream
            )

    def test_timeline_absorbs_quiescence_and_violations(self, fig3):
        backend = ModelFreeBackend(
            fig3.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        with tracing() as tracer:
            snapshot = backend.run(ScenarioContext(), temporal=True)
        # temporal=True on a plain run watches the *initial* convergence
        # — the pre-route blackholes are themselves transient findings.
        assert snapshot.metadata["temporal"]["checkpoints"] >= 1
        timeline = ConvergenceTimeline.from_tracer(tracer)
        assert timeline.quiesced_at is not None
        rendered = timeline.render()
        assert "kernel quiesced at" in rendered
        if timeline.temporal_violations:
            assert "Temporal violations" in rendered
        assert "Kernel quiesced at t=" in summary_text(tracer)

    def test_kernel_quiesced_at_recorded(self, fig3_warm):
        _backend, deployment, _topology = fig3_warm
        kernel = deployment.kernel
        assert kernel.quiesced_at is not None
        assert 0.0 < kernel.quiesced_at <= kernel.now

    def test_campaign_temporal_verdicts(self, fig3):
        scenarios = list(
            link_flap_scenarios(fig3.topology, hold_seconds=15.0)
        )[:1]
        campaign = WhatIfCampaign(
            fig3.topology,
            scenarios,
            timers=FAST_TIMERS,
            quiet_period=5.0,
            temporal=True,
        )
        report = campaign.run()
        verdict = report.verdicts[0]
        assert verdict.temporal_checkpoints >= 2
        assert verdict.temporal_transient >= 1
        assert verdict.temporal_worst
        assert "temporal" in verdict.to_dict()
        # The flap reverts cleanly, so the snapshot-only columns are
        # blind to the damage the temporal columns just reported.
        assert verdict.new_loops == 0 and verdict.new_blackholes == 0

    def test_chaos_report_carries_temporal(self, fig3):
        from repro.chaos import run_chaos

        plan = FaultPlan(
            name="crash-restart",
            faults=(NodeDown("r2", at=60.0, restore_after=30.0),),
        )
        report = run_chaos(
            fig3.topology,
            plan,
            timers=FAST_TIMERS,
            quiet_period=5.0,
            temporal=True,
        )
        assert report.temporal.get("checkpoints", 0) >= 1
        assert "temporal" in report.to_dict()


class TestCli:
    def test_replay_reports_and_exits_2(
        self, fig3_stream, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "stream.json"
        fig3_stream.save(path)
        code = main(["temporal", "--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "Temporal verification:" in out
        assert "post-convergence verify on the final state" in out

    def test_replay_brute_force_agrees(self, fig3_stream, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "stream.json"
        fig3_stream.save(path)
        assert main(["temporal", "--replay", str(path)]) == main(
            ["temporal", "--replay", str(path), "--brute-force"]
        )

    def test_waypoint_argument_validation(self, fig3_stream, tmp_path):
        from repro.cli import main

        path = tmp_path / "stream.json"
        fig3_stream.save(path)
        with pytest.raises(SystemExit):
            main(["temporal", "--replay", str(path), "--waypoint", "bad"])

    def test_waypoint_bad_address_exits_cleanly(self, fig3_stream, tmp_path):
        from repro.cli import main

        path = tmp_path / "stream.json"
        fig3_stream.save(path)
        with pytest.raises(SystemExit, match="IPv4"):
            main(["temporal", "--replay", str(path), "--waypoint", "2.2.2.x:r3"])
