"""repro.ensemble: verdict algebra, outcome dedup, oracle equivalence.

The correctness anchor throughout is the brute-force per-run oracle:
whatever the deduped fold answers must match verifying every member
independently, row for row, witnesses included.
"""

import json

import pytest

from repro.chaos import sampled_plan
from repro.core.pipeline import ModelFreeBackend
from repro.ensemble import (
    HOLDS_ALWAYS,
    HOLDS_SOMETIMES,
    MAX_WITNESSES,
    NEVER,
    EnsembleRunner,
    EnsembleWitness,
    RowObservation,
    brute_force_verdicts,
    default_ensemble_invariants,
    fold,
    fold_observations,
    fold_records,
    temporal_invariant_names,
)
from repro.obs import ConvergenceTimeline, tracing
from repro.protocols.timers import FAST_TIMERS
from repro.verify.engine import clear_engine_cache
from repro.verify.invariants import Waypoint


def _obs(holds, weight=1, seed=0, plan="", fingerprint=None, **kw):
    return RowObservation(
        holds=holds,
        weight=weight,
        witness=EnsembleWitness(
            seed=seed,
            plan=plan,
            fingerprint=fingerprint if fingerprint is not None else seed,
            **kw,
        ),
    )


class TestVerdictAlgebra:
    def test_all_hold_is_holds_always(self):
        verdict = fold("row", [_obs(True, 3, seed=0), _obs(True, 1, seed=3)])
        assert verdict.verdict == HOLDS_ALWAYS
        assert (verdict.holds, verdict.total) == (4, 4)
        assert verdict.witnesses == ()

    def test_none_hold_is_never(self):
        verdict = fold("row", [_obs(False, 2, seed=0), _obs(False, 1, seed=2)])
        assert verdict.verdict == NEVER
        assert (verdict.holds, verdict.total) == (0, 3)
        assert len(verdict.witnesses) == 2

    def test_mixed_is_holds_sometimes_with_witness(self):
        verdict = fold(
            "row",
            [_obs(True, 3, seed=0), _obs(False, 1, seed=5, plan="crash")],
        )
        assert verdict.verdict == HOLDS_SOMETIMES
        assert (verdict.holds, verdict.total) == (3, 4)
        witness = verdict.witnesses[0]
        assert (witness.seed, witness.plan) == (5, "crash")
        assert "seed 5 + crash" in str(verdict)

    def test_multiplicity_weights_the_denominator(self):
        # 7 members collapsed into 2 outcomes still answer out of 7.
        verdict = fold("row", [_obs(True, 6, seed=0), _obs(False, 1, seed=6)])
        assert (verdict.holds, verdict.total) == (6, 7)

    def test_witnesses_dedup_by_fingerprint_keeping_lowest_member(self):
        # Three violating runs, two distinct outcomes: one witness per
        # outcome, each the lowest (seed, plan) member.
        verdict = fold(
            "row",
            [
                _obs(False, seed=4, fingerprint=0xA),
                _obs(False, seed=1, fingerprint=0xA),
                _obs(False, seed=2, fingerprint=0xB),
            ],
        )
        assert [w.seed for w in verdict.witnesses] == [1, 2]

    def test_witness_cap(self):
        observations = [
            _obs(False, seed=n, fingerprint=n) for n in range(10)
        ] + [_obs(True, seed=99)]
        verdict = fold("row", observations)
        assert len(verdict.witnesses) == MAX_WITNESSES
        assert [w.seed for w in verdict.witnesses] == [0, 1, 2, 3]

    def test_fold_observations_sorted_by_row_name(self):
        verdicts = fold_observations(
            {"b": [_obs(True)], "a": [_obs(False)], "c": [_obs(True)]}
        )
        assert [v.invariant for v in verdicts] == ["a", "b", "c"]

    def test_temporal_witness_interval_round_trips(self):
        verdict = fold(
            "temporal:no-transient-loop",
            [_obs(False, seed=1, t_start=3.5, t_end=9.0), _obs(True, seed=0)],
        )
        witness = verdict.to_dict()["witnesses"][0]
        assert (witness["t_start"], witness["t_end"]) == (3.5, 9.0)
        assert "[3.5, 9.0)s" in str(verdict)

    def test_temporal_names_resolution(self):
        assert temporal_invariant_names(None) == ()
        names = temporal_invariant_names(True)
        assert "no-transient-loop" in names and "blackhole-window" in names


@pytest.fixture(scope="module")
def fig3_runner(fig3):
    runner = EnsembleRunner(
        fig3.topology,
        seeds=(0, 1, 2, 3),
        timers=FAST_TIMERS,
        quiet_period=5.0,
    )
    runner.run(workers=1)
    return runner


class TestEnsembleRunner:
    def test_runs_and_dedup(self, fig3_runner):
        report = fold_records(
            fig3_runner.last_records,
            invariants=fig3_runner.invariants,
            engine_of=fig3_runner.store.engine,
        )
        assert report.runs == 4
        # Fig. 3 has no ordering-dependent tiebreaks: one outcome.
        assert report.deterministic
        assert report.outcomes[0].multiplicity == 4
        assert [s for s, _ in report.outcomes[0].members] == [0, 1, 2, 3]
        assert all(v.verdict == HOLDS_ALWAYS for v in report.verdicts)
        assert not report.unstable

    def test_oracle_equivalence_plain(self, fig3_runner):
        report = fold_records(
            fig3_runner.last_records,
            invariants=fig3_runner.invariants,
            engine_of=fig3_runner.store.engine,
        )
        oracle = brute_force_verdicts(
            fig3_runner.last_records, invariants=fig3_runner.invariants
        )
        assert report.verdicts == oracle

    def test_repeated_runs_report_byte_identical(self, fig3):
        def one_report():
            runner = EnsembleRunner(
                fig3.topology,
                seeds=(0, 1, 2),
                timers=FAST_TIMERS,
                quiet_period=5.0,
            )
            return runner.run(workers=1)

        first, second = one_report(), one_report()
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_engine_builds_bounded_by_distinct_outcomes(self, fig3):
        clear_engine_cache()
        runner = EnsembleRunner(
            fig3.topology,
            seeds=(0, 1, 2, 3),
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        with tracing() as tracer:
            report = runner.run(workers=1)
        builds = tracer.counters.get("verify.engine_builds", 0)
        assert builds <= report.distinct < report.runs
        assert tracer.counters["ensemble.dedup_hits"] == (
            report.runs - report.distinct
        )
        clear_engine_cache()

    def test_waypoint_invariant_rows(self, fig3_runner):
        snapshot = fig3_runner.last_records[0].snapshot
        via = sorted(snapshot.afts)[1]  # middle of the line: always on path
        report = fold_records(
            fig3_runner.last_records,
            invariants=[Waypoint("3.3.3.1", via)],
            engine_of=fig3_runner.store.engine,
        )
        [verdict] = report.verdicts
        assert verdict.invariant == f"waypoint:3.3.3.1-via-{via}"
        assert verdict.verdict == HOLDS_ALWAYS

    def test_parallel_matches_sequential(self, fig3):
        runner = EnsembleRunner(
            fig3.topology,
            seeds=(0, 1, 2),
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        sequential = runner.run(workers=1)
        parallel = runner.run(workers=2)
        assert parallel.verdicts == sequential.verdicts
        assert parallel.distinct == sequential.distinct


class TestChaosCrossedEnsemble:
    @pytest.fixture(scope="class")
    def crossed(self, fig3):
        from repro.core.faults import FaultPlan, LinkLoss, NodeDown

        # Two genuinely different failure modes: a dead r2-r3 link
        # (routes to r3 withdrawn — real False rows, no degradation)
        # and an unrecovered r3 crash (partial snapshot — rows into r3
        # become unprovable). The fold must keep the two apart.
        plans = [
            None,
            FaultPlan(
                name="cut-r2-r3",
                faults=(
                    LinkLoss(
                        a="r2", z="r3", drop_rate=1.0, at=0.0, duration=1e9
                    ),
                ),
            ),
            FaultPlan(
                name="crash-r3", faults=(NodeDown("r3", at=1000.0),)
            ),
        ]
        runner = EnsembleRunner(
            fig3.topology,
            seeds=(0, 1),
            plans=plans,
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        report = runner.run(workers=1)
        return runner, report

    def test_matrix_covers_seed_plan_cross(self, crossed):
        runner, report = crossed
        assert report.runs == 6
        members = [
            (record.seed, record.plan_name)
            for record in runner.last_records
        ]
        assert members == [
            (0, ""), (0, "cut-r2-r3"), (0, "crash-r3"),
            (1, ""), (1, "cut-r2-r3"), (1, "crash-r3"),
        ]
        assert report.distinct >= 3

    def test_oracle_equivalence_chaos_crossed(self, crossed):
        runner, report = crossed
        oracle = brute_force_verdicts(
            runner.last_records, invariants=runner.invariants
        )
        assert report.verdicts == oracle

    def test_sometimes_witness_names_the_plan(self, crossed):
        _, report = crossed
        unstable = report.unstable
        assert unstable, "a severed link must destabilize some invariant"
        for verdict in unstable:
            assert verdict.verdict == HOLDS_SOMETIMES
            assert verdict.witnesses, str(verdict)
            assert all(
                w.plan for w in verdict.witnesses
            ), "violations must be pinned on the faulted members"
        # The severed link shows up as real unreachability, attributed
        # to the cut plan, never to the crash (whose rows are degraded).
        by_name = {v.invariant: v for v in report.verdicts}
        cut_row = by_name["reach:r1->r3"]
        assert cut_row.verdict == HOLDS_SOMETIMES
        assert {w.plan for w in cut_row.witnesses} == {"cut-r2-r3"}

    def test_degraded_rows_excluded_from_denominators(self, crossed):
        # Pairs whose proof involves the crashed node answer
        # UNKNOWN_DEGRADED in the crash outcomes — those outcomes must
        # be absent from the pair's denominator, not counted as False.
        _, report = crossed
        answering_weight = sum(
            o.multiplicity for o in report.outcomes if not o.degraded
        )
        assert answering_weight < report.runs
        by_name = {v.invariant: v for v in report.verdicts}
        assert by_name["reach:r1->r3"].total == answering_weight


class TestTemporalEnsemble:
    def test_oracle_equivalence_with_temporal_rows(self, fig3):
        runner = EnsembleRunner(
            fig3.topology,
            seeds=(0, 1),
            temporal=True,
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        report = runner.run(workers=1)
        names = temporal_invariant_names(True)
        assert set(report.temporal_invariants) == {
            f"temporal:{name}" for name in names
        }
        by_name = {v.invariant: v for v in report.verdicts}
        for name in names:
            row = by_name[f"temporal:{name}"]
            # Temporal rows fold per member run, never per outcome.
            assert row.total == report.runs
        oracle = brute_force_verdicts(
            runner.last_records,
            invariants=runner.invariants,
            temporal_names=names,
        )
        assert report.verdicts == oracle


class TestServiceEnsembleOp:
    def test_frontend_ensemble_op(self, fig3):
        from repro.service.frontend import ServiceFrontend
        from repro.service.service import VerificationService

        backend = ModelFreeBackend(
            fig3.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        service = VerificationService(workers=1).start()
        try:
            for seed in (0, 1):
                snapshot = backend.run(
                    None, seed=seed, snapshot_name=f"member-{seed}"
                )
                service.register_snapshot(snapshot)
            frontend = ServiceFrontend(service)
            response, keep = frontend.handle({"op": "ensemble"})
            assert keep and response["ok"]
            report = response["report"]
            assert report["runs"] == 2
            assert report["distinct_outcomes"] == 1
            assert report["verdict_counts"][HOLDS_SOMETIMES] == 0
            # Same members, same content: the job must coalesce/cache.
            again, _ = frontend.handle({"op": "ensemble"})
            assert again["cached"]
            # Unknown member snapshot surfaces as an error, not a crash.
            bad, keep = frontend.handle(
                {"op": "ensemble", "snapshots": ["missing"]}
            )
            assert keep and not bad["ok"]
        finally:
            service.stop()

    @pytest.mark.parametrize(
        "spec", ["2.2.2.1", "2.2.2.1:", ":r2", "2.2.2.x:r2"]
    )
    def test_malformed_waypoint_rejected_before_queueing(
        self, fig2_snapshots, spec
    ):
        from repro.service.frontend import ServiceFrontend
        from repro.service.service import VerificationService

        service = VerificationService(workers=1).start()
        try:
            service.register_snapshot(fig2_snapshots[0])
            with pytest.raises(ValueError):
                service.submit_ensemble(waypoint=spec)
            response, keep = ServiceFrontend(service).handle(
                {"op": "ensemble", "waypoint": spec}
            )
            assert keep and not response["ok"]
            assert "DEST_IP:VIA_NODE" in response["error"] or (
                "IPv4" in response["error"]
            )
            assert service.stats()["counters"]["jobs_submitted"] == 0
        finally:
            service.stop()


class TestEnsembleTimeline:
    def test_timeline_ensemble_section(self, fig3_runner):
        with tracing() as tracer:
            fold_records(
                fig3_runner.last_records,
                invariants=[],
                engine_of=None,
            )
            # A synthetic unstable verdict event exercises the witness
            # column without needing a genuinely racy topology.
            from repro.obs import bus

            bus.ACTIVE.emit(
                "ensemble.verdict",
                0.0,
                invariant="reach:r1->r3",
                verdict=HOLDS_SOMETIMES,
                holds=3,
                total=4,
                witness_seed=2,
                witness_plan="crash",
            )
        timeline = ConvergenceTimeline.from_tracer(tracer)
        assert len(timeline.ensemble_outcomes) == 1
        assert len(timeline.ensemble_verdicts) == 1
        text = timeline.render()
        assert "Ensemble (distinct converged states):" in text
        assert "Unstable ensemble verdicts:" in text
        assert "seed 2 + crash" in text
        # Witness events must not fabricate device rows.
        assert "reach:r1->r3" not in timeline.devices


class TestChaosSeeds:
    def test_run_chaos_seed_sweep(self, fig3):
        from repro.chaos import run_chaos

        nodes = sorted(spec.name for spec in fig3.topology.nodes)
        plan = sampled_plan(nodes, seed=1, intensity=2, crash=False)
        report = run_chaos(
            fig3.topology,
            plan,
            seeds=(0, 1),
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        assert report.ensemble["seeds"] == [0, 1]
        assert set(report.ensemble["per_seed_stability"]) == {"0", "1"}
        assert report.ensemble["distinct_faulted_outcomes"] >= 1
        assert 0.0 <= report.stability <= 1.0
        assert "ensemble" in report.to_dict()

    def test_single_seed_report_unchanged(self, fig3):
        from repro.chaos import run_chaos

        nodes = sorted(spec.name for spec in fig3.topology.nodes)
        plan = sampled_plan(nodes, seed=1, intensity=2, crash=False)
        report = run_chaos(
            fig3.topology, plan, timers=FAST_TIMERS, quiet_period=5.0
        )
        assert report.ensemble == {}
        assert "ensemble" not in report.to_dict()


class TestCampaignEnsemble:
    def test_run_ensemble_folds_scenarios(self, fig3):
        from repro.whatif import WhatIfCampaign, single_link_failures

        scenarios = list(single_link_failures(fig3.topology))[:1]
        campaign = WhatIfCampaign(
            fig3.topology,
            scenarios,
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        result = campaign.run_ensemble(seeds=(0, 1))
        assert len(result.reports) == 2
        assert campaign.seed == 0  # restored after the sweep
        [verdict] = result.verdicts
        assert verdict.invariant == f"harmless:{scenarios[0].name}"
        assert verdict.total == 2
        if verdict.verdict != HOLDS_ALWAYS:
            assert verdict.witnesses


class TestEnsembleCli:
    def test_cli_exit_zero_on_stable(self, capsys):
        from repro.cli import main

        code = main(["ensemble", "--corpus", "fig3", "--seeds", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distinct outcome(s)" in out
        assert "holds-always" in out

    def test_cli_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "ensemble.json"
        code = main(
            [
                "ensemble", "--corpus", "fig3", "--seeds", "1,3",
                "--json", str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["seeds"] == [1, 3]
        assert payload["runs"] == 2
        assert payload["verdicts"]
        capsys.readouterr()

    def test_cli_seed_spec_rejected(self):
        from repro.cli import _parse_seeds

        assert _parse_seeds("4") == (0, 1, 2, 3)
        assert _parse_seeds("1,5,9") == (1, 5, 9)
        with pytest.raises(SystemExit):
            _parse_seeds("three")
