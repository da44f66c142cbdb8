"""Core pipeline tests: backends, snapshots, contexts, seed sweeps and
the shard pool under them."""

import concurrent.futures
import logging
import pickle

import pytest

from repro.core.context import ScenarioContext, k_link_cut_count
from repro.core.faults import LinkDown, NodeDown
from repro.core.differential import compare_snapshots
from repro.core.pipeline import (
    ModelFreeBackend,
    NativeBatfishBackend,
    run_sharded,
)
from repro.core.snapshot import Snapshot
from repro.corpus.fig3 import fig3_scenario
from repro.ensemble import EnsembleRunner
from repro.kube.kne import ConvergenceTimeout, DeployTimeout
from repro.net.addr import parse_ipv4
from repro.protocols.timers import FAST_TIMERS
from repro.topo.builder import TopologyBuilder
from repro.verify.reachability import pairwise_matrix
from repro.whatif import WhatIfCampaign, single_link_failures


class TestSnapshot:
    def test_save_load_roundtrip(self, fig3_emulated, tmp_path):
        _backend, snapshot = fig3_emulated
        path = tmp_path / "snap.json"
        snapshot.save(path)
        restored = Snapshot.load(path)
        assert restored.name == snapshot.name
        assert restored.backend == "emulation"
        assert set(restored.afts) == set(snapshot.afts)
        # Restored snapshots answer queries identically.
        assert pairwise_matrix(restored.dataplane) == pairwise_matrix(
            snapshot.dataplane
        )

    def test_dataplane_cached(self, fig3_emulated):
        _backend, snapshot = fig3_emulated
        assert snapshot.dataplane is snapshot.dataplane

    def test_metadata_populated(self, fig3_emulated):
        _backend, snapshot = fig3_emulated
        assert snapshot.startup_seconds > 0
        assert snapshot.metadata["devices"] == 3


class TestModelFreeBackend:
    def test_emulation_full_mesh(self, fig3_emulated):
        _backend, snapshot = fig3_emulated
        assert all(pairwise_matrix(snapshot.dataplane).values())

    def test_operator_access_preserved(self, fig3_emulated):
        backend, _snapshot = fig3_emulated
        ssh = backend.last_run.deployment.ssh("r1")
        assert "2.2.2.3/32" in ssh.execute("show ip route")

    def test_link_cut_context(self, fig3):
        backend = ModelFreeBackend(
            fig3.topology, timers=FAST_TIMERS, quiet_period=5.0
        )
        context = ScenarioContext().with_link_down("r2", "r3")
        snapshot = backend.run(context)
        matrix = pairwise_matrix(snapshot.dataplane)
        assert matrix[("r1", "r3")] is False
        assert matrix[("r1", "r2")] is True


class TestNativeBatfishBackend:
    def test_model_backend_diverges_on_fig3(self, fig3_model):
        _backend, snapshot = fig3_model
        assert snapshot.backend == "model"
        matrix = pairwise_matrix(snapshot.dataplane)
        assert matrix[("r2", "r1")] is False

    def test_unrecognized_lines_in_metadata(self, fig3_model):
        _backend, snapshot = fig3_model
        assert snapshot.metadata["unrecognized_lines"]["r1"] >= 1

    def test_rejects_injectors(self, fig3):
        backend = NativeBatfishBackend(fig3.topology)
        from repro.corpus.routes import InjectorSpec

        context = ScenarioContext(
            injectors=(
                InjectorSpec(
                    name="p", asn=1, ip="10.9.0.1",
                    gateway_node="r1", gateway_port="Ethernet1",
                    gateway_ip="10.9.0.0",
                ),
            )
        )
        with pytest.raises(NotImplementedError):
            backend.run(context)

    def test_rejects_non_arista(self):
        builder = TopologyBuilder("mixed")
        builder.node("x", vendor="nokia", config="set / system name host-name x")
        with pytest.raises(NotImplementedError):
            NativeBatfishBackend(builder.build()).run()


class TestCrossBackendDifferential:
    def test_fig3_divergence_surfaces(self, fig3_emulated, fig3_model):
        _mf, emulated = fig3_emulated
        _nb, model = fig3_model
        rows = compare_snapshots(emulated, model)
        regressions = [row for row in rows if row.regressed]
        # The paper's headline: model drops traffic the real router
        # forwards, including r2 -> r1's loopback.
        assert any(
            row.ingress == "r2"
            and row.sample_destination == parse_ipv4("2.2.2.1")
            for row in regressions
        )

    def test_fixed_model_agrees_with_emulation(self, fig3, fig3_emulated):
        from repro.batfish_model.issues import FIXED_ASSUMPTIONS

        _mf, emulated = fig3_emulated
        fixed = NativeBatfishBackend(
            fig3.topology, assumptions=FIXED_ASSUMPTIONS
        ).run()
        rows = compare_snapshots(emulated, fixed)
        assert [row for row in rows if row.regressed] == []


class TestContexts:
    def test_with_link_down_names_context(self):
        context = ScenarioContext().with_link_down("a", "b")
        assert context.faults == (LinkDown("a", "b"),)
        assert "cut:a-b" in context.name

    def test_single_link_cut_enumeration(self, fig3):
        contexts = [
            plan.to_context(ScenarioContext(), fig3.topology)
            for plan in single_link_failures(fig3.topology)
        ]
        assert len(contexts) == len(fig3.topology.links)
        assert [c.name for c in contexts] == [
            f"base+cut:{link.a.node}-{link.z.node}"
            for link in fig3.topology.links
        ]

    @pytest.mark.parametrize(
        "fault",
        [
            LinkDown("a", "b", at=5.0),
            LinkDown("a", "b", restore_after=5.0),
            NodeDown("a"),
        ],
    )
    def test_context_takes_only_permanent_link_cuts(self, fault):
        with pytest.raises(ValueError):
            ScenarioContext(faults=(fault,))

    def test_k_cut_growth(self):
        assert k_link_cut_count(20, 1) == 20
        assert k_link_cut_count(20, 2) == 190
        assert k_link_cut_count(20, 3) == 1140


class TestMultirun:
    def test_seeds_converge_to_equivalent_dataplanes(self, fig3):
        runner = EnsembleRunner(
            fig3.topology,
            seeds=(0, 1),
            invariants=(),
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        report = runner.run()
        assert report.runs == 2
        assert [r.seed for r in runner.last_records] == [0, 1]
        # Fig. 3 has no ordering-dependent tiebreaks: all seeds agree.
        assert report.deterministic


def _square_shard(shard):
    """Head: the shard as dealt; results: one (member, square) each."""
    return tuple(shard), [(member, member * member) for member in shard]


class TestRunSharded:
    @pytest.mark.parametrize(
        "members, workers, used",
        [
            ([0, 1, 2, 3, 4], 2, 2),
            ([0, 1, 2], 4, 3),
            ([1, 1], 2, 2),
            ([0, 1, 2], 1, 1),
            ([7], 4, 1),
        ],
    )
    def test_results_come_back_in_submission_order(
        self, members, workers, used
    ):
        heads, results, got = run_sharded(_square_shard, members, workers)
        assert got == used
        # Round-robin dealing, and every result back at its position —
        # a duplicate member comes back once per occurrence.
        assert heads == [tuple(members[i::used]) for i in range(used)]
        assert results == [(m, m * m) for m in members]

    def test_pool_that_cannot_start_runs_in_process(
        self, monkeypatch, caplog
    ):
        in_process = run_sharded(_square_shard, range(5), workers=1)

        def refuse(*args, **kwargs):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with caplog.at_level(logging.WARNING):
            fallback = run_sharded(_square_shard, range(5), workers=2)
        assert fallback == in_process
        assert in_process[2] == 1
        assert "process pool unavailable" in caplog.text

    @pytest.mark.parametrize(
        "error",
        [
            ConvergenceTimeout("still churning", unstable=["r1"], elapsed=2.5),
            DeployTimeout("stuck", pending={"r2": "Pending"}),
        ],
        ids=["convergence", "deploy"],
    )
    def test_timeouts_survive_pickle(self, error):
        restored = pickle.loads(pickle.dumps(error))
        assert type(restored) is type(error)
        assert restored.args == error.args
        assert vars(restored) == vars(error)

    @pytest.mark.parametrize("sweep", ["campaign", "ensemble"])
    def test_member_timeout_reaches_caller_once(self, fig3, sweep, caplog):
        settings = dict(
            timers=FAST_TIMERS, quiet_period=5.0, convergence_max_time=1.0
        )
        if sweep == "campaign":
            scenarios = list(single_link_failures(fig3.topology))
            run = WhatIfCampaign(fig3.topology, scenarios, **settings).run
        else:
            run = EnsembleRunner(fig3.topology, seeds=(0, 1), **settings).run
        with caplog.at_level(logging.WARNING), pytest.raises(
            ConvergenceTimeout
        ):
            run(workers=2)
        # Raised from the pool, not from an in-process rerun of the
        # whole matrix after the pool broke.
        assert "pool" not in caplog.text
        assert "sequentially" not in caplog.text

    def test_duplicate_seeds_run_twice(self, fig3):
        runner = EnsembleRunner(
            fig3.topology,
            seeds=(1, 1),
            invariants=(),
            timers=FAST_TIMERS,
            quiet_period=5.0,
        )
        report = runner.run(workers=2)
        assert report.runs == 2 and report.workers == 2
        first, second = runner.last_records
        assert first.seed == second.seed == 1
        assert first is not second
        assert report.outcomes[0].members == [(1, ""), (1, "")]
