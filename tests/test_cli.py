"""CLI tests (via the main() entry point, capturing stdout)."""

import argparse
import json

import pytest

from repro.cli import _temporal_scenario, build_parser, main
from repro.corpus.fig3 import fig3_scenario
from repro.topo.parser import format_topology


@pytest.fixture()
def topology_dir(tmp_path):
    scenario = fig3_scenario()
    for name, config in scenario.configs.items():
        (tmp_path / f"{name}.cfg").write_text(config)
    text = format_topology(scenario.topology)
    # Reference the config files the KNE way.
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if line.strip().startswith('name: "r'):
            node = line.split('"')[1]
            lines.append(f'  config_file: "{node}.cfg"')
    (tmp_path / "topo.pb.txt").write_text("\n".join(lines))
    return tmp_path


class TestVerify:
    def test_verify_emulation_and_save(self, topology_dir, capsys):
        snap_path = topology_dir / "snap.json"
        code = main(
            [
                "verify",
                str(topology_dir / "topo.pb.txt"),
                "--quiet-period", "5.0",
                "--save", str(snap_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert snap_path.exists()

    def test_verify_model_backend_warns(self, topology_dir, capsys):
        code = main(
            [
                "verify",
                str(topology_dir / "topo.pb.txt"),
                "--backend", "model",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "model failed to parse" in out
        assert "FAIL" in out  # the Fig. 3 model defect shows up


class TestOfflineQueries:
    @pytest.fixture()
    def snapshot_path(self, topology_dir):
        path = topology_dir / "snap.json"
        main(
            [
                "verify", str(topology_dir / "topo.pb.txt"),
                "--quiet-period", "5.0", "--save", str(path),
            ]
        )
        return path

    def test_trace(self, snapshot_path, capsys):
        code = main(["trace", str(snapshot_path), "r3", "2.2.2.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted" in out

    def test_routes(self, snapshot_path, capsys):
        code = main(["routes", str(snapshot_path), "r2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.2.2.1/32" in out

    def test_diff_same_snapshot_clean(self, snapshot_path, capsys):
        code = main(["diff", str(snapshot_path), str(snapshot_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "(no rows)" in out

    def test_diff_delta_stats_identical_content(self, snapshot_path, capsys):
        # Identical content shares one engine — there is no delta to
        # apply, and the block must say so rather than invent stats.
        code = main(
            ["diff", str(snapshot_path), str(snapshot_path), "--delta-stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delta stats:" in out
        assert "cold build" in out


class TestDemo:
    def test_demo_fig3(self, capsys):
        code = main(["demo", "fig3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "differentialReachability" in out


class TestObs:
    def test_verify_trace_writes_jsonl(self, topology_dir, capsys):
        trace_path = topology_dir / "run.jsonl"
        code = main(
            [
                "verify",
                str(topology_dir / "topo.pb.txt"),
                "--quiet-period", "5.0",
                "--trace", str(trace_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace written to {trace_path}" in out
        assert trace_path.exists()
        # The file is valid JSONL and feeds obs summary.
        code = main(["obs", "summary", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Phases:" in out
        assert "deploy" in out and "verify" in out
        assert "Counters:" in out
        assert "Last route installed" in out

    def test_obs_timeline_scenario(self, capsys):
        code = main(["obs", "timeline", "--scenario", "fig3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Phases:" in out
        assert "deploy" in out and "converge" in out and "verify" in out
        assert "adj-up" in out and "last-route" in out
        for node in ("r1", "r2", "r3"):
            assert node in out
        assert "kernel.dispatch" in out
        assert "Total events recorded" in out
        assert "Verification:" in out

    def test_obs_timeline_topology_file_with_trace(
        self, topology_dir, capsys
    ):
        trace_path = topology_dir / "timeline.jsonl"
        code = main(
            [
                "obs", "timeline",
                "--topology", str(topology_dir / "topo.pb.txt"),
                "--trace", str(trace_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert trace_path.exists()
        assert "trace written to" in out

    def test_obs_summary_missing_kind_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "nope"}\n')
        with pytest.raises(ValueError):
            main(["obs", "summary", str(bad)])

    def test_verbose_flag_accepted(self, topology_dir, capsys):
        code = main(
            [
                "-v",
                "verify",
                str(topology_dir / "topo.pb.txt"),
                "--quiet-period", "5.0",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out


_DEPLOYMENT = {
    "topology": None, "nodes": 8, "routes": 1000, "quiet_period": None,
    "fast": False, "json": None, "trace": None, "verbose": 0,
}
_FAULT_PLAN = {"plan_seed": 0, "intensity": 3, "crash_at": 900.0}


class TestParserSurface:
    """Every default of the sweep verbs, pinned: sharing argument groups
    between them must not move one."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["verify", "t.pb"],
                {
                    "command": "verify", "topology": "t.pb",
                    "backend": "emulation", "seed": 0, "quiet_period": 30.0,
                    "save": None, "trace": None, "delta_stats": False,
                    "verbose": 0,
                },
            ),
            (
                ["whatif"],
                {
                    **_DEPLOYMENT, "command": "whatif", "corpus": "fig2",
                    "mode": "links", "k": 2, "flap_hold": 30.0,
                    "limit": None, "seed": 0, "workers": 1,
                },
            ),
            (
                ["chaos"],
                {
                    **_DEPLOYMENT, **_FAULT_PLAN, "command": "chaos",
                    "corpus": "production", "plan": "acceptance",
                    "no_crash": False, "seed": 0, "seeds": None,
                    "temporal": False,
                },
            ),
            (
                ["ensemble"],
                {
                    **_DEPLOYMENT, **_FAULT_PLAN, "command": "ensemble",
                    "corpus": "fig3", "seeds": "4", "plans": "none",
                    "plan_count": 2, "temporal": False, "waypoint": None,
                    "workers": 1,
                },
            ),
            (
                ["temporal"],
                {
                    **_DEPLOYMENT, "command": "temporal", "corpus": "fig3",
                    "flap": None, "flap_hold": 15.0, "replay": None,
                    "save_stream": None, "brute_force": False,
                    "max_loop_s": 0.0, "max_blackhole_s": 0.0,
                    "max_churn": None, "waypoint": None, "seed": 0,
                },
            ),
        ],
        ids=["verify", "whatif", "chaos", "ensemble", "temporal"],
    )
    def test_defaults(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        parsed.pop("func")
        assert parsed == expected

    def test_verify_has_no_workers(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["verify", "t.pb", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestChaos:
    def test_chaos_fig2_json(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        code = main(["chaos", "--corpus", "fig2", "--json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "{'kind': 'node-down', 'target': 'r1'}" in out
        payload = json.loads(path.read_text())
        assert sorted(payload) == [
            "baseline_verification", "chaos_verification", "degraded_nodes",
            "degraded_verdict_fraction", "faults_fired", "plan", "retries",
            "seed", "stability", "survived", "total_retries",
        ]
        assert payload["survived"] is True
        assert payload["faults_fired"] == 7
        assert list(payload["degraded_nodes"]) == ["r1"]


class TestTemporalScenario:
    @staticmethod
    def args(flap):
        return argparse.Namespace(flap=flap, flap_hold=15.0)

    def test_flap_match_picks_that_link(self):
        topology = fig3_scenario().topology
        plan = _temporal_scenario(self.args("r2-r3"), topology)
        assert plan.name == "flap:r2-r3"
        assert plan.horizon == 15.0

    def test_no_match_exits_with_the_names(self):
        topology = fig3_scenario().topology
        with pytest.raises(SystemExit, match="flap:r1-r2, flap:r2-r3"):
            _temporal_scenario(self.args("r9"), topology)


class TestSubmit:
    @pytest.fixture()
    def fig2_path(self, fig2_snapshots, tmp_path):
        healthy, _ = fig2_snapshots
        path = tmp_path / "fig2.json"
        healthy.save(path)
        return path

    def test_reachability_prints_the_answer(self, fig2_path, capsys):
        code = main(
            ["submit", str(fig2_path), "reachability", "--workers", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Answer[reachability] (6 rows)")
        assert "r6      | 2.2.2.1     | 8                 | accepted" in out

    def test_malformed_param_exits_2(self, fig2_path, capsys):
        code = main(
            ["submit", str(fig2_path), "reachability", "--param", "nodes"]
        )
        assert code == 2
        assert "bad --param 'nodes' (expected KEY=VALUE)" in (
            capsys.readouterr().out
        )
