"""The ledger's own tests (not in tier-1 ``testpaths``; run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Everything runs at ``--smoke`` scale, in-process, one pass per
(workload, seed, trace) shared between tests.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.ledger import report, runners, workloads
from repro.verify.reachability import ReachabilityAnalysis

CONTRACT = report.contract()


@functools.lru_cache(maxsize=None)
def smoke_pass(workload: str, seed: int, trace: bool) -> dict:
    return runners.run_workload(workload, seed, 1.0, trace, smoke=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_contract_metric_is_emitted_with_its_unit(workload, trace):
    result = smoke_pass(workload, 1, trace)
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in section
    }
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_contract_names_the_workloads_and_the_ledger_directory():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


EXACT = {
    "cold_mesh": ("sim.events", "gnmi.entries", "verify.atoms"),
    "churn_campaign": ("sim.events", "verify.atoms", "temporal.checkpoints"),
}


def _counts(workload: str, seed: int, names) -> list:
    metrics = smoke_pass(workload, seed, True)["metrics"]
    return [metrics[name]["value"] for name in names]


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat_for_a_seed_and_move_with_it(workload):
    first = _counts(workload, 1, EXACT[workload])
    smoke_pass.cache_clear()
    assert _counts(workload, 1, EXACT[workload]) == first
    assert _counts(workload, 2, EXACT[workload]) != first
    assert all(first)


def test_service_counts_repeat_closely_for_a_seed():
    # Two concurrent clients: a submit landing between a job's finish
    # and its settle hook re-executes instead of hitting the cache, so
    # the journal count moves by a few records between same-seed runs.
    names = ("service.journal_records", "service.journal_bytes")
    first = _counts("service_mixed", 1, names)
    smoke_pass.cache_clear()
    again = _counts("service_mixed", 1, names)
    assert all(abs(a - b) <= 0.02 * a for a, b in zip(first, again))
    assert _counts("service_mixed", 2, names) != first


def test_cold_checks_reject_a_corrupted_answer():
    inputs = workloads.generate("cold_mesh", 1, smoke=True)
    snapshot, signature = runners.cold_op(inputs.emulation)
    ingresses = inputs.oracle_ingresses
    rows = ReachabilityAnalysis(snapshot.dataplane).analyze(ingresses)
    assert runners.check_cold_oracle(snapshot.dataplane, ingresses, rows) == []
    assert runners.check_cold_oracle(snapshot.dataplane, ingresses, rows[:-1])
    assert runners.check_repeatable([signature, signature]) == []
    assert runners.check_repeatable([signature, signature[:1] + (0,) + signature[2:]])


def test_campaign_check_rejects_an_unclean_revert():
    inputs = workloads.generate("churn_campaign", 1, smoke=True)
    _, campaign_report = runners.campaign_op(inputs)
    assert runners.check_campaign(campaign_report, inputs.scenarios) == []
    campaign_report.verdicts[0] = dataclasses.replace(
        campaign_report.verdicts[0], reverted_clean=False
    )
    campaign_report.cold_resets = 1
    assert len(runners.check_campaign(campaign_report, inputs.scenarios)) == 2


def test_service_check_rejects_a_corrupted_answer():
    inputs = workloads.generate("service_mixed", 1, smoke=True)
    pool = runners.build_pool(inputs)
    request = next(
        r for r in inputs.streams[0] if r.question == "traceroute"
    )
    with runners.ServiceRun(inputs, pool, "test") as run:
        record = runners.Record(dataclasses.replace(request, check=True))
        runners._perform(run.svc, pool, record.request, record, None)
    assert record.rows
    assert runners.check_service_answers([record], pool) == []
    record.rows = [dict(record.rows[0], Disposition="corrupted")]
    assert runners.check_service_answers([record], pool)


def _report(scale: float = 1.0, spread: float = 0.0) -> dict:
    out = report.new_report(seed=1, smoke=True, seconds=1.0)
    report.add_pass(out, "cold_mesh", copy.deepcopy(smoke_pass("cold_mesh", 1, False)))
    metric = out["workloads"]["cold_mesh"]["end_to_end"]["answer_ms"]
    metric["value"] *= scale
    metric["q1"] = metric["value"] * (1 - spread)
    metric["q3"] = metric["value"] * (1 + spread)
    return out


def test_compare_applies_bounds_and_reports_unresolved():
    def verdict(text):
        row = next(
            line for line in text.splitlines()
            if line.startswith("cold_mesh") and " answer_ms " in line
        )
        return row.split()[6]

    text, regressed = report.compare(_report(), _report(1.5))
    assert regressed and verdict(text) == "REGRESSED"
    text, regressed = report.compare(_report(), _report(1.01))
    assert not regressed and verdict(text) == "unchanged"
    text, regressed = report.compare(_report(spread=0.2), _report(1.01, spread=0.2))
    assert not regressed and verdict(text) == "unresolved"
    full = _report()
    full["smoke"] = False
    with pytest.raises(ValueError):
        report.compare(_report(), full)


def test_exits_nonzero_without_a_result_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(report.CONTRACT_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        report.REPO_ROOT / "benchmarks" / "ledger",
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger", "--workload", "cold_mesh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    lines = done.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")


def test_last_line_is_the_driver_object(tmp_path):
    out = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger", "--workload", "cold_bigtable",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke",
         "--out", str(out)],
        cwd=report.REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert all(sorted(m) == ["unit", "value"] for m in last["metrics"].values())
    written = json.loads(out.read_text())
    assert written["smoke"] is True and written["schema"] == report.SCHEMA_VERSION
    metric = written["workloads"]["cold_bigtable"]["end_to_end"]["answer_ms"]
    assert sorted(metric) == ["n", "q1", "q3", "unit", "value"]
