"""Work budgets: exact per-prefix work counts on the AFT extraction path.

Wall time on a shared host is noisy; these counts are not. Each test
runs one small converged production fabric and counts the calls that
carry per-prefix cost — ``Prefix.parse``, ``str(Prefix)``, the afts
encode and decode — so a change that brings back a re-parse, an unread
encode or a second decode fails here exactly, not as a blur in a
benchmark.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.chaos import ChaosInjector
from repro.core.faults import FaultPlan, StaleAft
from repro.corpus.production import production_scenario, scaled_timers
from repro.corpus.routes import RouteInjector
from repro.gnmi.aft import AftSnapshot
from repro.gnmi.server import extract_afts
from repro.kube.cluster import KubeCluster
from repro.kube.kne import KneDeployment
from repro.net.addr import Prefix


def _converged():
    """A 6-node fabric with 60 injected routes, converged, never read."""
    scenario = production_scenario(6, peers=1, routes_per_peer=60, seed=7)
    timers = scaled_timers(60)
    deployment = KneDeployment(
        scenario.topology, cluster=KubeCluster(), timers=timers, seed=3
    )
    deployment.deploy()
    for spec in scenario.injectors:
        RouteInjector(
            spec, deployment.kernel, deployment.fabric, timers=timers
        ).start()
    deployment.wait_converged(quiet_period=30.0)
    return deployment


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of the per-prefix calls, by name, from here on."""
    counts: Counter = Counter()
    parse = Prefix.parse.__func__
    fmt = Prefix.__str__
    encode = AftSnapshot.network_instances_to_dict
    decode = AftSnapshot.from_dict.__func__

    def counted_parse(cls, text):
        counts["parse"] += 1
        return parse(cls, text)

    def counted_str(self):
        counts["str"] += 1
        return fmt(self)

    def counted_encode(self):
        counts[f"encode:{self.device}"] += 1
        return encode(self)

    def counted_decode(cls, data, prefixes=None):
        counts[f"decode:{data['meta']['device']}"] += 1
        return decode(cls, data, prefixes)

    monkeypatch.setattr(Prefix, "parse", classmethod(counted_parse))
    monkeypatch.setattr(Prefix, "__str__", counted_str)
    monkeypatch.setattr(
        AftSnapshot, "network_instances_to_dict", counted_encode
    )
    monkeypatch.setattr(AftSnapshot, "from_dict", classmethod(counted_decode))
    return counts


def test_first_extraction_parses_each_distinct_prefix_once(calls):
    deployment = _converged()
    calls.clear()
    report = extract_afts(deployment)
    formatted, parsed = calls["str"], calls["parse"]
    entries = [e for aft in report.afts.values() for e in aft.entries]
    assert report.degraded == {} and len(entries) > 300
    distinct = {str(e.prefix) for e in entries}
    assert len(distinct) < len(entries)  # prefixes repeat across routers
    # One wire encode per entry, one parse per distinct string.
    assert formatted == len(entries)
    assert parsed == len(distinct)
    # Every decoded entry equals the FIB's, so the memo is handed out.
    for name, aft in report.afts.items():
        assert deployment.routers[name].aft_memo.snapshot is aft


def test_unchanged_re_extraction_formats_and_parses_nothing(calls):
    deployment = _converged()
    first = extract_afts(deployment).afts
    calls.clear()
    again = extract_afts(deployment).afts
    assert calls["str"] == 0 and calls["parse"] == 0
    assert not any(k.startswith(("encode:", "decode:")) for k in calls)
    assert all(again[name] is first[name] for name in first)


def test_stale_fault_still_takes_the_wire_and_is_caught(calls):
    deployment = _converged()
    first = extract_afts(deployment).afts
    node = sorted(first)[1]
    injector = ChaosInjector(
        deployment, FaultPlan(faults=(StaleAft(node=node, serves=1),))
    ).arm()
    deployment.kernel.run(until=deployment.kernel.now)
    calls.clear()
    report = extract_afts(deployment)
    # The hooked Get encodes (then the fault transforms it) on every
    # attempt; the stale response is decoded and rejected, and the
    # retry's clean response stands in for the memo undecoded.
    assert injector.fired("stale-aft") == 1
    assert calls[f"encode:{node}"] == 2
    assert calls[f"decode:{node}"] == 1
    assert report.retries == {node: 1} and report.degraded == {}
    live = deployment.routers[node].rib.fib.version
    assert report.afts[node] is first[node]
    assert report.afts[node].fib_version == live
