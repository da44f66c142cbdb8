"""Work budgets: exact work counts on the extraction and question paths.

Wall time on a shared host is noisy; these counts are not. Each test
runs one small converged production fabric and counts the calls that
carry per-prefix cost — ``Prefix.parse``, ``str(Prefix)``, the afts
encode and decode — or the engines a question stream builds, or the
engine's node structs and index probes, so a change that brings back a
re-parse, an unread encode, a second decode, a duplicate engine, a
per-entry memo or a second decision sweep fails here exactly, not as a
blur in a benchmark.
"""

from __future__ import annotations

import random
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
from repro.obs import tracing
from repro.service.resilience import QuestionSpec
from repro.service.store import SnapshotStore
from repro.verify.engine import (
    CACHE_LIMIT,
    AtomGraphEngine,
    clear_engine_cache,
    engine_for,
)


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


def test_question_stream_engine_builds(production6_states):
    """A seeded stream of reachability and differential questions over
    more states than CACHE_LIMIT, through one store: every
    engine it makes is a cold build or a derivation, and both are
    counted exactly."""
    states = production6_states
    assert len({s.dataplane.fib_fingerprint() for s in states}) > CACHE_LIMIT
    base = states[0]
    store = SnapshotStore()
    rng = random.Random(11)
    clear_engine_cache()
    with tracing() as tracer:
        for _ in range(80):
            snapshot = rng.choice(states)
            fingerprint = snapshot.dataplane.fib_fingerprint()
            if rng.random() < 0.3 and snapshot is not base:
                spec = QuestionSpec(
                    "differentialReachability", (), None, fingerprint,
                    reference_fingerprint=base.dataplane.fib_fingerprint(),
                )
                spec.answer(store, snapshot, base)
            else:
                spec = QuestionSpec("reachability", (), None, fingerprint)
                spec.answer(store, snapshot)
    clear_engine_cache()
    # The store's capacity widens the table past CACHE_LIMIT, so each of
    # the 10 states gets one engine: derived when its first question is
    # a differential against the resident base, else built cold.
    assert tracer.counters.get("verify.engine_builds", 0) <= 8
    assert tracer.counters.get("verify.delta_applies", 0) <= 2


def test_node_structs_resolve_once_per_next_hop_group(production6_states):
    """A forward struct depends on the device, the entry's next-hop
    group and the adjacency — never on the prefix — so a cold engine
    memoises at most one struct per (device, next-hop group)."""
    dataplane = production6_states[0].dataplane
    engine = AtomGraphEngine(dataplane)
    engine.precompute()
    groups = {
        (name, entry.hops)
        for name, device in dataplane.devices.items()
        for _, entry in device.trie.items()
        if entry.entry_type == "forward"
    }
    forwards = sum(
        entry.entry_type == "forward"
        for device in dataplane.devices.values()
        for _, entry in device.trie.items()
    )
    memo = sum(len(sub) for sub in engine._node_cache.values())
    assert memo <= len(groups) < forwards / 4


def test_derivations_reuse_the_root_sweep(production6_states):
    """The baseline engine sweeps every device's compiled index once
    and keeps the sweep; the engines derived from it for every
    single-link cut probe no compiled index at all."""
    base, *cuts = production6_states
    clear_engine_cache()
    with tracing() as tracer:
        root = engine_for(base.dataplane)
        root.precompute()
        for cut in cuts:
            engine_for(cut.dataplane, base=root)
    clear_engine_cache()
    counters = tracer.counters
    assert len(cuts) == 9
    assert counters["verify.engine_builds"] == 1
    assert counters["verify.delta_applies"] == len(cuts)
    assert counters["verify.index_probes"] == (
        len(root.atoms) * len(base.dataplane.devices)
    )
