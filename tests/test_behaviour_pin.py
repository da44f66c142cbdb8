"""Behaviour pins: what the emulation computes, and how it got there.

Every pinned run carries two kinds of constant, and a change has to say
which kind it is allowed to move.

**Forwarding-state pins** (``FORWARDING``, ``CAMPAIGN_VERDICTS``) hash
only what verification consumes: each node's extracted AFT without its
``meta`` block, and a what-if campaign's verdict rows without their
simulated-time fields. They were computed on the commit before BGP
sessions got an Adj-RIB-Out and have never moved. No optimisation may
move them: not a table swap, not extraction reuse, not a change to what
the protocols put on the wire. The converged state is a property of the
network, not of message order. Only a deliberate change to protocol
*semantics* (a new best-path rule, a different export policy) re-pins
them, and says so.

**Trace pins** (``TRACE``, ``CAMPAIGN_TRACE``) hash everything else as
well: simulated convergence times, kernel event counts, temporal
checkpoint counts. A pure representation change (the LPM table under
RIB/FIB/Dataplane, per-FIB-version extraction reuse, a cheaper event
queue, memoised export) must leave them alone too; that is how it proves
it is the same program. A change to *which messages are sent or when*
re-pins them once, in the commit that makes it, with old -> new values
in CHANGES.md. Last re-pinned when sessions stopped sending withdrawals
and repeats their peer has no use for (production events 2965 -> 2376).

The pickle round trip is what the service journal's snapshot manifest
does to a ``Snapshot`` whose dataplane is already built. None of the
digests may depend on ``PYTHONHASHSEED`` (CI runs this file under two).
"""

import hashlib
import json
import pickle
from itertools import islice

import pytest

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.net.addr import MAX_IPV4
from repro.protocols.timers import FAST_TIMERS
from repro.whatif import WhatIfCampaign, link_flap_scenarios, single_link_failures

SEED = 3

#: sha256 of ``{node: aft.to_dict() minus "meta"}``.
FORWARDING = {
    "fig2": "c64a28cc7d431ac1ada06355304f387992b55392f496c2114f025e884627eb2d",
    "production": "a32df96c72bfc42f818da5bcb125965f47bfd50a7f9d550feb17d0c0f1c13fa1",
}

#: sha256 of the whole extracted snapshot, and kernel events to converge.
TRACE = {
    "fig2": (
        "d42843379e2b434c876ffa16da7de7d5a64e8c9dc8e14704dbf261651ca8ca17",
        3269,
    ),
    "production": (
        "ccaab204f760f3dfe9b101c27c833fd234c77f2cae900f84880f6477d9e5ce64",
        2376,
    ),
}

#: sha256 of the campaign report minus its simulated-time fields.
CAMPAIGN_VERDICTS = "071b3e2554564530f9e60dce5783e9ad1a10f76726473b0587e05048042dff12"

#: sha256 of the whole campaign report; temporal checkpoints and intervals.
CAMPAIGN_TRACE = (
    "6391cc1f94e792f42a696cf1bea21ad93faca67e7296cd0e5f08adc92ddc99da",
    10,
    45,
)


def sha256_json(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()


def forwarding_digest(snapshot) -> str:
    state = {}
    for node, aft in snapshot.afts.items():
        state[node] = aft.to_dict()
        del state[node]["meta"]
    return sha256_json(state)


def snapshot_digest(snapshot) -> str:
    data = snapshot.to_dict()
    # Wall seconds are host time; the rest is a function of the seed.
    for timing in data["metadata"]["phases"].values():
        del timing["wall_seconds"]
    return sha256_json(data)


def campaign_verdicts_digest(data: dict) -> str:
    """``data`` minus every field that reads the simulated clock."""

    def timeless(value, drop=()):
        return {
            key: item
            for key, item in value.items()
            if not key.endswith("_seconds") and key not in drop
        }

    kept = timeless(data, drop=("speedup",))
    kept["baseline"] = timeless(data["baseline"])
    kept["scenarios"] = [
        {
            **timeless(row),
            # How many checkpoints a stream needs, and when its worst
            # interval sat, depend on message timing; what it found
            # (violations, transient) does not.
            "temporal": timeless(row["temporal"], drop=("checkpoints", "worst")),
        }
        for row in data["scenarios"]
    ]
    return sha256_json(kept)


def converge(topology, context, timers, quiet_period):
    backend = ModelFreeBackend(
        topology, timers=timers, quiet_period=quiet_period
    )
    snapshot = backend.run(context, seed=SEED, snapshot_name="golden")
    return snapshot, backend.last_run.deployment.kernel.events_processed


@pytest.fixture(scope="module")
def fig2_run(fig2):
    return converge(fig2.topology, None, FAST_TIMERS, 5.0)


@pytest.fixture(scope="module")
def production_run():
    scenario = production_scenario(6, peers=1, routes_per_peer=60)
    context = ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
    return converge(scenario.topology, context, scaled_timers(60), 30.0)


@pytest.fixture(scope="module")
def campaign_report():
    scenario = production_scenario(6, peers=1, routes_per_peer=60)
    topology = scenario.topology
    campaign = WhatIfCampaign(
        topology,
        [
            *islice(single_link_failures(topology), 2),
            *islice(link_flap_scenarios(topology, hold_seconds=30.0), 1),
        ],
        context=ScenarioContext(
            name="prod", injectors=tuple(scenario.injectors)
        ),
        timers=scaled_timers(60),
        quiet_period=30.0,
        seed=SEED,
        temporal=True,
    )
    report = campaign.run()
    data = report.to_dict()
    for row in data["scenarios"]:
        # hash()-based, so it differs from process to process.
        del row["fib_fingerprint"]
    return report, data


class TestForwardingState:
    def test_fig2(self, fig2_run):
        assert forwarding_digest(fig2_run[0]) == FORWARDING["fig2"]

    def test_production(self, production_run):
        assert forwarding_digest(production_run[0]) == FORWARDING["production"]

    def test_campaign_verdicts(self, campaign_report):
        _, data = campaign_report
        assert campaign_verdicts_digest(data) == CAMPAIGN_VERDICTS


class TestGoldenDigest:
    def test_fig2(self, fig2_run):
        snapshot, events = fig2_run
        assert (snapshot_digest(snapshot), events) == TRACE["fig2"]

    def test_production(self, production_run):
        snapshot, events = production_run
        assert (snapshot_digest(snapshot), events) == TRACE["production"]


class TestWarmCampaignGolden:
    def test_production_cuts_and_flap(self, campaign_report):
        report, data = campaign_report
        checkpoints = sum(v.temporal_checkpoints for v in report.verdicts)
        intervals = sum(v.temporal_violations for v in report.verdicts)
        assert (sha256_json(data), checkpoints, intervals) == CAMPAIGN_TRACE


class TestSnapshotPickleRoundTrip:
    @pytest.fixture(scope="class")
    def pair(self, fig2_snapshots):
        original = fig2_snapshots[0]
        for device in original.dataplane.devices.values():
            device.content_signature()
            device.compiled_index()
        loaded = pickle.loads(
            pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL)
        )
        return original.dataplane, loaded.dataplane

    def test_signatures_survive(self, pair):
        before, after = pair
        assert after.fib_fingerprint() == before.fib_fingerprint()
        for name, device in before.devices.items():
            restored = after.devices[name]
            assert restored.content_signature() == device.content_signature()
            # And recomputed from the unpickled table, not just carried.
            restored._signature = None
            assert restored.content_signature() == device.content_signature()

    def test_lookups_and_index_survive(self, pair):
        before, after = pair
        for name, device in before.devices.items():
            restored = after.devices[name]
            assert restored.sorted_entries() == device.sorted_entries()
            ranges = device.compiled_index().ranges
            assert restored.compiled_index().ranges == ranges
            assert restored.trie.lpm_intervals() == ranges
            assert ranges[0][0] == 0 and ranges[-1][1] == MAX_IPV4
            for lo, hi, entry in ranges:
                assert restored.lookup(lo) == entry == device.lookup(lo)
                assert restored.lookup(hi) == entry == device.lookup(hi)

    def test_unpickled_table_still_mutates_coherently(self, pair):
        _, after = pair
        table = next(iter(after.devices.values())).trie
        # The longest prefix stored: nothing more specific can shadow it.
        prefix, entry = max(table.items(), key=lambda kv: kv[0].length)
        size = len(table)
        assert table.remove(prefix) is entry
        assert prefix not in table and len(table) == size - 1
        assert prefix not in list(table.keys())
        table.insert(prefix, entry)
        assert table.longest_match(prefix.network) == (prefix, entry)
        assert list(table.covering(prefix))[-1] == (prefix, entry)
