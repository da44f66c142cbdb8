"""Behaviour pins for the layers that sit on the LPM table.

The table under RIB, FIB and Dataplane decides the order AFT entries are
extracted in and how fast the emulation converges in *event* terms. A
replacement has to be the same program: the digests below were computed
on the commit before the hash-bucket table replaced the bit trie, and
must never move for a change that claims to be a pure representation
swap. The pickle round trip is what the service journal's snapshot
manifest does to a ``Snapshot`` whose dataplane is already built.

The warm path has its own pin: a what-if campaign's verdict rows and
temporal counts, computed on the commit before extraction started
reusing snapshots per FIB version. None of the digests may depend on
``PYTHONHASHSEED`` (CI runs this file under two).
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

#: sha256 of the extracted snapshot, and kernel events to converge.
GOLDEN = {
    "fig2": (
        "12b6129397147b6a2e3f7d9f39d701dfd1efb3b2854b2dc1e1bae405658ef8f3",
        3518,
    ),
    "production": (
        "b707ab7bfedda63f2c0a662203f5da7ea58c1fc53035e7bea69ee4d14b14fa3a",
        2965,
    ),
}


def snapshot_digest(snapshot) -> str:
    data = snapshot.to_dict()
    # Wall seconds are host time; the rest is a function of the seed.
    for timing in data["metadata"]["phases"].values():
        del timing["wall_seconds"]
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()


def converge(topology, context, timers, quiet_period):
    backend = ModelFreeBackend(
        topology, timers=timers, quiet_period=quiet_period
    )
    snapshot = backend.run(context, seed=SEED, snapshot_name="golden")
    return snapshot, backend.last_run.deployment.kernel.events_processed


class TestGoldenDigest:
    def test_fig2(self, fig2):
        snapshot, events = converge(fig2.topology, None, FAST_TIMERS, 5.0)
        assert (snapshot_digest(snapshot), events) == GOLDEN["fig2"]

    def test_production(self):
        scenario = production_scenario(6, peers=1, routes_per_peer=60)
        context = ScenarioContext(
            name="prod", injectors=tuple(scenario.injectors)
        )
        snapshot, events = converge(
            scenario.topology, context, scaled_timers(60), 30.0
        )
        assert (snapshot_digest(snapshot), events) == GOLDEN["production"]


class TestWarmCampaignGolden:
    #: sha256 of the campaign report; temporal checkpoints and intervals.
    GOLDEN = (
        "15f6c3363763f87940cfd6e32adbc38f5059096dd860ffbc039860a6c1405150",
        11,
        45,
    )

    def test_production_cuts_and_flap(self):
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
        digest = hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()
        ).hexdigest()
        checkpoints = sum(v.temporal_checkpoints for v in report.verdicts)
        intervals = sum(v.temporal_violations for v in report.verdicts)
        assert (digest, checkpoints, intervals) == self.GOLDEN


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
