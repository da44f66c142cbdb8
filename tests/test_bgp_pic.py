"""Oracles for prefix-independent BGP (decide, resolve, program once).

``BgpInstance._decide`` runs the decision process once per candidate
signature in a pass, and the RIB resolves each BGP next hop once into a
shared group that it re-programs only when the group's resolution
moved. Three oracles hold that to the per-prefix program it replaced:

(a) hypothesis: the per-prefix ``_decide`` loop, kept verbatim below as
    :class:`PerPrefixBgp`, against the memoised one over generated
    candidate sets (ties, multipath, local origination, sessions that
    are not established, IGP changes, session loss). Loc-RIB, multipath
    sets, RIB candidates and FIB, the version counters, and the
    advertised changes in order must all be equal after every step.
(b) a seeded cut/restore/flap script on production-6: whenever the
    network is quiet, every router's RIB, FIB and Loc-RIB equal a
    from-scratch selection and resolution over the same candidates.
(c) the invalidation corner on purpose: a more-specific BGP route that
    covers a BGP next hop, arriving in the same ``_decide`` batch, and a
    more-specific static route covering one between batches.

CI repeats this file under a fixed ``PYTHONHASHSEED``: ``_decide``
iterates a ``set[Prefix]``, so order dependence must show there.
"""

from __future__ import annotations

import random
from typing import Optional

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.device.model import BgpConfig, BgpNeighborConfig, DeviceConfig
from repro.net.addr import Prefix, parse_ipv4
from repro.net.trie import PrefixTrie
from repro.protocols.bgp import BgpInstance, Session, SessionState
from repro.protocols.bgp_attrs import (
    BgpPath,
    Origin,
    PathAttributes,
    intern_attrs,
    multipath_set,
)
from repro.protocols.timers import FAST_TIMERS
from repro.rib.fib import FibAction
from repro.rib.rib import Rib
from repro.rib.route import NextHop, Protocol, ResolvedNextHop, Route
from repro.sim.kernel import SimKernel

ASN = 65000
LOCAL_IP = parse_ipv4("192.168.0.100")


# -- the per-prefix decision process, verbatim (the oracle) -----------------------


class PerPrefixBgp(BgpInstance):
    """The decision process as it was before decisions were shared per
    candidate signature: every prefix builds its paths, runs
    ``multipath_set`` with an LPM per candidate, and programs the RIB
    with withdraw + withdraw + install. Only the advertisement is
    replaced, by a recorder."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.advertised: list = []

    def _igp_metric(self, next_hop: int) -> Optional[int]:
        if next_hop == 0:
            return 0
        route = self.host.rib.longest_match(next_hop)
        if route is None:
            return None
        if route.protocol in (Protocol.BGP_EXTERNAL, Protocol.BGP_INTERNAL):
            return None  # next hop must resolve via IGP/connected/static
        return route.metric

    def _decide(self, prefixes: set[Prefix]) -> None:
        changed: list[tuple[Prefix, Optional[BgpPath], Optional[BgpPath]]] = []
        for prefix in prefixes:
            paths: list[BgpPath] = []
            local_attrs = self.locally_originated.get(prefix)
            if local_attrs is not None:
                paths.append(
                    BgpPath(
                        attrs=local_attrs,
                        from_ebgp=False,
                        peer_ip=0,
                        peer_router_id=self.router_id,
                        is_local=True,
                    )
                )
            for peer_ip, rib_in in self.adj_rib_in.items():
                attrs = rib_in.get(prefix)
                if attrs is None:
                    continue
                session = self.sessions.get(peer_ip)
                if session is None or not session.is_established:
                    continue
                paths.append(
                    BgpPath(
                        attrs=attrs,
                        from_ebgp=session.is_ebgp,
                        peer_ip=peer_ip,
                        peer_router_id=session.peer_router_id,
                    )
                )
            chosen = multipath_set(
                paths,
                self._igp_metric,
                maximum_paths=self.config.maximum_paths,
                prefer_higher_igp_metric=self.quirk_prefer_higher_igp_metric,
            )
            new_best = chosen[0] if chosen else None
            new_set = tuple(chosen)
            old_best = self.local_rib.get(prefix)
            old_set = self.multipath.get(prefix, ())
            if new_best == old_best and new_set == old_set:
                continue
            if new_best is None:
                self.local_rib.pop(prefix, None)
                self.multipath.pop(prefix, None)
            else:
                self.local_rib[prefix] = new_best
                self.multipath[prefix] = new_set
            self._program_rib(prefix, new_set)
            if new_best != old_best:
                changed.append((prefix, old_best, new_best))
        for prefix, old_best, new_best in changed:
            self.advertised.append((prefix, new_best))

    def _program_rib(self, prefix, chosen) -> None:
        self.host.rib.withdraw(Protocol.BGP_EXTERNAL, prefix)
        self.host.rib.withdraw(Protocol.BGP_INTERNAL, prefix)
        installable = [p for p in chosen if not p.is_local]
        if not chosen or chosen[0].is_local or not installable:
            return
        best = chosen[0]
        protocol = (
            Protocol.BGP_EXTERNAL if best.from_ebgp else Protocol.BGP_INTERNAL
        )
        next_hops = tuple(
            dict.fromkeys(NextHop(ip=p.attrs.next_hop) for p in installable)
        )
        self.host.rib.install(
            Route(
                prefix=prefix,
                protocol=protocol,
                next_hops=next_hops,
                metric=best.attrs.med,
                source=best,
            )
        )

    def _igp_refresh(self) -> None:
        self._igp_refresh_scheduled = False
        if not self._running:
            return
        self._refresh_originations()
        affected: set[Prefix] = set(self.local_rib)
        for rib_in in self.adj_rib_in.values():
            affected.update(rib_in)
        if affected:
            self._decide(affected)
        self.host.after_protocol_event()


class RecordingBgp(BgpInstance):
    """The shipped decision process, with advertisement recorded."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.advertised: list = []

    def _advertise(self, changed) -> None:
        self.advertised.extend(changed)


class FakeHost:
    """Just enough of a router for a BGP speaker: a RIB and a clock."""

    def __init__(self) -> None:
        self.name = "r"
        self.kernel = SimKernel(seed=0)
        self.rib = Rib(clock=lambda: self.kernel.now)

    def after_protocol_event(self) -> None:
        self.rib.commit()


# -- a from-scratch RIB/FIB reference --------------------------------------------------


def _reference_key(route: Route):
    return (
        route.effective_distance,
        route.protocol is not Protocol.LOCAL,
        route.metric,
        route.protocol.value,
    )


def _reference_resolve(table, address, depth=0):
    if depth >= 8:
        return None
    match = table.longest_match(address)
    route = match[1] if match else None
    if route is None or route.protocol is Protocol.LOCAL:
        return None
    out = []
    for hop in route.next_hops:
        if hop.interface is not None:
            gateway = hop.ip if hop.ip is not None else address
            out.append(ResolvedNextHop(hop.interface, gateway))
        elif hop.ip is not None and hop.ip != address:
            out.extend(_reference_resolve(table, hop.ip, depth + 1) or ())
    return out or None


def reference_fib(candidates: dict[Prefix, list[Route]]) -> dict:
    """Best route per prefix and its FIB entry, computed from nothing."""
    table: PrefixTrie[Route] = PrefixTrie()
    for prefix, routes in candidates.items():
        table.insert(prefix, min(routes, key=_reference_key))
    fib = {}
    for prefix, route in table.items():
        if not route.next_hops:
            fib[prefix] = (FibAction.DISCARD, ())
        elif route.protocol is Protocol.LOCAL:
            fib[prefix] = (FibAction.RECEIVE, ())
        else:
            resolved = []
            for hop in route.next_hops:
                if hop.interface is not None:
                    resolved.append(ResolvedNextHop(hop.interface, hop.ip))
                else:
                    resolved.extend(_reference_resolve(table, hop.ip) or ())
            if resolved:
                fib[prefix] = (FibAction.FORWARD, tuple(dict.fromkeys(resolved)))
    return {"best": dict(table.items()), "fib": fib}


def rib_state(rib: Rib) -> dict:
    prefixes = [route.prefix for route in rib.best_routes()]
    return {
        "candidates": {p: sorted(map(str, rib.routes_for(p))) for p in prefixes},
        "best": {p: rib.best(p) for p in prefixes},
        "fib": {
            e.prefix: (e.action, e.next_hops) for e in rib.fib.entries()
        },
    }


def assert_from_scratch(rib: Rib, where: str) -> None:
    prefixes = [route.prefix for route in rib.best_routes()]
    reference = reference_fib({p: rib.routes_for(p) for p in prefixes})
    actual = rib_state(rib)
    assert actual["best"] == reference["best"], where
    assert actual["fib"] == reference["fib"], where


def reference_multipath(speaker: BgpInstance) -> dict:
    """Every prefix's multipath set, decided from scratch."""

    def metric(next_hop):
        return PerPrefixBgp._igp_metric(speaker, next_hop)

    prefixes = set(speaker.local_rib) | set(speaker.locally_originated)
    for rib_in in speaker.adj_rib_in.values():
        prefixes |= set(rib_in)
    out = {}
    for prefix in prefixes:
        paths = []
        local = speaker.locally_originated.get(prefix)
        if local is not None:
            paths.append(BgpPath(local, False, 0, speaker.router_id, True))
        for peer_ip, rib_in in speaker.adj_rib_in.items():
            session = speaker.sessions.get(peer_ip)
            if prefix in rib_in and session is not None and session.is_established:
                paths.append(
                    BgpPath(
                        rib_in[prefix],
                        session.is_ebgp,
                        peer_ip,
                        session.peer_router_id,
                    )
                )
        chosen = tuple(
            multipath_set(
                paths,
                metric,
                maximum_paths=speaker.config.maximum_paths,
                prefer_higher_igp_metric=speaker.quirk_prefer_higher_igp_metric,
            )
        )
        if chosen:
            out[prefix] = chosen
    return out


# -- (a) generated candidate sets ------------------------------------------------------

NEXT_HOPS = [parse_ipv4(f"10.0.{i}.1") for i in range(1, 5)]
IGP_PREFIXES = [Prefix.parse(f"10.0.{i}.0/24") for i in range(1, 5)]
#: Some of these cover a next hop more specifically than its IGP route.
PREFIXES = [Prefix.parse(f"20.0.{i}.0/24") for i in range(6)] + [
    Prefix.parse("10.0.1.0/25"),
    Prefix.parse("10.0.2.1/32"),
    Prefix.parse("10.0.0.0/16"),
]
NETWORKS = [Prefix.parse("20.0.0.0/24"), Prefix.parse("10.0.1.0/25")]
PEERS = [parse_ipv4(f"192.168.0.{i}") for i in range(1, 5)]


def isis_route(index: int, metric: int, interface: str) -> Route:
    return Route(
        prefix=IGP_PREFIXES[index],
        protocol=Protocol.ISIS,
        next_hops=(NextHop(ip=parse_ipv4(f"172.16.{index}.2"), interface=interface),),
        metric=metric,
    )


def discard_static(prefix: Prefix) -> Route:
    return Route(prefix=prefix, protocol=Protocol.STATIC, next_hops=())


attrs_pool = st.lists(
    st.builds(
        PathAttributes,
        next_hop=st.sampled_from(NEXT_HOPS + [0]),
        as_path=st.lists(st.sampled_from([65001, 65002]), max_size=2).map(tuple),
        origin=st.sampled_from([Origin.IGP, Origin.INCOMPLETE]),
        med=st.sampled_from([0, 10]),
        local_pref=st.sampled_from([None, 100, 200]),
    ).map(intern_attrs),
    min_size=1,
    max_size=5,
)

peer_setup = st.lists(
    st.tuples(
        st.sampled_from([ASN, 65001, 65002]),  # remote AS: iBGP or eBGP
        st.booleans() | st.just(True),  # established (mostly)
        st.sampled_from([1, 2, 3]),  # router id: ties on purpose
    ),
    min_size=1,
    max_size=4,
)

step = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(0, 3),
        st.lists(
            st.tuples(st.sampled_from(PREFIXES), st.none() | st.integers(0, 4)),
            min_size=1,
            max_size=8,
        ),
        st.booleans(),  # decide in drawn order (list) instead of a set
    ),
    st.tuples(
        st.just("igp"),
        st.integers(0, 3),
        st.none() | st.sampled_from([5, 10, 20]),
        st.sampled_from(["eth1", "eth2"]),
    ),
    st.tuples(st.just("originate"), st.sampled_from(NETWORKS)),
    st.tuples(st.just("down"), st.integers(0, 3)),
)


def build_pair(peers, maximum_paths, quirk, igp):
    speakers = []
    for cls in (PerPrefixBgp, RecordingBgp):
        host = FakeHost()
        for index, (metric, interface) in enumerate(igp):
            if metric is not None:
                host.rib.install(isis_route(index, metric, interface))
        neighbors = {
            PEERS[i]: BgpNeighborConfig(peer_address=PEERS[i], remote_as=remote_as)
            for i, (remote_as, _, _) in enumerate(peers)
        }
        config = DeviceConfig(
            hostname="r",
            bgp=BgpConfig(
                asn=ASN,
                router_id=LOCAL_IP,
                neighbors=neighbors,
                networks=list(NETWORKS),
                maximum_paths=maximum_paths,
            ),
        )
        speaker = cls(
            host, config, FAST_TIMERS, None, prefer_higher_igp_metric=quirk
        )
        speaker._running = True
        for i, (_, established, router_id) in enumerate(peers):
            session = Session(speaker, neighbors[PEERS[i]], LOCAL_IP)
            if established:
                session.state = SessionState.ESTABLISHED
                session.peer_router_id = router_id
            speaker.sessions[PEERS[i]] = session
        host.after_protocol_event()
        speakers.append(speaker)
    return speakers


def assert_same(old: BgpInstance, new: BgpInstance, where) -> None:
    assert new.local_rib == old.local_rib, where
    assert new.multipath == old.multipath, where
    assert new.advertised == old.advertised, where
    old_rib, new_rib = old.host.rib, new.host.rib
    assert rib_state(new_rib) == rib_state(old_rib), where
    assert new_rib.fib.version == old_rib.fib.version, where
    assert new_rib.igp_version == old_rib.igp_version, where


def apply_step(speaker: BgpInstance, action, pool) -> None:
    host = speaker.host
    kind = action[0]
    if kind == "update":
        _, peer, changes, ordered = action
        peer_ip = PEERS[peer % len(speaker.sessions)]
        rib_in = speaker.adj_rib_in.setdefault(peer_ip, {})
        touched = []
        for prefix, attrs_index in changes:
            if attrs_index is None:
                rib_in.pop(prefix, None)
            else:
                rib_in[prefix] = pool[attrs_index % len(pool)]
            touched.append(prefix)
        speaker._decide(list(dict.fromkeys(touched)) if ordered else set(touched))
        host.after_protocol_event()
    elif kind == "igp":
        _, index, metric, interface = action
        if metric is None:
            host.rib.withdraw(Protocol.ISIS, IGP_PREFIXES[index])
        else:
            host.rib.install(isis_route(index, metric, interface))
        host.after_protocol_event()
        speaker._igp_refresh()
    elif kind == "originate":
        prefix = action[1]
        if host.rib.best(prefix) is not None and any(
            r.protocol is Protocol.STATIC for r in host.rib.routes_for(prefix)
        ):
            host.rib.withdraw(Protocol.STATIC, prefix)
        else:
            host.rib.install(discard_static(prefix))
        host.after_protocol_event()
        speaker._igp_refresh()
    elif kind == "down":
        session = list(speaker.sessions.values())[action[1] % len(speaker.sessions)]
        session._session_down("test")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    peers=peer_setup,
    maximum_paths=st.integers(1, 3),
    quirk=st.booleans(),
    igp=st.lists(
        st.tuples(
            st.none() | st.sampled_from([10, 20]), st.sampled_from(["eth1", "eth2"])
        ),
        min_size=4,
        max_size=4,
    ),
    pool=attrs_pool,
    steps=st.lists(step, min_size=1, max_size=10),
)
def test_memoised_decide_matches_per_prefix_loop(
    peers, maximum_paths, quirk, igp, pool, steps
):
    old, new = build_pair(peers, maximum_paths, quirk, igp)
    assert_same(old, new, "start")
    for number, action in enumerate(steps):
        apply_step(old, action, pool)
        apply_step(new, action, pool)
        assert_same(old, new, (number, action))


# -- (b) production-6 under cuts, restores and flaps --------------------------------


def assert_routers_from_scratch(deployment, where: str) -> None:
    for name, router in deployment.routers.items():
        assert_from_scratch(router.rib, f"{where}: {name}")
        if router.bgp is not None:
            assert router.bgp.multipath == reference_multipath(router.bgp), (
                f"{where}: {name}"
            )


def test_production_cut_restore_flap_matches_from_scratch():
    scenario = production_scenario(6, peers=1, routes_per_peer=60)
    topology = scenario.topology
    backend = ModelFreeBackend(
        topology, timers=scaled_timers(60), quiet_period=30.0
    )
    backend.run(
        ScenarioContext(name="prod", injectors=tuple(scenario.injectors)), seed=5
    )
    deployment = backend.last_run.deployment
    assert_routers_from_scratch(deployment, "cold")
    rng = random.Random(20251015)
    links = list(topology.links)
    for turn in range(3):
        link = rng.choice(links)
        a, z = link.a.node, link.z.node
        deployment.link_down(a, z)
        deployment.wait_converged(quiet_period=30.0)
        assert_routers_from_scratch(deployment, f"turn {turn}: cut {a}-{z}")
        deployment.link_up(a, z)
        deployment.wait_converged(quiet_period=30.0)
        assert_routers_from_scratch(deployment, f"turn {turn}: restore {a}-{z}")
    link = rng.choice(links)
    deployment.link_down(link.a.node, link.z.node)
    deployment.kernel.run(until=deployment.kernel.now + 2.0)
    deployment.link_up(link.a.node, link.z.node)
    deployment.wait_converged(quiet_period=30.0)
    assert_routers_from_scratch(deployment, "flap")


# -- (c) the invalidation corner ------------------------------------------------------

NH_COVERED = parse_ipv4("10.0.1.1")
NH_OTHER = parse_ipv4("10.0.2.1")
COVERING = Prefix.parse("10.0.1.0/25")  # more specific than 10.0.1.0/24
FAR = [Prefix.parse(f"20.0.{i}.0/24") for i in range(3)]


def corner_pair(maximum_paths: int = 1):
    """Two iBGP peers; the first's routes go via the next hop that a
    more-specific prefix can cover."""
    return build_pair(
        [(ASN, True, 1), (ASN, True, 2)],
        maximum_paths,
        False,
        [(10, "eth1"), (10, "eth2"), (None, "eth1"), (None, "eth1")],
    )


def announce(speaker, peer_ip, prefix, next_hop, **fields):
    attrs = intern_attrs(PathAttributes(next_hop=next_hop, **fields))
    speaker.adj_rib_in.setdefault(peer_ip, {})[prefix] = attrs


def test_covering_bgp_route_in_the_same_batch():
    # Peer 1 offers the far prefixes via 10.0.1.1, peer 2 via 10.0.2.1
    # with a lower local-pref, and peer 2 also announces 10.0.1.0/25: once
    # that is installed, 10.0.1.1 resolves through BGP and peer 1's
    # paths become ineligible for every prefix decided after it.
    for order in ([FAR[0], COVERING, FAR[1], FAR[2]], [COVERING, *FAR]):
        old, new = corner_pair()
        for speaker in (old, new):
            for prefix in FAR:
                announce(speaker, PEERS[0], prefix, NH_COVERED, local_pref=200)
                announce(speaker, PEERS[1], prefix, NH_OTHER, local_pref=100)
            announce(speaker, PEERS[1], COVERING, NH_OTHER)
            speaker._decide(order)
            speaker.host.after_protocol_event()
        assert_same(old, new, order)
        after = order[order.index(COVERING) + 1 :]
        for prefix in after:
            assert new.local_rib[prefix].peer_ip == PEERS[1], (order, prefix)
        if order[0] == FAR[0]:
            # Decided before the cover arrived: stays on peer 1 until the
            # next IGP change, exactly as the per-prefix loop leaves it.
            assert new.local_rib[FAR[0]].peer_ip == PEERS[0]
        # Shared signature, different outcomes: the memo was dropped.
        assert len({new.local_rib[p] for p in FAR}) == (2 if order[0] == FAR[0] else 1)


def test_covering_static_route_between_batches():
    # Equal local-pref; peer 1 (router-id 1) wins the tie at equal IGP
    # metric. A static /32 for peer 2's next hop (metric 0) then makes
    # peer 2 nearer: the cached metric, the decision memo and the RIB's
    # group for 10.0.2.1 must all let go of the old answer.
    old, new = corner_pair()
    for speaker in (old, new):
        announce(speaker, PEERS[0], FAR[0], NH_COVERED)
        announce(speaker, PEERS[1], FAR[0], NH_OTHER)
        speaker._decide({FAR[0]})
        speaker.host.after_protocol_event()
    assert_same(old, new, "before")
    assert new.local_rib[FAR[0]].peer_ip == PEERS[0]
    static = Route(
        prefix=Prefix.parse("10.0.2.1/32"),
        protocol=Protocol.STATIC,
        next_hops=(NextHop(ip=parse_ipv4("172.16.9.2"), interface="eth9"),),
    )
    for speaker in (old, new):
        speaker.host.rib.install(static)
        speaker.host.after_protocol_event()
        # A second batch with the same signature, before NHT runs.
        announce(speaker, PEERS[0], FAR[1], NH_COVERED)
        announce(speaker, PEERS[1], FAR[1], NH_OTHER)
        speaker._decide({FAR[1]})
        speaker.host.after_protocol_event()
        speaker._igp_refresh()
    assert_same(old, new, "after")
    for prefix in FAR[:2]:
        assert new.local_rib[prefix].peer_ip == PEERS[1]
        entry = new.host.rib.fib.lookup(prefix.network)
        assert entry.next_hops == (ResolvedNextHop("eth9", parse_ipv4("172.16.9.2")),)
    assert_from_scratch(new.host.rib, "after")


def test_igp_change_reprograms_only_moved_groups(monkeypatch):
    # Both next hops carry prefixes; only 10.0.1.1's IGP route moves.
    # Its prefixes follow it to the new interface and share one group;
    # the others are not even re-programmed; the FIB equals a
    # from-scratch one.
    old, new = corner_pair()
    for speaker in (old, new):
        for prefix in FAR[:2]:
            announce(speaker, PEERS[0], prefix, NH_COVERED)
        announce(speaker, PEERS[1], FAR[2], NH_OTHER)
        speaker._decide(set(FAR))
        speaker.host.after_protocol_event()
    rib = new.host.rib
    programmed = []
    program = rib._program

    def spy(route):
        programmed.append(route.prefix)
        return program(route)

    monkeypatch.setattr(rib, "_program", spy)
    for speaker in (old, new):
        speaker.host.rib.install(isis_route(0, 10, "eth7"))
        speaker.host.after_protocol_event()
        speaker._igp_refresh()
    assert_same(old, new, "after")
    assert_from_scratch(rib, "after")
    assert sorted(programmed) == sorted([IGP_PREFIXES[0], *FAR[:2]])
    fib = rib.fib
    moved = [fib.lookup(p.network).next_hops for p in FAR[:2]]
    assert moved[0] is moved[1]
    assert moved[0][0].interface == "eth7"


def test_cover_installed_during_an_igp_refresh():
    # 10.0.1.0/25 waits on an unreachable next hop. When the IGP brings
    # that hop up, the refresh pass installs the cover, so 10.0.1.1 moves
    # in the middle of the pass: every prefix the pass reaches after the
    # cover must be re-decided too, as the whole-table pass did.
    nh_late = parse_ipv4("10.0.3.1")
    far = [Prefix.parse(f"20.0.{i}.0/24") for i in range(8)]
    old, new = corner_pair()
    for speaker in (old, new):
        announce(speaker, PEERS[0], COVERING, nh_late)
        for prefix in far:
            announce(speaker, PEERS[1], prefix, NH_COVERED, local_pref=200)
            announce(speaker, PEERS[0], prefix, NH_OTHER, local_pref=100)
        speaker._decide({COVERING, *far})
        speaker.host.after_protocol_event()
    assert COVERING not in new.local_rib
    assert {new.local_rib[p].peer_ip for p in far} == {PEERS[1]}
    for speaker in (old, new):
        speaker.host.rib.install(isis_route(2, 10, "eth3"))
        speaker.host.after_protocol_event()
        speaker._igp_refresh()
    assert_same(old, new, "after")
    assert COVERING in new.local_rib
    assert PEERS[0] in {new.local_rib[p].peer_ip for p in far}


def test_decisions_taken_while_a_next_hop_was_covered():
    # FAR[0] is decided at 10.0.1.1's IGP metric, FAR[1] while a BGP
    # cover makes 10.0.1.1 unusable. The cover goes, the metric is back
    # where FAR[0] saw it, and the next IGP refresh must still re-decide
    # FAR[1]: its decision used the other answer.
    old, new = corner_pair()
    for speaker in (old, new):
        for prefix in FAR[:2]:
            announce(speaker, PEERS[0], prefix, NH_COVERED, local_pref=200)
            announce(speaker, PEERS[1], prefix, NH_OTHER, local_pref=100)
        speaker._decide({FAR[0]})
        announce(speaker, PEERS[1], COVERING, NH_OTHER)
        speaker._decide({COVERING})
        speaker._decide({FAR[1]})
        del speaker.adj_rib_in[PEERS[1]][COVERING]
        speaker._decide({COVERING})
        speaker.host.after_protocol_event()
    assert new.local_rib[FAR[1]].peer_ip == PEERS[1]
    for speaker in (old, new):
        speaker.host.rib.install(isis_route(3, 10, "eth4"))  # unrelated
        speaker.host.after_protocol_event()
        speaker._igp_refresh()
    assert_same(old, new, "after")
    assert new.local_rib[FAR[1]].peer_ip == PEERS[0]


def test_group_programmed_under_two_resolutions():
    # A recursive static through 10.0.1.1 is programmed; a BGP cover
    # then moves 10.0.1.1's resolution (BGP installs do not re-program
    # others, so that entry keeps the old group); a second static through
    # 10.0.1.1 is programmed with the new one. The commit that static
    # triggers must re-program the first even though the group's current
    # resolution is the one it was last programmed with.
    rib = FakeHost().rib
    rib.install(isis_route(0, 10, "eth1"))
    rib.install(isis_route(1, 10, "eth2"))

    def static_via(text: str) -> Route:
        return Route(
            prefix=Prefix.parse(text),
            protocol=Protocol.STATIC,
            next_hops=(NextHop(ip=NH_COVERED),),
        )

    rib.install(static_via("30.0.1.0/24"))
    rib.commit()
    rib.install(
        Route(
            prefix=COVERING,
            protocol=Protocol.BGP_INTERNAL,
            next_hops=(NextHop(ip=NH_OTHER),),
        )
    )
    rib.commit()
    assert rib.fib.lookup(parse_ipv4("30.0.1.1")).next_hops[0].interface == "eth1"
    rib.install(static_via("30.0.2.0/24"))
    rib.commit()
    assert rib.fib.lookup(parse_ipv4("30.0.1.1")).next_hops[0].interface == "eth2"
    assert_from_scratch(rib, "after")
