"""Wire invariants of the BGP Adj-RIB-Out.

A session remembers what it put on the wire and sends only what changes
the peer's view. Whatever the network goes through (cold bring-up, a
link cut and its restore, a NOTIFICATION tearing one side down, a
what-if flap), two things must hold whenever it is quiet again:

* nobody was ever sent a withdrawal for a prefix they did not hold
  (``bgp.prefixes.withdrawn_unknown`` stays 0), and
* every established session's Adj-RIB-Out is exactly what its peer holds
  from it in ``adj_rib_in``.

While the network churns, every change ``_advertise`` hands to a
session is also checked against a per-session ``_export`` of the same
path: evaluating export once per update group must tell each member
exactly what evaluating it for that member alone would.

The runs are seeded; CI repeats this file under a fixed
``PYTHONHASHSEED`` because ``_decide`` iterates a ``set[Prefix]``.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.context import ScenarioContext
from repro.core.pipeline import ModelFreeBackend
from repro.corpus.production import production_scenario, scaled_timers
from repro.net.addr import Prefix
from repro.obs import bus
from repro.protocols.bgp import BgpInstance, Notification, Session, Update
from repro.protocols.bgp_attrs import Origin, PathAttributes, intern_attrs
from repro.protocols.timers import FAST_TIMERS, TimerProfile
from repro.topo.builder import TopologyBuilder
from repro.topo.model import Topology
from repro.whatif import link_flap_scenarios

from tests.helpers import isis_config
from tests.test_protocols_bgp import ebgp_pair

SEEDS = (3, 8)


@dataclass
class Case:
    topology: Topology
    context: Optional[ScenarioContext]
    timers: TimerProfile
    quiet_period: float


def reflector_line() -> Topology:
    """r1 - r2 - r3, iBGP over loopbacks, r2 reflecting.

    r1 is r2's client and r3 is not, so r2 exports along both reflection
    branches: a client's route goes to everyone, a non-client's route
    goes to clients only. (The full meshes of the other two cases cover
    the third: non-client to non-client, never.)
    """

    def config(index, interfaces, bgp_lines):
        return isis_config(
            f"r{index}", index, f"2.2.2.{index}", interfaces
        ) + "\n".join(
            ["router bgp 65000", f"   router-id 2.2.2.{index}", *bgp_lines]
        ) + "\n"

    def neighbor(index, *knobs):
        peer = f"   neighbor 2.2.2.{index}"
        return [
            f"{peer} remote-as 65000",
            f"{peer} update-source Loopback0",
            *(f"{peer} {knob}" for knob in knobs),
        ]

    builder = TopologyBuilder("reflector-line")
    builder.node("r1", vendor="arista", config=config(
        1, [("Ethernet1", "10.0.0.0/31")],
        [*neighbor(2), "   network 81.0.0.0/24", "ip route 81.0.0.0/24 Null0"],
    ))
    builder.node("r2", vendor="arista", config=config(
        2, [("Ethernet1", "10.0.0.1/31"), ("Ethernet2", "10.0.1.0/31")],
        [*neighbor(1, "route-reflector-client"), *neighbor(3),
         "   network 82.0.0.0/24", "ip route 82.0.0.0/24 Null0"],
    ))
    builder.node("r3", vendor="arista", config=config(
        3, [("Ethernet1", "10.0.1.1/31")],
        [*neighbor(2), "   network 83.0.0.0/24", "ip route 83.0.0.0/24 Null0"],
    ))
    builder.link("r1", "r2", a_int="Ethernet1", z_int="Ethernet1")
    builder.link("r2", "r3", a_int="Ethernet2", z_int="Ethernet1")
    return builder.build()


def build_case(name: str, fig2) -> Case:
    if name == "fig2":
        return Case(fig2.topology, None, FAST_TIMERS, 5.0)
    if name == "reflector-line":
        return Case(reflector_line(), None, FAST_TIMERS, 5.0)
    scenario = production_scenario(6, peers=1, routes_per_peer=60)
    context = ScenarioContext(name="prod", injectors=tuple(scenario.injectors))
    return Case(scenario.topology, context, scaled_timers(60), 30.0)


def router_sessions(deployment):
    """(instance, session, peer instance, peer's session back) for every
    session whose far end is an emulated router (not a route injector)."""
    by_address = {}
    for router in deployment.routers.values():
        if router.bgp is not None:
            for session in router.bgp.sessions.values():
                by_address[(session.local_ip, session.peer_ip)] = (
                    router.bgp, session
                )
    for (local_ip, peer_ip), (instance, session) in by_address.items():
        far = by_address.get((peer_ip, local_ip))
        if far is not None:
            yield instance, session, *far


def assert_wire_invariants(deployment, tracer) -> int:
    """Checks (a) and (b) at a quiet point; returns sessions compared."""
    assert tracer.counters.get("bgp.prefixes.withdrawn_unknown", 0) == 0
    compared = 0
    for instance, session, peer, back in router_sessions(deployment):
        if not (session.is_established and back.is_established):
            continue
        held = peer.adj_rib_in.get(back.peer_ip, {})
        sent = session.adj_rib_out
        if back.is_ebgp:
            # The receiver silently drops paths carrying its own AS.
            sent = {
                prefix: attrs
                for prefix, attrs in sent.items()
                if peer.config.asn not in attrs.as_path
            }
        where = f"{instance.host.name} -> {peer.host.name}"
        if back.neighbor.route_map_in is None:
            assert sent == held, where
        else:
            # An import map may deny or rewrite; it cannot invent.
            assert set(held) <= set(sent), where
        compared += 1
    return compared


def settle(deployment, case, *, run_for: float = 0.0) -> None:
    if run_for:
        deployment.kernel.run(until=deployment.kernel.now + run_for)
    deployment.wait_converged(quiet_period=case.quiet_period)


@pytest.fixture
def export_oracle(monkeypatch):
    """(f) Compare what each session is told with its own ``_export``."""
    advertise = BgpInstance._advertise
    enqueue = Session.enqueue
    told = {}
    checked = []

    def spy_enqueue(session, prefix, attrs):
        told[session, prefix] = attrs
        enqueue(session, prefix, attrs)

    def checked_advertise(instance, changed):
        told.clear()
        advertise(instance, changed)
        for prefix, new_best in changed:
            for session in instance.sessions.values():
                if session.is_established:
                    alone = (
                        None if new_best is None
                        else instance._export(session, prefix, new_best)
                    )
                    assert told[session, prefix] is alone, (
                        str(session), str(prefix)
                    )
                    checked.append(session.update_group)

    monkeypatch.setattr(Session, "enqueue", spy_enqueue)
    monkeypatch.setattr(BgpInstance, "_advertise", checked_advertise)
    return checked


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["fig2", "production", "reflector-line"])
def test_wire_invariants_through_churn(name, seed, fig2, export_oracle):
    case = build_case(name, fig2)
    backend = ModelFreeBackend(
        case.topology, timers=case.timers, quiet_period=case.quiet_period
    )
    with bus.tracing() as tracer:
        backend.run(case.context, seed=seed)
        deployment = backend.last_run.deployment
        sessions = assert_wire_invariants(deployment, tracer)
        assert sessions >= 2

        link = case.topology.links[0]
        deployment.link_down(link.a.node, link.z.node)
        settle(deployment, case)
        assert_wire_invariants(deployment, tracer)
        deployment.link_up(link.a.node, link.z.node)
        # Long enough for the backed-off connect retries to fire.
        settle(deployment, case, run_for=8 * case.timers.bgp_connect_retry)
        assert assert_wire_invariants(deployment, tracer) == sessions

        # (c) A NOTIFICATION takes the far side down; the resulting FSM
        # error takes this side down; both come back and resend it all.
        instance, session, peer, back = next(
            row for row in router_sessions(deployment)
            if row[1].adj_rib_out and row[3].adj_rib_out
        )
        before = (dict(peer.adj_rib_in[back.peer_ip]), dict(session.adj_rib_out))
        resets = (session.stats.resets, back.stats.resets)
        instance.send_to(session, Notification("cease"))
        settle(deployment, case, run_for=8 * case.timers.bgp_connect_retry)
        assert session.stats.resets > resets[0]
        assert back.stats.resets > resets[1]
        assert assert_wire_invariants(deployment, tracer) == sessions
        assert (dict(peer.adj_rib_in[back.peer_ip]), dict(session.adj_rib_out)) == before

        flap = next(iter(link_flap_scenarios(case.topology, hold_seconds=2.0)))
        flap.apply(deployment)
        settle(
            deployment, case,
            run_for=flap.horizon + 8 * case.timers.bgp_connect_retry,
        )
        assert assert_wire_invariants(deployment, tracer) == sessions
        assert tracer.counters["bgp.update.received"] > 0
    assert len(set(export_oracle)) >= 2  # more than one group was told


# -- the table's own rules, on one eBGP session ------------------------------


PROBE = Prefix.parse("99.0.0.0/24")


def probe_attrs(session) -> PathAttributes:
    return intern_attrs(
        PathAttributes(
            next_hop=session.local_ip, origin=Origin.IGP, as_path=(65001,),
            med=0,
        )
    )


def pair_session():
    net = ebgp_pair()
    session = next(iter(net.router("r1").bgp.sessions.values()))
    return net, session


def run_past_mrai(net) -> None:
    net.kernel.run(until=net.kernel.now + 4 * FAST_TIMERS.bgp_mrai)


def test_announce_then_withdraw_inside_one_window_sends_nothing():
    net, session = pair_session()
    sent = session.stats.updates_sent
    session.enqueue(PROBE, probe_attrs(session))
    session.enqueue(PROBE, None)
    run_past_mrai(net)
    assert session.stats.updates_sent == sent
    assert PROBE not in session.adj_rib_out


def test_no_change_requests_are_dropped_and_cancel_what_was_pending():
    net, session = pair_session()
    held, attrs = next(iter(session.adj_rib_out.items()))
    sent = session.stats.updates_sent
    session.enqueue(PROBE, None)  # never advertised
    session.enqueue(held, attrs)  # exactly what the peer has
    session.enqueue(held, None)
    session.enqueue(held, attrs)  # back to what the peer has
    run_past_mrai(net)
    assert session.stats.updates_sent == sent
    assert session.adj_rib_out[held] is attrs


def test_chunk_dropped_at_the_source_is_not_recorded_and_heals():
    net, session = pair_session()
    attrs = probe_attrs(session)
    peer_rib_in = net.router("r2").bgp.adj_rib_in[session.local_ip]
    # No route to the peer for a moment (shorter than the hold time).
    net.link_down("r1", "Ethernet1", "r2", "Ethernet1")
    session.enqueue(PROBE, attrs)
    run_past_mrai(net)
    assert session.is_established
    assert PROBE not in session.adj_rib_out
    net.link_up("r1", "Ethernet1", "r2", "Ethernet1")
    sent = session.stats.updates_sent
    session.enqueue(PROBE, attrs)
    run_past_mrai(net)
    assert session.stats.updates_sent == sent + 1
    assert session.adj_rib_out[PROBE] is attrs
    assert peer_rib_in[PROBE] == attrs


def test_session_reset_empties_the_table():
    net, session = pair_session()
    assert session.adj_rib_out
    session.handle(Notification("cease"))
    assert not session.adj_rib_out
    net.converge()
    assert session.is_established and session.adj_rib_out


def test_withdrawal_of_an_unheld_prefix_is_counted():
    net, session = pair_session()
    with bus.tracing() as tracer:
        session.instance.receive_update(session, Update(withdraw=(PROBE,)))
    assert tracer.counters["bgp.prefixes.withdrawn_unknown"] == 1
