"""Direct unit tests for the routed inter-pod fabric."""

import random
from dataclasses import dataclass

import pytest

from repro.net.addr import parse_ipv4

from tests.helpers import isis_config, mini_net


@pytest.fixture()
def net():
    configs = {
        "r1": isis_config("r1", 1, "2.2.2.1", [("Ethernet1", "10.0.0.0/31")]),
        "r2": isis_config(
            "r2", 2, "2.2.2.2",
            [("Ethernet1", "10.0.0.1/31"), ("Ethernet2", "10.0.1.0/31")],
        ),
        "r3": isis_config("r3", 3, "2.2.2.3", [("Ethernet1", "10.0.1.1/31")]),
    }
    links = [
        ("r1", "Ethernet1", "r2", "Ethernet1"),
        ("r2", "Ethernet2", "r3", "Ethernet1"),
    ]
    net = mini_net(configs, links)
    net.converge()
    return net


class TestRoutedDelivery:
    def test_multihop_delivery_follows_fibs(self, net):
        received = []
        net.fabric.register(
            "r3", parse_ipv4("2.2.2.3"),
            lambda src, dst, payload: received.append((src, payload)),
        )
        ok = net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("2.2.2.3"), "ping"
        )
        assert ok
        net.kernel.run(until=net.kernel.now + 1.0)
        assert received == [(parse_ipv4("2.2.2.1"), "ping")]

    def test_no_listener_no_delivery(self, net):
        # Address owned but nothing bound to it.
        ok = net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("2.2.2.3"), "ping"
        )
        assert not ok

    def test_unroutable_destination_rejected(self, net):
        ok = net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("203.0.113.9"), "x"
        )
        assert not ok
        assert net.fabric.datagrams_dropped >= 1

    def test_unregister(self, net):
        net.fabric.register("r3", parse_ipv4("2.2.2.3"), lambda *_: None)
        net.fabric.unregister("r3", parse_ipv4("2.2.2.3"))
        assert not net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("2.2.2.3"), "x"
        )

    def test_delivery_fails_after_link_cut(self, net):
        net.fabric.register("r3", parse_ipv4("2.2.2.3"), lambda *_: None)
        net.link_down("r2", "Ethernet2", "r3", "Ethernet1")
        assert not net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("2.2.2.3"), "x"
        )

    def test_reachable_probe(self, net):
        assert net.fabric.reachable("r1", parse_ipv4("2.2.2.3"))
        assert not net.fabric.reachable("r1", parse_ipv4("203.0.113.9"))


class TestFlowSerialization:
    class _Heavy:
        wire_cost = 5.0

    def test_messages_on_one_flow_serialize(self, net):
        times = []
        net.fabric.register(
            "r2", parse_ipv4("2.2.2.2"),
            lambda *_args: times.append(net.kernel.now),
        )
        src = parse_ipv4("2.2.2.1")
        dst = parse_ipv4("2.2.2.2")
        start = net.kernel.now
        for _ in range(3):
            net.fabric.send("r1", src, dst, self._Heavy())
        net.kernel.run(until=net.kernel.now + 60.0)
        assert len(times) == 3
        # Arrivals roughly 5s apart: the pipe is occupied per message.
        assert times[0] - start == pytest.approx(5.0, abs=0.5)
        assert times[2] - start == pytest.approx(15.0, abs=1.0)

    def test_distinct_flows_do_not_serialize(self, net):
        times = []
        net.fabric.register(
            "r2", parse_ipv4("2.2.2.2"),
            lambda *_args: times.append(net.kernel.now),
        )
        start = net.kernel.now
        net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("2.2.2.2"), self._Heavy()
        )
        net.fabric.send(
            "r3", parse_ipv4("2.2.2.3"), parse_ipv4("2.2.2.2"), self._Heavy()
        )
        net.kernel.run(until=net.kernel.now + 60.0)
        assert len(times) == 2
        assert max(times) - start < 7.0  # both ~5s, in parallel

    def test_busy_reflects_backlog(self, net):
        net.fabric.register("r2", parse_ipv4("2.2.2.2"), lambda *_: None)
        assert not net.fabric.busy()
        net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("2.2.2.2"), self._Heavy()
        )
        assert net.fabric.busy()
        net.kernel.run(until=net.kernel.now + 10.0)
        assert not net.fabric.busy()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_busy_is_some_flow_busy_past_now(self, net, seed):
        """The O(1) answer against the definition, on a seeded script."""

        @dataclass
        class Costed:
            wire_cost: float

        def some_flow_busy_past_now():
            now = net.kernel.now
            return any(
                until > now for until in net.fabric._flow_busy_until.values()
            )

        loopbacks = {f"r{i}": parse_ipv4(f"2.2.2.{i}") for i in (1, 2, 3)}
        for node, address in loopbacks.items():
            net.fabric.register(node, address, lambda *_: None)
        script = random.Random(seed)
        seen = set()
        for _ in range(300):
            if script.random() < 0.6:
                src, dst = script.sample(sorted(loopbacks), 2)
                cost = script.choice([0.0, 0.0, 0.01, 0.3, 2.0])
                assert net.fabric.send(
                    src, loopbacks[src], loopbacks[dst], Costed(cost)
                )
            else:
                ahead = script.choice([0.0, 0.005, 0.2, 1.0, 5.0])
                net.kernel.run(until=net.kernel.now + ahead)
            assert net.fabric.busy() == some_flow_busy_past_now()
            seen.add(net.fabric.busy())
        assert seen == {True, False}


class TestOwnsAddress:
    @staticmethod
    def owned_by_scan(router, address):
        return any(
            p.address == address for p in router.ports.values() if p.is_up
        )

    def assert_index_agrees(self, net):
        addresses = {
            a for r in net.routers.values() for a in r.local_addresses()
        } | {parse_ipv4("203.0.113.9")}
        for router in net.routers.values():
            for address in addresses:
                assert router.owns_address(address) == self.owned_by_scan(
                    router, address
                ), (router.name, address)

    def test_index_agrees_with_port_scan_through_link_changes(self, net):
        self.assert_index_agrees(net)
        r2 = net.router("r2")
        assert r2.owns_address(parse_ipv4("10.0.0.1"))
        net.link_down("r1", "Ethernet1", "r2", "Ethernet1")
        assert not r2.owns_address(parse_ipv4("10.0.0.1"))
        self.assert_index_agrees(net)
        net.link_up("r1", "Ethernet1", "r2", "Ethernet1")
        assert r2.owns_address(parse_ipv4("10.0.0.1"))
        self.assert_index_agrees(net)

    def test_index_follows_reconfiguration_and_new_ports(self, net):
        r3 = net.router("r3")
        r3.port("Ethernet7")  # wired before it has any configuration
        self.assert_index_agrees(net)
        r3.apply_config(
            isis_config(
                "r3", 3, "2.2.2.33",
                [("Ethernet1", "10.0.1.1/31"), ("Ethernet7", "10.0.7.0/31")],
            )
        )
        assert r3.owns_address(parse_ipv4("2.2.2.33"))
        assert not r3.owns_address(parse_ipv4("2.2.2.3"))
        # Addressed now, but still no carrier.
        assert not r3.owns_address(parse_ipv4("10.0.7.0"))
        self.assert_index_agrees(net)


class TestExternals:
    def test_external_attach_and_roundtrip(self, net):
        inbound = []
        net.fabric.attach_external(
            "probe", "r3", "Ethernet2", parse_ipv4("10.0.9.1"),
            lambda src, dst, payload: inbound.append(payload),
        )
        # The gateway port comes up even without a modeled wire.
        assert net.router("r3").ports["Ethernet2"].is_up
        # Outbound from the external: enters at the gateway and follows
        # FIBs to a registered listener.
        delivered = []
        net.fabric.register(
            "r1", parse_ipv4("2.2.2.1"),
            lambda src, dst, payload: delivered.append(payload),
        )
        ok = net.fabric.send_external("probe", parse_ipv4("2.2.2.1"), "hello")
        assert ok
        net.kernel.run(until=net.kernel.now + 1.0)
        assert delivered == ["hello"]

    def test_unknown_external_raises(self, net):
        with pytest.raises(KeyError):
            net.fabric.send_external("ghost", parse_ipv4("2.2.2.1"), "x")

    def test_counters_track_traffic(self, net):
        net.fabric.register("r2", parse_ipv4("2.2.2.2"), lambda *_: None)
        before = net.fabric.datagrams_delivered
        net.fabric.send(
            "r1", parse_ipv4("2.2.2.1"), parse_ipv4("2.2.2.2"), "x"
        )
        assert net.fabric.datagrams_delivered == before + 1
