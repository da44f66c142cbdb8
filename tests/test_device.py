"""Tests for the vendor-neutral device model and routing policy."""

import re

import pytest
from hypothesis import example, given, strategies as st

from repro.device.interfaces import InterfaceConfig, IsisInterfaceSettings
from repro.device.model import BgpConfig, DeviceConfig, IsisConfig
from repro.device.routing_policy import (
    Community,
    MatchResult,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.net.addr import Prefix, parse_ipv4
from repro.protocols.bgp_attrs import PathAttributes


class TestInterfaceConfig:
    def test_routed_requires_address_and_mode(self):
        iface = InterfaceConfig(name="Ethernet1")
        assert not iface.is_routed
        iface.address = parse_ipv4("10.0.0.1")
        iface.prefix_length = 31
        assert iface.is_routed
        iface.switchport = True
        assert not iface.is_routed

    def test_shutdown_disables_routing(self):
        iface = InterfaceConfig(
            name="Ethernet1",
            address=parse_ipv4("10.0.0.1"),
            prefix_length=31,
            shutdown=True,
        )
        assert not iface.is_routed

    def test_connected_prefix(self):
        iface = InterfaceConfig(
            name="Ethernet1", address=parse_ipv4("10.0.0.5"), prefix_length=24
        )
        assert iface.connected_prefix() == Prefix.parse("10.0.0.0/24")

    def test_connected_prefix_none_for_switchport(self):
        iface = InterfaceConfig(
            name="Ethernet1",
            address=parse_ipv4("10.0.0.5"),
            prefix_length=24,
            switchport=True,
        )
        assert iface.connected_prefix() is None

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Loopback0", True),
            ("loopback12", True),
            ("lo0", True),
            ("system0", True),
            ("Ethernet1", False),
            ("ethernet-1/1", False),
            ("localinterface", False),
        ],
    )
    def test_is_loopback_naming(self, name, expected):
        assert InterfaceConfig(name=name).is_loopback is expected

    @staticmethod
    def _is_loopback_by_regex(name: str) -> bool:
        """The expression ``is_loopback`` used before it went regex-free."""
        lowered = name.lower()
        if lowered.startswith(("loopback", "system")):
            return True
        return bool(re.match(r"^lo\d", lowered))

    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from("lLoOsSyYtTeEmMpPbBaAcCkK019\u0663\u00b2\u2167\u0130"),
                st.characters(),
            ),
            max_size=10,
        )
    )
    @example("")
    @example("lo")
    @example("lo0")
    @example("LO9x")
    @example("loop")
    @example("Lo\u0663")  # Arabic-Indic three: Nd, so \d takes it
    @example("lo\u00b2")  # superscript two: a digit, but not Nd
    @example("lo\u2167")  # Roman numeral eight: numeric, not Nd
    @example("\u0130lo0")  # lower() lengthens the dotted capital I
    @example("lo\n1")
    @example("system0")
    @example("Loopback")
    @example("Ethernet1")
    def test_is_loopback_accepts_what_the_regex_did(self, name):
        assert InterfaceConfig(name=name).is_loopback is (
            self._is_loopback_by_regex(name)
        )


class TestDeviceConfig:
    def test_interface_get_or_create(self):
        device = DeviceConfig()
        a = device.interface("Ethernet1")
        b = device.interface("Ethernet1")
        assert a is b

    def test_local_addresses(self):
        device = DeviceConfig()
        eth = device.interface("Ethernet1")
        eth.address = parse_ipv4("10.0.0.1")
        eth.prefix_length = 31
        sw = device.interface("Ethernet2")
        sw.address = parse_ipv4("10.0.0.3")
        sw.prefix_length = 31
        sw.switchport = True
        assert device.local_addresses() == [parse_ipv4("10.0.0.1")]

    def test_loopback_address(self):
        device = DeviceConfig()
        lo = device.interface("Loopback0")
        lo.address = parse_ipv4("2.2.2.2")
        lo.prefix_length = 32
        assert device.loopback_address() == parse_ipv4("2.2.2.2")

    def test_no_loopback_returns_none(self):
        assert DeviceConfig().loopback_address() is None


class TestIsisConfig:
    def test_net_decomposition(self):
        isis = IsisConfig(net="49.0001.1010.1040.1030.00")
        assert isis.system_id == "1010.1040.1030"
        assert isis.area == "49.0001"

    def test_malformed_net(self):
        assert IsisConfig(net="49.0001").system_id == ""


class TestPrefixList:
    def test_exact_match(self):
        plist = PrefixList("PL")
        plist.add(PrefixListEntry(10, True, Prefix.parse("10.0.0.0/8")))
        assert plist.permits(Prefix.parse("10.0.0.0/8"))
        assert not plist.permits(Prefix.parse("10.1.0.0/16"))

    def test_le_range(self):
        plist = PrefixList("PL")
        plist.add(PrefixListEntry(10, True, Prefix.parse("10.0.0.0/8"), le=24))
        assert plist.permits(Prefix.parse("10.1.0.0/16"))
        assert plist.permits(Prefix.parse("10.1.2.0/24"))
        assert not plist.permits(Prefix.parse("10.1.2.4/30"))

    def test_ge_implies_open_top(self):
        plist = PrefixList("PL")
        plist.add(PrefixListEntry(10, True, Prefix.parse("10.0.0.0/8"), ge=24))
        assert plist.permits(Prefix.parse("10.0.0.1/32"))
        assert not plist.permits(Prefix.parse("10.1.0.0/16"))

    def test_first_match_wins(self):
        plist = PrefixList("PL")
        plist.add(PrefixListEntry(20, True, Prefix.parse("10.0.0.0/8"), le=32))
        plist.add(
            PrefixListEntry(10, False, Prefix.parse("10.13.0.0/16"), le=32)
        )
        assert not plist.permits(Prefix.parse("10.13.1.0/24"))
        assert plist.permits(Prefix.parse("10.14.0.0/16"))

    def test_implicit_deny(self):
        assert not PrefixList("PL").permits(Prefix.parse("1.0.0.0/8"))


def attrs(**kwargs) -> PathAttributes:
    defaults = dict(next_hop=parse_ipv4("192.0.2.1"))
    defaults.update(kwargs)
    return PathAttributes(**defaults)


class TestRouteMap:
    def test_permit_with_set_actions(self):
        route_map = RouteMap("RM")
        route_map.add(
            RouteMapClause(
                seq=10,
                permit=True,
                set_local_pref=200,
                set_med=50,
                set_communities=(Community(65000, 100),),
            )
        )
        verdict, updated = route_map.evaluate(
            Prefix.parse("10.0.0.0/8"), attrs(), {}
        )
        assert verdict is MatchResult.PERMIT
        assert updated.local_pref == 200
        assert updated.med == 50
        assert Community(65000, 100) in updated.communities

    def test_deny_clause(self):
        route_map = RouteMap("RM")
        route_map.add(RouteMapClause(seq=10, permit=False))
        verdict, _ = route_map.evaluate(Prefix.parse("10.0.0.0/8"), attrs(), {})
        assert verdict is MatchResult.DENY

    def test_no_match_is_implicit_deny_signal(self):
        route_map = RouteMap("RM")
        route_map.add(
            RouteMapClause(seq=10, permit=True, match_prefix_list="NOPE")
        )
        verdict, _ = route_map.evaluate(Prefix.parse("10.0.0.0/8"), attrs(), {})
        assert verdict is MatchResult.NO_MATCH

    def test_match_prefix_list(self):
        plist = PrefixList("LOOPS")
        plist.add(
            PrefixListEntry(10, True, Prefix.parse("2.2.0.0/16"), le=32)
        )
        route_map = RouteMap("RM")
        route_map.add(
            RouteMapClause(
                seq=10, permit=True, match_prefix_list="LOOPS",
                set_local_pref=300,
            )
        )
        route_map.add(RouteMapClause(seq=20, permit=False))
        lists = {"LOOPS": plist}
        verdict, updated = route_map.evaluate(
            Prefix.parse("2.2.2.1/32"), attrs(), lists
        )
        assert verdict is MatchResult.PERMIT and updated.local_pref == 300
        verdict, _ = route_map.evaluate(
            Prefix.parse("9.9.9.9/32"), attrs(), lists
        )
        assert verdict is MatchResult.DENY

    def test_match_community(self):
        route_map = RouteMap("RM")
        route_map.add(
            RouteMapClause(
                seq=10, permit=True,
                match_community=Community(65000, 666),
            )
        )
        tagged = attrs(communities=(Community(65000, 666),))
        verdict, _ = route_map.evaluate(Prefix.parse("10.0.0.0/8"), tagged, {})
        assert verdict is MatchResult.PERMIT
        verdict, _ = route_map.evaluate(Prefix.parse("10.0.0.0/8"), attrs(), {})
        assert verdict is MatchResult.NO_MATCH

    def test_as_path_prepend(self):
        route_map = RouteMap("RM")
        route_map.add(
            RouteMapClause(
                seq=10, permit=True, set_as_path_prepend=(65001, 65001)
            )
        )
        _, updated = route_map.evaluate(
            Prefix.parse("10.0.0.0/8"), attrs(as_path=(65002,)), {}
        )
        assert updated.as_path == (65001, 65001, 65002)

    def test_clause_ordering(self):
        route_map = RouteMap("RM")
        route_map.add(RouteMapClause(seq=20, permit=True, set_local_pref=20))
        route_map.add(RouteMapClause(seq=10, permit=True, set_local_pref=10))
        _, updated = route_map.evaluate(Prefix.parse("10.0.0.0/8"), attrs(), {})
        assert updated.local_pref == 10


class TestCommunity:
    def test_parse(self):
        assert Community.parse("65000:123") == Community(65000, 123)

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            Community.parse("not-a-community")

    def test_str(self):
        assert str(Community(1, 2)) == "1:2"
