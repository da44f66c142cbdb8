"""Interface configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.addr import Prefix


@dataclass
class InterfaceConfig:
    """Configured state of one interface.

    ``switchport`` models the L2/L3 mode: a switchport has no IP
    configuration active. Vendor parsers decide how mode and address
    interact (this interaction is exactly the Fig. 3 model defect — see
    :mod:`repro.batfish_model.issues`).
    """

    name: str
    description: str = ""
    address: Optional[int] = None
    prefix_length: Optional[int] = None
    switchport: bool = False
    shutdown: bool = False
    isis: Optional["IsisInterfaceSettings"] = None
    mpls_enabled: bool = False
    speed_gbps: float = 10.0
    acl_in: Optional[str] = None
    acl_out: Optional[str] = None

    @property
    def has_address(self) -> bool:
        return self.address is not None and self.prefix_length is not None

    @property
    def is_routed(self) -> bool:
        """Does this interface participate in L3 forwarding?"""
        return self.has_address and not self.switchport and not self.shutdown

    def connected_prefix(self) -> Optional[Prefix]:
        """The subnet this interface attaches to, if routed."""
        if not self.is_routed:
            return None
        assert self.address is not None and self.prefix_length is not None
        return Prefix.containing(self.address, self.prefix_length)

    @property
    def is_loopback(self) -> bool:
        """Loopback-style interfaces across vendor naming conventions:
        ``LoopbackN`` (EOS), ``loN``/``systemN`` (SR Linux)."""
        lowered = self.name.lower()
        if lowered.startswith(("loopback", "system")):
            return True
        # "lo" + a decimal digit (any script: what regex \d accepts).
        return lowered.startswith("lo") and lowered[2:3].isdecimal()


@dataclass
class IsisInterfaceSettings:
    """Per-interface IS-IS knobs."""

    tag: str = "default"
    enabled: bool = True
    passive: bool = False
    metric: int = 10
