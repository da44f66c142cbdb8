"""Topology data model.

Mirrors the shape of a KNE topology: named nodes with a vendor/model and
per-node resource requests, plus point-to-point links between named
interfaces. The topology is pure data — bring-up happens in
:mod:`repro.kube.kne`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


class TopologyError(ValueError):
    """Raised for structurally invalid topologies."""


@dataclass(frozen=True)
class LinkEnd:
    """One endpoint of a link: (node name, interface name)."""

    node: str
    interface: str

    def __str__(self) -> str:
        return f"{self.node}:{self.interface}"


@dataclass(frozen=True)
class Link:
    """An undirected point-to-point link."""

    a: LinkEnd
    z: LinkEnd

    def other(self, end: LinkEnd) -> LinkEnd:
        if end == self.a:
            return self.z
        if end == self.z:
            return self.a
        raise TopologyError(f"{end} is not an endpoint of {self}")

    def endpoints(self) -> tuple[LinkEnd, LinkEnd]:
        return (self.a, self.z)

    def __str__(self) -> str:
        return f"{self.a} <-> {self.z}"


@dataclass
class NodeSpec:
    """A device in the topology.

    ``vendor`` selects the router OS implementation (see
    :mod:`repro.vendors`); ``config`` carries the device's startup
    configuration text. Resource requests default per vendor when left
    at zero (cEOS: 0.5 vCPU / 1 GiB, per the paper's §5).
    """

    name: str
    vendor: str = "arista"
    model: str = "ceos"
    os_version: str = ""
    config: str = ""
    cpu: float = 0.0
    memory_gb: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("node name must be non-empty")


class Topology:
    """A named set of nodes and links with validation."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: dict[str, NodeSpec] = {}
        self._links: list[Link] = []
        self._used_ports: set[LinkEnd] = set()

    # -- construction ------------------------------------------------------

    def add_node(self, spec: NodeSpec) -> NodeSpec:
        if spec.name in self._nodes:
            raise TopologyError(f"duplicate node name: {spec.name}")
        self._nodes[spec.name] = spec
        return spec

    def add_link(
        self, a_node: str, a_int: str, z_node: str, z_int: str
    ) -> Link:
        a = LinkEnd(a_node, a_int)
        z = LinkEnd(z_node, z_int)
        for end in (a, z):
            if end.node not in self._nodes:
                raise TopologyError(f"link references unknown node: {end.node}")
            if end in self._used_ports:
                raise TopologyError(f"interface already wired: {end}")
        if a == z:
            raise TopologyError(f"self-loop link: {a}")
        link = Link(a, z)
        self._links.append(link)
        self._used_ports.add(a)
        self._used_ports.add(z)
        return link

    def set_config(self, node: str, config: str) -> None:
        self.node(node).config = config

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> list[NodeSpec]:
        return list(self._nodes.values())

    @property
    def links(self) -> list[Link]:
        return list(self._links)

    def node(self, name: str) -> NodeSpec:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node: {name}") from None

    def node_names(self) -> list[str]:
        return list(self._nodes)

    def links_of(self, node: str) -> Iterator[Link]:
        for link in self._links:
            if node in (link.a.node, link.z.node):
                yield link

    def neighbors(self, node: str) -> list[str]:
        out = []
        for link in self.links_of(node):
            end = link.a if link.a.node == node else link.z
            out.append(link.other(end).node)
        return out

    def find_link(self, a_node: str, z_node: str) -> Optional[Link]:
        """First link between two nodes, either direction."""
        for link in self._links:
            ends = {link.a.node, link.z.node}
            if ends == {a_node, z_node}:
                return link
        return None

    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural problems."""
        if not self._nodes:
            raise TopologyError("topology has no nodes")
        for link in self._links:
            for end in link.endpoints():
                if end.node not in self._nodes:
                    raise TopologyError(f"dangling link end: {end}")

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links)})"
        )
