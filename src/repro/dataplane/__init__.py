"""Dataplane model built from extracted AFT snapshots.

This is the verification stage's view of the network: pure forwarding
state. Adjacency is *derived from the extracted interface state* (two
enabled interfaces on the same subnet form an L3 edge), never from the
emulation's topology file — keeping the verification stage honest about
what was actually extracted.
"""

from repro.dataplane.model import Dataplane, DeviceForwarding, L3Edge
from repro.dataplane.delta import DataplaneDelta, DeviceDelta, GroupRewrite
from repro.dataplane.forwarding import (
    Disposition,
    ForwardingWalk,
    Hop,
    Trace,
    dst_atoms,
)

__all__ = [
    "Dataplane",
    "DataplaneDelta",
    "DeviceDelta",
    "DeviceForwarding",
    "Disposition",
    "ForwardingWalk",
    "GroupRewrite",
    "Hop",
    "L3Edge",
    "Trace",
    "dst_atoms",
]
