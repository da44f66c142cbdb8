"""Cluster and node resource model.

Capacity numbers mirror the paper's testbed: a single ``e2-standard-32``
(32 vCPU / 128 GB) hosts up to 60 Arista containers at the documented
0.5 vCPU / 1 GB per router, and a 17-node cluster carries a 1,000-device
topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KubeNode:
    """One Kubernetes worker node."""

    name: str
    vcpus: float = 32.0
    memory_gb: float = 128.0
    # Kubelet/system reservation, not available to pods.
    system_reserved_cpu: float = 2.0
    system_reserved_memory_gb: float = 8.0
    allocated_cpu: float = 0.0
    allocated_memory_gb: float = 0.0

    @property
    def allocatable_cpu(self) -> float:
        return self.vcpus - self.system_reserved_cpu

    @property
    def allocatable_memory_gb(self) -> float:
        return self.memory_gb - self.system_reserved_memory_gb

    @property
    def free_cpu(self) -> float:
        return self.allocatable_cpu - self.allocated_cpu

    @property
    def free_memory_gb(self) -> float:
        return self.allocatable_memory_gb - self.allocated_memory_gb

    def fits(self, cpu: float, memory_gb: float) -> bool:
        return cpu <= self.free_cpu + 1e-9 and memory_gb <= self.free_memory_gb + 1e-9

    def allocate(self, cpu: float, memory_gb: float) -> None:
        if not self.fits(cpu, memory_gb):
            raise ValueError(
                f"{self.name}: cannot allocate cpu={cpu} mem={memory_gb}GB "
                f"(free cpu={self.free_cpu:.2f}, mem={self.free_memory_gb:.2f}GB)"
            )
        self.allocated_cpu += cpu
        self.allocated_memory_gb += memory_gb

    def release(self, cpu: float, memory_gb: float) -> None:
        self.allocated_cpu = max(0.0, self.allocated_cpu - cpu)
        self.allocated_memory_gb = max(0.0, self.allocated_memory_gb - memory_gb)


def e2_standard_32(name: str = "node-1") -> KubeNode:
    """The machine shape the paper's single-node experiments used."""
    return KubeNode(name=name, vcpus=32.0, memory_gb=128.0)


@dataclass
class KubeCluster:
    """A set of worker nodes."""

    nodes: list[KubeNode] = field(default_factory=lambda: [e2_standard_32()])

    @classmethod
    def of_size(cls, count: int, *, vcpus: float = 32.0, memory_gb: float = 128.0) -> "KubeCluster":
        return cls(
            nodes=[
                KubeNode(name=f"node-{i + 1}", vcpus=vcpus, memory_gb=memory_gb)
                for i in range(count)
            ]
        )

    def node(self, name: str) -> KubeNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.nodes)
