"""Snapshots: the unit of verification."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.dataplane.model import Dataplane
from repro.gnmi.aft import AftSnapshot


@dataclass
class Snapshot:
    """A verified network state: extracted AFTs plus provenance.

    ``backend`` records how the dataplane was obtained ("emulation" or
    "model"); verification queries never need to care.
    """

    name: str
    afts: dict[str, AftSnapshot]
    backend: str = "emulation"
    seed: Optional[int] = None
    startup_seconds: float = 0.0
    convergence_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)
    # Nodes whose AFTs could not be extracted, mapped to a reason. A
    # non-empty manifest makes this a *partial* snapshot: queries about
    # those nodes answer UNKNOWN_DEGRADED instead of fabricating
    # NO_ROUTE from their absence.
    degraded_nodes: dict[str, str] = field(default_factory=dict)
    _dataplane: Optional[Dataplane] = field(default=None, repr=False)

    @property
    def is_partial(self) -> bool:
        return bool(self.degraded_nodes)

    @property
    def dataplane(self) -> Dataplane:
        if self._dataplane is None:
            self._dataplane = Dataplane.from_afts(
                self.afts,
                degraded_nodes=self.degraded_nodes,
                degraded_addresses=self.metadata.get("degraded_addresses", {}),
            )
        return self._dataplane

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "backend": self.backend,
            "seed": self.seed,
            "startup_seconds": self.startup_seconds,
            "convergence_seconds": self.convergence_seconds,
            "metadata": self.metadata,
            "afts": {name: aft.to_dict() for name, aft in self.afts.items()},
        }
        if self.degraded_nodes:
            data["degraded_nodes"] = dict(self.degraded_nodes)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Snapshot":
        degraded = data.get("degraded_nodes", {})
        target = PartialSnapshot if degraded else cls
        prefixes: dict = {}  # one decode pass: each prefix parsed once
        return target(
            name=data["name"],
            afts={
                name: AftSnapshot.from_dict(raw, prefixes)
                for name, raw in data["afts"].items()
            },
            backend=data.get("backend", "emulation"),
            seed=data.get("seed"),
            startup_seconds=data.get("startup_seconds", 0.0),
            convergence_seconds=data.get("convergence_seconds", 0.0),
            metadata=data.get("metadata", {}),
            degraded_nodes=dict(degraded),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:
        return (
            f"Snapshot({self.name!r}, backend={self.backend!r}, "
            f"devices={len(self.afts)})"
        )


@dataclass
class PartialSnapshot(Snapshot):
    """A snapshot extracted under degradation.

    Identical to :class:`Snapshot` except the type itself advertises
    that ``degraded_nodes`` is non-empty — the pipeline returns this
    when one or more nodes exhausted their extraction retry budget, so
    callers can branch on the type without inspecting the manifest.
    """

    def __repr__(self) -> str:
        return (
            f"PartialSnapshot({self.name!r}, backend={self.backend!r}, "
            f"devices={len(self.afts)}, "
            f"degraded={sorted(self.degraded_nodes)})"
        )
