"""The model-free verification pipeline (the paper's contribution).

Two stages, as in the paper's Fig. 1:

* **upper stage** — control-plane emulation: bring the topology up under
  KNE, optionally inject external BGP context, run to convergence,
  extract AFTs over gNMI (:class:`ModelFreeBackend`);
* **lower stage** — dataplane verification over the extracted state
  (:mod:`repro.verify`, or the :mod:`repro.pybf` query frontend).

The model-based baseline (:class:`NativeBatfishBackend`) produces
snapshots of the same type from the same inputs, so any query can be run
against either backend — including differentially *across* backends,
which is how the paper surfaces model defects.
"""

from repro.core.context import ScenarioContext
from repro.core.snapshot import Snapshot
from repro.core.pipeline import ModelFreeBackend, NativeBatfishBackend
from repro.core.differential import compare_snapshots

__all__ = [
    "ModelFreeBackend",
    "NativeBatfishBackend",
    "ScenarioContext",
    "Snapshot",
    "compare_snapshots",
]
