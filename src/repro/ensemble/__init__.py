"""Nondeterminism-aware verification over seeded ensembles.

Runs the (seed x fault-plan) matrix, dedups converged states by
``fib_fingerprint``, and folds every invariant across the distinct
outcomes into holds-always / holds-sometimes / never verdicts with
concrete witnesses. The invariants are the shared ones of
:mod:`repro.verify.invariants`; this package is their ensemble lift.
"""

from repro.ensemble.runner import (
    REACH_PREFIX,
    EnsembleOutcome,
    EnsembleReport,
    EnsembleRunner,
    RunRecord,
    brute_force_verdicts,
    default_ensemble_invariants,
    fold_records,
    temporal_invariant_names,
)
from repro.ensemble.verdicts import (
    HOLDS_ALWAYS,
    HOLDS_SOMETIMES,
    MAX_WITNESSES,
    NEVER,
    EnsembleWitness,
    InvariantVerdict,
    RowObservation,
    fold,
    fold_observations,
)

__all__ = [
    "HOLDS_ALWAYS",
    "HOLDS_SOMETIMES",
    "MAX_WITNESSES",
    "NEVER",
    "REACH_PREFIX",
    "EnsembleOutcome",
    "EnsembleReport",
    "EnsembleRunner",
    "EnsembleWitness",
    "InvariantVerdict",
    "RowObservation",
    "RunRecord",
    "brute_force_verdicts",
    "default_ensemble_invariants",
    "fold",
    "fold_observations",
    "fold_records",
    "temporal_invariant_names",
]
