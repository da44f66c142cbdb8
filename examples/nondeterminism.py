#!/usr/bin/env python3
"""D1 (§6): explore convergence nondeterminism with a seeded ensemble.

One emulation run yields one converged dataplane; message ordering can
admit others. This example runs the same scenario under several seeds
(different message timing), groups the resulting dataplanes by
forwarding fingerprint, and folds the invariants over the distinct
states — the paper's proposed mitigation, made concrete.

Run:  python examples/nondeterminism.py
"""

from repro import EnsembleRunner
from repro.corpus import fig3_scenario
from repro.protocols.timers import FAST_TIMERS


def main() -> None:
    scenario = fig3_scenario()
    seeds = (0, 1, 2, 3, 4)
    runner = EnsembleRunner(
        scenario.topology, seeds=seeds, timers=FAST_TIMERS, quiet_period=5.0
    )
    print(f"Running {len(seeds)} seeded emulations of {scenario.topology}...")
    report = runner.run()

    for record in runner.last_records:
        snapshot = record.snapshot
        print(
            f"  seed {record.seed}: converged in "
            f"{snapshot.convergence_seconds:.2f} sim-s "
            f"({len(snapshot.afts)} AFTs)"
        )

    print()
    print("Distinct converged dataplanes:")
    for outcome in report.outcomes:
        members = ", ".join(str(seed) for seed, _plan in outcome.members)
        print(f"  {outcome.fingerprint:#018x}: seeds {members}")

    print()
    if report.deterministic:
        print(
            "All seeds agree — high confidence the converged state is "
            "unique for this configuration and context."
        )
    else:
        print(
            "Seeds disagree — this configuration has ordering-dependent "
            "behaviour worth investigating before trusting one run:"
        )
        for verdict in report.unstable:
            print(f"  {verdict}")


if __name__ == "__main__":
    main()
