"""The perf ledger: the repo's one performance benchmark.

Four seeded workloads over the public API (two cold production-corpus
runs loading different layers, one warm what-if campaign, one mixed
service traffic loop), five end-to-end metrics each, and a traced pass
that splits the same work by ``src/repro`` layer. ``BENCHMARK.json`` at
the repo root is the contract; ``README.md`` here says why each
workload exists and which numbers should move together.

    python -m benchmarks.ledger --workload cold_mesh --seed 1
    python -m benchmarks.ledger --workload all --smoke --out /tmp/a.json
    python -m benchmarks.ledger compare /tmp/a.json /tmp/b.json
"""
