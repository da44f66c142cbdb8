"""The four workload generators: pure functions of (name, seed, smoke).

A generator returns only *inputs* — topology, context, timers, kernel
seed, scenario list, request streams — and never touches the emulator
or the service; the runners in :mod:`benchmarks.ledger.runners` receive
nothing else. The corpus wiring is fixed (``CORPUS_SEED``) so that a
seed changes what the program is asked and how its messages interleave,
not which network it is asked about: per-seed numbers stay comparable.

Sizes are set so one operation takes 1–4 s on a 2-core box and a run
of ``run_seconds`` holds several of them; the driver makes ~90 runs in
under an hour, which rules out the 7–10 s operations the first
prototype used (README, "Scale").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, islice

from repro.core.context import ScenarioContext
from repro.corpus.production import production_scenario, scaled_timers
from repro.net.addr import format_ipv4
from repro.protocols.timers import TimerProfile
from repro.topo.model import Topology
from repro.whatif.scenarios import (
    FaultScenario,
    link_flap_scenarios,
    single_link_failures,
)

WORKLOADS = ("cold_mesh", "cold_bigtable", "churn_campaign", "service_mixed")

CORPUS_SEED = 7
QUIET_PERIOD = 30.0

#: (nodes, external peers, routes per peer) per workload.
_FULL = {
    "cold_mesh": (14, 3, 300),
    "cold_bigtable": (6, 2, 2000),
    "churn_campaign": (8, 2, 300),
    "service_mixed": (8, 2, 200),
}
_SMOKE = {
    "cold_mesh": (6, 2, 60),
    "cold_bigtable": (6, 1, 300),
    "churn_campaign": (6, 1, 60),
    "service_mixed": (6, 1, 60),
}


@dataclass
class Emulation:
    """What every workload hands the emulator."""

    topology: Topology
    context: ScenarioContext
    timers: TimerProfile
    kernel_seed: int
    quiet_period: float = QUIET_PERIOD


@dataclass
class ColdInputs:
    emulation: Emulation
    #: Ingresses whose engine rows are compared with the scalar oracle.
    oracle_ingresses: tuple[str, ...]


@dataclass
class ChurnInputs:
    emulation: Emulation
    scenarios: list[FaultScenario]


@dataclass(frozen=True)
class Request:
    """One client operation against the service.

    ``state`` is the index into the snapshot pool that ``snapshot`` is
    bound to when the request is issued (the stream is sequential per
    client, so the generator knows); the output check recomputes the
    answer from that pool entry on a plain ``Session``.
    """

    op: str  # "ask" | "ensemble" | "write"
    question: str = ""
    params: tuple = ()
    snapshot: str = ""
    state: int = 0
    differential: bool = False
    check: bool = False
    members: tuple[str, ...] = ()


@dataclass
class ServiceInputs:
    emulation: Emulation
    #: Candidate link cuts; the pool is the baseline (state 0, shared as
    #: ``s0``) plus the first ``pool_size - 1`` distinct cut states.
    cuts: list[FaultScenario]
    pool_size: int
    #: Per client: snapshot name -> pool state registered before traffic.
    initial: list[dict[str, int]]
    #: Per client request stream (closed loop, one thread each).
    streams: list[list[Request]]
    warmup_requests: int
    #: Requests per client in the traced pass (fixed, so counts repeat).
    traced_requests: int


def _emulation(name: str, seed: int, smoke: bool):
    nodes, peers, routes = (_SMOKE if smoke else _FULL)[name]
    scenario = production_scenario(
        nodes, peers=peers, routes_per_peer=routes, seed=CORPUS_SEED
    )
    rng = random.Random(f"{name}:{seed}")
    emulation = Emulation(
        topology=scenario.topology,
        context=ScenarioContext(
            name="prod", injectors=tuple(scenario.injectors)
        ),
        timers=scaled_timers(routes),
        kernel_seed=rng.randrange(1, 2**31),
    )
    return scenario, emulation, rng


def cold(name: str, seed: int, smoke: bool) -> ColdInputs:
    """``cold_mesh`` / ``cold_bigtable``: one cold run, repeated."""
    scenario, emulation, rng = _emulation(name, seed, smoke)
    return ColdInputs(
        emulation=emulation,
        oracle_ingresses=tuple(sorted(rng.sample(sorted(scenario.loopbacks), 2))),
    )


def churn_campaign(seed: int, smoke: bool) -> ChurnInputs:
    """Link cuts then link flaps, in topology order, on one warm fabric."""
    _, emulation, _ = _emulation("churn_campaign", seed, smoke)
    cuts, flaps = (2, 1) if smoke else (4, 2)
    topology = emulation.topology
    return ChurnInputs(
        emulation=emulation,
        scenarios=[
            *islice(single_link_failures(topology), cuts),
            *islice(link_flap_scenarios(topology, hold_seconds=30.0), flaps),
        ],
    )


# Request mix (share of operations). Reads beside writes: a read-path
# gain that slows registration shows in the same run.
_MIX = (
    ("traceroute", 0.45),
    ("point", 0.25),
    ("reachability", 0.06),
    ("detectLoops", 0.06),
    ("routes", 0.10),
    ("differential", 0.07),
    ("ensemble", 0.005),
    ("write", 0.005),
)
_CLIENTS = 2
_ZIPF_S = 0.9
_CHECK_SHARE = 0.02


def service_mixed(seed: int, smoke: bool) -> ServiceInputs:
    scenario, emulation, rng = _emulation("service_mixed", seed, smoke)
    pool_size, window = (7, 2) if smoke else (10, 3)
    stream_len = 150 if smoke else 20000
    nodes = sorted(scenario.loopbacks)

    # Destinations: every loopback plus sampled injected prefixes, in a
    # seeded popularity order drawn Zipf(0.9) — with a uniform ingress
    # this is what sets the result-cache hit ratio.
    injected = [p for spec in scenario.injectors for p in spec.prefixes]
    prefixes = rng.sample(injected, min(len(injected), 60 if smoke else 120))
    destinations = [
        (scenario.loopbacks[n], f"{scenario.loopbacks[n]}/32") for n in nodes
    ] + [(format_ipv4(p.first + 1), str(p)) for p in prefixes]
    rng.shuffle(destinations)
    zipf = list(
        accumulate(1.0 / (rank + 1) ** _ZIPF_S for rank in range(len(destinations)))
    )
    ops, shares = zip(*_MIX)
    mix = list(accumulate(shares))

    initial: list[dict[str, int]] = []
    streams: list[list[Request]] = []
    for client in range(_CLIENTS):
        crng = random.Random(f"service_mixed:{seed}:client{client}")
        # Each client owns its names and its slice of the pool; only s0
        # is shared and it is never replaced, so no read can race a
        # replace and a correct service fails nothing.
        owned = list(range(1 + client, pool_size, _CLIENTS))
        names = [f"c{client}.s{i}" for i in range(window)]
        bound = dict(zip(names, owned))
        spare = owned[window:]
        initial.append(dict(bound))
        stream: list[Request] = []
        writes = 0
        for _ in range(stream_len):
            op = crng.choices(ops, cum_weights=mix)[0]
            snapshot = crng.choice(["s0", *names])
            state = bound.get(snapshot, 0)
            ingress = crng.choice(nodes)
            address, prefix = crng.choices(destinations, cum_weights=zipf)[0]
            check = crng.random() < _CHECK_SHARE
            if op == "write":
                # Replace the oldest own name with the own state that
                # has been out of the window longest (the one the LRU
                # store is most likely to have evicted).
                snapshot = names[writes % window]
                writes += 1
                spare.append(bound[snapshot])
                bound[snapshot] = state = spare.pop(0)
                request = Request("write", "reachability", (), snapshot, state)
            elif op == "ensemble":
                request = Request("ensemble", members=tuple(names))
            elif op == "differential":
                if snapshot == "s0":
                    snapshot = names[0]
                    state = bound[snapshot]
                request = Request(
                    "ask", "differentialReachability", (("ingress", ingress),),
                    snapshot, state, differential=True, check=check,
                )
            else:
                question, params = {
                    "traceroute": (
                        "traceroute",
                        (("dst", address), ("startLocation", ingress)),
                    ),
                    "point": (
                        "reachability",
                        (("dst", prefix), ("startLocation", ingress)),
                    ),
                    "reachability": ("reachability", ()),
                    "detectLoops": ("detectLoops", ()),
                    "routes": ("routes", (("nodes", ingress),)),
                }[op]
                request = Request(
                    "ask", question, params, snapshot, state, check=check
                )
            stream.append(request)
        streams.append(stream)

    return ServiceInputs(
        emulation=emulation,
        cuts=list(single_link_failures(emulation.topology)),
        pool_size=pool_size,
        initial=initial,
        streams=streams,
        warmup_requests=20 if smoke else 100,
        traced_requests=stream_len if smoke else 1000,
    )


def generate(name: str, seed: int, smoke: bool = False):
    """The inputs of workload ``name`` for ``seed``."""
    if name in ("cold_mesh", "cold_bigtable"):
        return cold(name, seed, smoke)
    if name == "churn_campaign":
        return churn_campaign(seed, smoke)
    if name == "service_mixed":
        return service_mixed(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
