"""Workload definitions: each builds its inputs from a seed and serves
them through one long-lived :class:`repro.service.BurstingService`.

Every workload records beside its builder the loop type, the client
count, and why it exists (which layer it stresses, which it bypasses).
Fleet sizes are written for a 2-core host; the fold-kmeans fleet scales
with ``os.cpu_count()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import (
    ClusterConfig,
    FaultInjectingStore,
    FaultSpec,
    HedgePolicy,
    KMeansSpec,
    MemoryStore,
    S3Profile,
    SimulatedS3Store,
    WordCountSpec,
    distribute_dataset,
    generate_points,
    generate_tokens,
    lloyd_step,
    replicate_dataset,
    wordcount_exact,
    write_dataset,
)
from repro.data.dataset import stripe_dataset
from repro.service import BurstingService, TenantConfig

#: The simulated S3 envelope every cloud store uses: 6 ms per request,
#: 30 MB/s per connection.
CLOUD_PROFILE = S3Profile(request_latency_s=0.006, per_connection_bw=30e6)


@dataclass
class JobKind:
    """One kind of job a client submits: spec, index, and its check."""

    name: str
    spec: Any
    index: Any
    #: ``check(result) -> bool``: compares one job's result to the
    #: reference computed once at set-up.
    check: Callable[[Any], bool]

    @property
    def nbytes(self) -> int:
        """Logical bytes one job folds."""
        return sum(c.nbytes for c in self.index.chunks)


@dataclass
class Client:
    """One closed-loop client: a tenant cycling through job kinds."""

    tenant: str
    kinds: list[JobKind]


@dataclass
class Env:
    """A built workload: the running service and who drives it."""

    service: BurstingService
    clients: list[Client]
    #: Stores with injected faults, whose counters the trace reports.
    fault_stores: list[FaultInjectingStore] = field(default_factory=list)


@dataclass
class Hooks:
    """What the harness injects at build time: a wrapper applied to every
    store the service reads, and extra service options (the traced run's
    timed ``scheduler_factory``)."""

    store: Callable[[Any], Any] = lambda s: s
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    n_clients: int
    why: str
    #: ``generate(seed) -> inputs``: the seeded raw data.
    generate: Callable[[int], dict[str, Any]]
    #: ``reference(inputs) -> refs``: expected results, computed once.
    reference: Callable[[dict[str, Any]], dict[str, Any]]
    #: ``build(inputs, refs, hooks) -> Env``: write, place, start service.
    build: Callable[[dict[str, Any], dict[str, Any], Hooks], Env]


def _nproc() -> int:
    return os.cpu_count() or 1


# -- references ---------------------------------------------------------------


def kmeans_check(ref):
    """k-means to tolerance: centroids and SSE to 1e-9 relative, counts
    within 2 points (a GEMM blocked per chunk may flip a near-tie)."""

    def check(result) -> bool:
        return (
            np.allclose(result.centroids, ref.centroids, rtol=1e-9, atol=1e-12)
            and int(np.abs(result.counts - ref.counts).sum()) <= 2
            and abs(result.sse - ref.sse) <= 1e-9 * max(1.0, abs(ref.sse))
        )

    return check


def wordcount_check(ref):
    """Wordcount exactly."""
    return lambda result: result == ref


def _points(seed: int, n: int, dim: int, k: int) -> dict[str, Any]:
    points = generate_points(n, dim, n_clusters=k, seed=seed)
    rng = np.random.default_rng(seed + 1)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    return {"points": points, "centroids": centroids}


def _kmeans_ref(inp: dict[str, Any]):
    return lloyd_step(inp["points"], inp["centroids"])


# -- fold-kmeans ----------------------------------------------------------------


def _build_fold_kmeans(inp: dict, refs: dict, hooks: Hooks) -> Env:
    spec = KMeansSpec(inp["centroids"])
    local = MemoryStore("local")
    index = write_dataset(
        inp["points"], spec.fmt, local, n_files=4, chunk_units=200_000 // 32
    )
    stores = {"local": hooks.store(local)}
    service = BurstingService(
        [ClusterConfig("local", "local", _nproc())], stores, **hooks.options
    )
    kind = JobKind("kmeans", spec, index, kmeans_check(refs["kmeans"]))
    return Env(service, [Client("a", [kind])])


# -- burst-wordcount -----------------------------------------------------------


def _build_burst_wordcount(inp: dict, refs: dict, hooks: Hooks) -> Env:
    spec = WordCountSpec()
    tokens = inp["tokens"]
    stores: dict[str, Any] = {
        "local": MemoryStore("local"),
        "cloud": SimulatedS3Store(profile=CLOUD_PROFILE),
    }
    for name in ("s1", "s2", "s3", "s4"):
        stores[name] = MemoryStore(name)
    # Dormant until placement is done: the fault is the run's, not set-up's.
    stall = FaultInjectingStore(
        stores["s4"], FaultSpec.parse("stall:p=0.3,s=0.06,seed=11"), armed=False
    )
    stores["s4"] = stall
    index = write_dataset(
        tokens, spec.fmt, stores["local"], n_files=6,
        chunk_units=len(tokens) // 32, codec="shuffle",
    )
    index = distribute_dataset(
        index, stores, {"local": 1 / 3, "cloud": 2 / 3}, stores["local"]
    )
    index = stripe_dataset(index, stores, k=4, m=2)
    stall.arm()
    served = {name: hooks.store(s) for name, s in stores.items()}
    # One worker per site: with two per site (plus their prefetch and
    # hedge threads) job time spread 0.23-0.40 IQR/median over seeds on
    # a 2-core host, against 0.04-0.10 with one.
    service = BurstingService(
        [
            ClusterConfig("local", "local", 1),
            ClusterConfig("cloud", "cloud", 1),
        ],
        served,
        stripe=(4, 2),
        prefetch=True,
        hedge=HedgePolicy(multiplier=3.0, min_threshold_s=0.005, max_hedges=2),
        **hooks.options,
    )
    kind = JobKind("wordcount", spec, index, wordcount_check(refs["wordcount"]))
    return Env(service, [Client("a", [kind])], [stall])


# -- service-mix / service-mix-process -----------------------------------------


def _gen_service_mix(seed: int) -> dict[str, Any]:
    # 8 centroids keep a k-means job close to a wordcount job in cost.
    return {
        "tokens": generate_tokens(200_000, 2000, seed=seed),
        **_points(seed + 7, 40_000, 16, 8),
    }


def _service_mix_ref(inp: dict[str, Any]) -> dict[str, Any]:
    return {
        "wordcount": wordcount_exact(inp["tokens"]),
        "kmeans": _kmeans_ref(inp),
    }


def _service_mix_builder(engine: str) -> Callable:
    def build(inp: dict, refs: dict, hooks: Hooks) -> Env:
        stores: dict[str, Any] = {
            "local": MemoryStore("local"),
            "cloud": SimulatedS3Store(profile=CLOUD_PROFILE),
        }
        kinds = []
        for name, spec, units, check in (
            ("wordcount", WordCountSpec(), inp["tokens"],
             wordcount_check(refs["wordcount"])),
            ("kmeans", KMeansSpec(inp["centroids"]), inp["points"],
             kmeans_check(refs["kmeans"])),
        ):
            index = write_dataset(
                units, spec.fmt, stores["local"], n_files=4,
                chunk_units=len(units) // 16, key_prefix=name,
            )
            index = distribute_dataset(
                index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
            )
            index = replicate_dataset(index, stores, n_replicas=1)
            kinds.append(JobKind(name, spec, index, check))
        served = {name: hooks.store(s) for name, s in stores.items()}
        # Threaded slaves share one GIL: on a 2-core host a second worker
        # per site gave ~20% more throughput but twice the job-time range
        # over alternating runs (15% against 8%).  Worker processes fold
        # in parallel and stay steady with two.
        per_site = 2 if engine == "process" else 1
        service = BurstingService(
            [
                ClusterConfig("local", "local", per_site),
                ClusterConfig("cloud", "cloud", per_site),
            ],
            served,
            engine=engine,
            tenants={"a": TenantConfig(weight=2.0), "b": TenantConfig(weight=1.0)},
            hedge=HedgePolicy(multiplier=3.0, min_threshold_s=0.005, max_hedges=1),
            **hooks.options,
        )
        # Each tenant alternates the two apps, starting on different ones
        # so both kinds are always in flight.
        clients = [Client("a", kinds), Client("b", kinds[::-1])]
        return Env(service, clients)

    return build


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fold-kmeans", "closed", 1,
            "fold kernel and its GIL contention dominate; retrieval, "
            "redundancy and control-plane changes should not move it",
            lambda seed: _points(seed, 200_000, 32, 64),
            lambda inp: {"kmeans": _kmeans_ref(inp)},
            _build_fold_kmeans,
        ),
        Workload(
            "burst-wordcount", "closed", 1,
            "the paper's bursting case: wire GETs, k-of-n race, hedges, "
            "reassembly, decode and cross-site stealing dominate",
            lambda seed: {"tokens": generate_tokens(3_000_000, 2000, seed=seed)},
            lambda inp: {"wordcount": wordcount_exact(inp["tokens"])},
            _build_burst_wordcount,
        ),
        Workload(
            "service-mix", "closed", 2,
            "per-job fixed costs of small multi-tenant jobs dominate; the "
            "replica fetch path runs but never races",
            _gen_service_mix,
            _service_mix_ref,
            _service_mix_builder("threaded"),
        ),
        Workload(
            "service-mix-process", "closed", 2,
            "same job stream on the process transport: fork per job, shm "
            "handoff and the run-per-job lock only work here",
            _gen_service_mix,
            _service_mix_ref,
            _service_mix_builder("process"),
        ),
    )
}
