"""Shared engine core: the pieces both transports of the protocol use.

The paper describes a single protocol -- a head pool, per-cluster
masters, multi-threaded slaves folding into reduction objects -- and
the repo runs it over two transports: the in-process slave fleet of
:class:`~repro.service.BurstingService` (which
:class:`~repro.runtime.engine.ThreadedEngine` runs on) and the
:class:`~repro.runtime.process_engine.ProcessEngine`'s worker
processes.  This module holds what they share:

* :class:`EngineOptions` -- the frozen, validated configuration surface
  shared by every engine, the service, the session, the driver, and the
  CLI.  One validation path (cluster-name uniqueness, crash-plan
  targets, index-vs-stores coverage) replaces per-engine copies.
* :class:`MasterPort` -- the small protocol a slave drives to acquire
  and complete jobs.  The service's per-cluster master and the process
  engine's :class:`LockMaster` implement it; the port owns
  drain-awareness, so an empty refill is never latched as "done" while
  requeue-able jobs are outstanding.
* :func:`account_fetch_info` / :func:`account_overlap` -- the fetch
  accounting both the fleet slave and the process engine's feeders
  apply to :class:`WorkerStats`.
* :func:`finalize_run` -- the shared run epilogue: per-cluster combine,
  serialized reduction-object shipping, fetcher fault/autotune rollup
  into :class:`ClusterStats`, and idle/sync accounting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Protocol

from repro.core.api import GeneralizedReductionSpec
from repro.core.reduction_object import ReductionObject
from repro.core.serialization import deserialize_robj, serialize_robj
from repro.data.index import DataIndex
from repro.data.redundancy import normalize_stripe
from repro.runtime.jobs import Job, LocalJobPool
from repro.runtime.pushdown import normalize_pushdown
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import (
    COUNTERS,
    FETCHER_COUNTERS,
    ClusterStats,
    RunStats,
    WorkerStats,
)
from repro.storage.autotune import AimdAutotuner, AutotuneParams
from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache
from repro.storage.health import BreakerPolicy, HealthRegistry, HedgePolicy
from repro.storage.retry import RetryPolicy
from repro.storage.transfer import (
    DEFAULT_MIN_PART_NBYTES,
    FetchInfo,
    ParallelFetcher,
)

__all__ = [
    "ClusterConfig",
    "RunResult",
    "EngineOptions",
    "EngineBase",
    "MasterPort",
    "LockMaster",
    "account_fetch_info",
    "account_overlap",
    "make_cluster_fetchers",
    "rollup_fetcher_stats",
    "finalize_run",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of one compute cluster."""

    name: str
    location: str               # the storage site this cluster is co-located with
    n_workers: int
    retrieval_threads: int = 2  # parallel connections per chunk fetch
    link_latency_s: float = 0.0  # master <-> head round-trip latency


@dataclass
class RunResult:
    """Outcome of one engine run."""

    result: Any
    stats: RunStats
    robj: ReductionObject


@dataclass(frozen=True)
class EngineOptions:
    """The unified engine configuration surface.

    Every execution engine accepts every field; the per-engine option
    special-cases that used to live in the session, the driver, and the
    CLI are gone.
    """

    batch_size: int = 4
    group_nbytes: int = 1 << 20
    scheduler_factory: Callable[[list[Job]], HeadScheduler] = HeadScheduler
    #: Fold each chunk with one ``local_reduction_batch`` call when the
    #: spec provides it (the array-native hot path); off forces the
    #: per-unit-group loop (the ablation baseline).
    batch_fold: bool = True
    verify_chunks: bool = False
    prefetch: bool = False
    chunk_cache: ChunkCache | None = None
    retry: RetryPolicy | None = None
    crash_plan: dict[str, int] = field(default_factory=dict)
    adaptive_fetch: bool = False
    min_part_nbytes: int = DEFAULT_MIN_PART_NBYTES
    autotune_params: AutotuneParams | None = None
    # Replica-aware retrieval: hedge duplicate slow fetches against the
    # next replica (HedgePolicy), and/or run every store behind a
    # circuit breaker (BreakerPolicy) that orders/skips replica sources
    # and deprioritizes chunks stranded behind open breakers.  Failover
    # itself needs no option -- chunks carrying replicas always fail
    # over when a source is exhausted.
    hedge: HedgePolicy | None = None
    breaker: BreakerPolicy | None = None
    # Erasure-coded striping: ``(k, m)`` means every chunk is stored as
    # k data + m parity fragments and fetched fastest-k-of-n (the
    # driver's ``stripe_dataset`` performs the placement; the option is
    # the declarative record all engines validate against).  None = the
    # dataset is not striped.
    stripe: tuple[int, int] | None = None
    # Metadata-first retrieval: apply the spec's pushdown contract
    # (relevant/priority over index ChunkStats) before job-pool
    # creation.  None/False = off; True/"prune" = prune irrelevant
    # chunks and order survivors by priority; "verify" = prune, but
    # also fetch every pruned chunk and assert its fold contribution is
    # the identity (the soundness guard -- debug only, spends the bytes
    # pruning saved).
    pushdown: str | bool | None = None

    def __post_init__(self) -> None:
        # Normalize crash_plan=None (the historical kwarg default) to {}.
        object.__setattr__(self, "crash_plan", dict(self.crash_plan or {}))
        # Canonicalize pushdown to None/"prune"/"verify" (raises on junk).
        object.__setattr__(self, "pushdown", normalize_pushdown(self.pushdown))
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.group_nbytes <= 0:
            raise ValueError("group_nbytes must be positive")
        if self.min_part_nbytes < 0:
            raise ValueError("min_part_nbytes must be non-negative")
        if any(n < 0 for n in self.crash_plan.values()):
            raise ValueError("crash_plan job counts must be non-negative")
        # One wording for stripe-shape errors everywhere (engine options,
        # driver, dataset organizer): repro.data.redundancy.
        object.__setattr__(self, "stripe", normalize_stripe(self.stripe))

    # -- the one validation path ---------------------------------------------

    def validate_clusters(self, clusters: list[ClusterConfig]) -> None:
        """Engine-construction checks, identical for every engine."""
        if not clusters:
            raise ValueError("need at least one cluster")
        names = [c.name for c in clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        if self.crash_plan:
            worker_names = {
                f"{c.name}-w{wid}" for c in clusters for wid in range(c.n_workers)
            }
            unknown = set(self.crash_plan) - worker_names
            if unknown:
                raise ValueError(
                    f"crash_plan targets unknown workers: {sorted(unknown)}"
                )

    @staticmethod
    def validate_index(index: DataIndex, stores: dict[str, StorageBackend]) -> None:
        """Run-time check that every chunk's location has a store.

        Covers replica sources and erasure fragments too: a striped
        chunk whose fragments name a location without a store would
        otherwise only fail deep inside the fetch race.
        """
        missing = set(index.locations) - set(stores)
        for c in index.chunks:
            missing.update(
                r.location for r in c.replicas if r.location not in stores
            )
            missing.update(
                f.location for f in c.fragments if f.location not in stores
            )
        if missing:
            raise ValueError(f"index references unknown stores: {sorted(missing)}")


class EngineBase:
    """Shared construction and option plumbing for every engine.

    Subclasses receive either a prebuilt :class:`EngineOptions` or the
    historical keyword surface (``batch_size=...``, ``prefetch=...``,
    ...), which is folded into one options object and validated through
    the single shared path.
    """

    def __init__(
        self,
        clusters: list[ClusterConfig],
        stores: dict[str, StorageBackend],
        *,
        options: EngineOptions | None = None,
        **kwargs: Any,
    ) -> None:
        if options is None:
            options = EngineOptions(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either options= or individual option keywords, not both"
            )
        options.validate_clusters(clusters)
        self.clusters = list(clusters)
        self.stores = dict(stores)
        self.options = options

    def make_health(self) -> HealthRegistry | None:
        """One shared health registry per run, or ``None`` when neither
        hedging nor breakers are configured (zero overhead path)."""
        if self.options.hedge is None and self.options.breaker is None:
            return None
        return HealthRegistry(self.options.breaker)


def make_cluster_fetchers(
    stores: dict[str, StorageBackend],
    cluster: ClusterConfig,
    *,
    cache: ChunkCache | None = None,
    prefetch_workers: int = 1,
    retry: RetryPolicy | None = None,
    adaptive_fetch: bool = False,
    min_part_nbytes: int = DEFAULT_MIN_PART_NBYTES,
    autotune_params: AutotuneParams | None = None,
    health: HealthRegistry | None = None,
    hedge: HedgePolicy | None = None,
) -> dict[str, ParallelFetcher]:
    """One fetcher per data location for one cluster.

    With ``adaptive_fetch`` every (cluster, location) path gets its own
    AIMD autotuner replacing the fixed ``retrieval_threads`` fan-out --
    the paths differ wildly (local NIC vs WAN vs throttled S3), so each
    learns its own knee.  Shared by the service fleet and the process
    engine.

    Each cluster's fetchers are wired as *siblings* of one another, so a
    chunk carrying replica sources routes each source to the fetcher
    that owns its store.  ``health`` (the run-wide
    :class:`~repro.storage.health.HealthRegistry`) and ``hedge`` flow to
    every fetcher.
    """
    fetchers: dict[str, ParallelFetcher] = {}
    for loc, store in stores.items():
        autotune = None
        if adaptive_fetch:
            params = autotune_params or AutotuneParams(
                min_part_nbytes=max(1, min_part_nbytes)
            )
            autotune = AimdAutotuner(params, name=f"{cluster.name}->{loc}")
        fetchers[loc] = ParallelFetcher(
            store,
            cluster.retrieval_threads,
            cache=cache,
            prefetch_workers=prefetch_workers,
            retry=retry,
            autotune=autotune,
            min_part_nbytes=min_part_nbytes,
            health=health,
            hedge=hedge,
        )
    for f in fetchers.values():
        f.siblings = fetchers
    return fetchers


class MasterPort(Protocol):
    """Job-acquisition surface a slave drives, whatever the transport.

    The port hides how a cluster's master talks to the head -- the
    service's multi-run head lock, or a lock around one run's scheduler
    (:class:`LockMaster`, driven by the process engine's in-parent
    feeders).  Drain-awareness is part of the contract: an empty
    refill must NOT be treated as end-of-run while the head still has
    outstanding jobs, because a crashed worker may requeue one.
    """

    def get_job(self, wait: bool = True) -> Job | None:
        """Next job, refilling from the head when the pool is depleted.

        Returns ``None`` only when the run is truly drained (no
        unassigned *and* no outstanding jobs) or the stop event fired.
        With ``wait=False``, returns ``None`` as soon as nothing is
        immediately available (the non-blocking reserve path).
        """
        ...

    def reserve_next(self) -> Job | None:
        """Non-blocking reserve of the job after the current one."""
        ...

    def complete(self, job: Job) -> bool:
        """Report one job processed; True if it recovered a requeued job."""
        ...

    def worker_died(self) -> list[Job]:
        """Mark one worker dead; the last death surrenders pooled jobs."""
        ...

    def requeue(self, jobs: list[Job]) -> None:
        """Return assigned-but-unfinished jobs to the head for reassignment."""
        ...


class LockMaster:
    """Cluster-local job pool that refills from the head through a lock.

    The process engine's :class:`MasterPort`: the head scheduler is
    invoked directly under a shared lock, with channel latency modelled
    by sleeping the cluster's master <-> head round-trip.

    A master never *latches* an empty refill as "done": while the head
    still has outstanding jobs, one of them may yet be requeued by a
    crashed worker, so :meth:`get_job` keeps re-checking the scheduler
    until the run is truly drained (no unassigned *and* no outstanding
    jobs), the stop event fires, or -- for the non-blocking reserve
    path -- immediately reports nothing available.
    """

    #: Poll interval while waiting for outstanding jobs to complete or
    #: be requeued (only reached at the tail of a run).
    POLL_S = 0.001

    def __init__(
        self,
        cluster: ClusterConfig,
        scheduler: HeadScheduler,
        scheduler_lock: threading.Lock,
        batch_size: int,
        stop: threading.Event | None = None,
        n_workers: int = 1,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.scheduler_lock = scheduler_lock
        self.batch_size = batch_size
        self.stop = stop if stop is not None else threading.Event()
        self.pool = LocalJobPool()
        self._refill_lock = threading.Lock()
        self._alive = n_workers
        self._alive_lock = threading.Lock()

    def get_job(self, wait: bool = True) -> Job | None:
        """Next job for a worker, refilling from the head when depleted.

        Returns ``None`` when every job everywhere is assigned *and*
        completed (or the stop event fired).  With ``wait=False`` it
        instead returns ``None`` as soon as nothing is immediately
        available -- required by the prefetch reserve path, where the
        caller still holds its own outstanding job and blocking here
        would deadlock the tail of the run.
        """
        while True:
            job = self.pool.try_get()
            if job is not None:
                return job
            if self.stop.is_set():
                return None
            # Pay the master <-> head round-trip *outside* the refill
            # lock: concurrent requesters overlap their RTTs instead of
            # queueing a full round-trip each behind one sleeping
            # refiller (only the scheduler interaction is serialized).
            if self.cluster.link_latency_s > 0:
                time.sleep(self.cluster.link_latency_s)
            with self._refill_lock:
                # Re-check: another worker may have refilled while we
                # paid the round-trip or waited for the lock.
                job = self.pool.try_get()
                if job is not None:
                    return job
                with self.scheduler_lock:
                    jobs = self.scheduler.request_jobs(
                        self.cluster.location, self.batch_size
                    )
                    outstanding = self.scheduler.outstanding
                if jobs:
                    self.pool.add(jobs[1:])
                    return jobs[0]
            if outstanding == 0:
                return None  # truly drained: nothing left to requeue
            if not wait:
                return None
            time.sleep(self.POLL_S)

    def reserve_next(self) -> Job | None:
        """Reserve the job a worker will process after its current one.

        Same contract as :meth:`get_job` but non-blocking: the caller's
        *current* job is still outstanding, so waiting for the head to
        drain would deadlock (every pipelined worker parked on its own
        unfinished job).  The worker loops back to a blocking
        :meth:`get_job` after finishing its current job, so a late
        requeue is still picked up.
        """
        return self.get_job(wait=False)

    def complete(self, job: Job) -> bool:
        """Report one job done; True when this execution recovered a
        job that a failed worker had returned to the head."""
        with self.scheduler_lock:
            self.scheduler.complete(job)
            return job.job_id in self.scheduler.requeued_ids

    def requeue(self, jobs: list[Job]) -> None:
        """Hand a dead worker's in-flight jobs back to the head."""
        with self.scheduler_lock:
            for job in jobs:
                self.scheduler.reassign(job)

    def worker_died(self) -> list[Job]:
        """Mark one worker dead; the last death surrenders the pool.

        While any worker of the cluster survives, pooled jobs stay (a
        survivor will drain them).  When the *last* worker dies, the
        pooled-but-unstarted jobs are pulled out and returned so the
        caller can hand them back to the head for the other cluster.
        """
        with self._alive_lock:
            self._alive -= 1
            if self._alive > 0:
                return []
        drained: list[Job] = []
        while (job := self.pool.try_get()) is not None:
            drained.append(job)
        return drained


# -- shared fetch accounting --------------------------------------------------


#: The :class:`FetchInfo` counters :class:`WorkerStats` declares too.
_FETCH_INFO_COUNTERS = tuple(f.name for f in fields(FetchInfo) if f.name in COUNTERS)


def account_fetch_info(wstats: WorkerStats, info: FetchInfo) -> None:
    """Fold one fetch's :class:`FetchInfo` into a worker's counters."""
    for name in _FETCH_INFO_COUNTERS:
        setattr(wstats, name, getattr(wstats, name) + getattr(info, name))
    if info.cache_hit:
        wstats.cache_hits += 1
    else:
        wstats.cache_misses += 1


def account_overlap(
    wstats: WorkerStats, fetch_s: float, overlapped: bool, prefetching: bool
) -> None:
    """Attribute one fetch's wall time to overlap or stall.

    A fetch that ran while the worker was computing hid under
    processing (``overlap_s``); one the worker had to wait for is a
    stall (``retrieval_s``).  Used by the process engine's feeder,
    whose pipelining happens across the process boundary rather than
    through a :class:`~repro.storage.transfer.PrefetchHandle`.
    """
    if overlapped:
        wstats.overlap_s += fetch_s
        wstats.prefetch_hits += 1
    else:
        wstats.retrieval_s += fetch_s
        if prefetching:
            wstats.prefetch_misses += 1


# -- shared run epilogue ------------------------------------------------------


def rollup_fetcher_stats(
    cstats: ClusterStats, fetchers: dict[str, ParallelFetcher], *, close: bool = True
) -> None:
    """Close one cluster's fetchers and fold their fault/autotune state.

    Every fetcher-level counter :class:`WorkerStats` declares (retries,
    giveups, retried bytes, ...) lands in the cluster's
    :attr:`~ClusterStats.fetcher_row`, the latency samples and (when
    adaptive fetch is on) each path's autotuner snapshot in
    :class:`ClusterStats` -- identically for every engine.
    """
    row = cstats.fetcher_row
    for loc, f in fetchers.items():
        if close:
            f.close()
        for name, attr in FETCHER_COUNTERS.items():
            setattr(row, name, getattr(row, name) + getattr(f, attr))
        cstats.fetch_latencies.extend(f.fetch_latencies)
        if f.autotune is not None and f.autotune.n_samples:
            cstats.autotune[loc] = f.autotune.snapshot()


def finalize_run(
    *,
    spec: GeneralizedReductionSpec,
    clusters: list[ClusterConfig],
    stats: RunStats,
    scheduler: HeadScheduler,
    fetchers: dict[str, dict[str, ParallelFetcher]],
    cluster_robjs: dict[str, list[ReductionObject]],
    errors: list[BaseException],
    t_start: float,
    combine: Callable[[list[ReductionObject]], ReductionObject] | None = None,
    health: HealthRegistry | None = None,
) -> RunResult:
    """The shared run epilogue for scheduler-owning engines.

    Rolls fetcher fault/autotune state into the cluster stats, surfaces
    worker errors and undrained schedulers, performs the per-cluster
    combine, ships each cluster's reduction object as real serialized
    bytes (paying the cluster's link latency), runs the global
    reduction, and fills the idle/sync accounting.  ``combine``
    overrides the merge (the process engine's parallel tree); the
    default is the spec's own ``global_reduction``.
    """
    for cluster in clusters:
        rollup_fetcher_stats(stats.clusters[cluster.name], fetchers[cluster.name])
    stats.n_requeued_jobs = scheduler.n_reassigned
    if health is not None:
        stats.breakers = health.snapshot()
    if errors:
        raise errors[0]
    if not scheduler.all_done:
        failed = stats.n_failed_workers
        raise RuntimeError(
            f"run ended with {scheduler.remaining} unassigned / "
            f"{scheduler.outstanding} outstanding jobs"
            + (f" ({failed} workers failed, none left to recover)"
               if failed else "")
        )
    if combine is None:
        combine = spec.global_reduction

    # Per-cluster combination, then inter-cluster global reduction.
    for cstats in stats.clusters.values():
        cstats.finished_at = max(
            (w.finished_at for w in cstats.workers), default=0.0
        )
    t_reduce0 = time.monotonic()
    uploads: list[ReductionObject] = []
    for cluster in clusters:
        cstats = stats.clusters[cluster.name]
        robjs = cluster_robjs[cluster.name]
        merged = combine(robjs) if robjs else spec.create_reduction_object()
        # Ship real serialized bytes, as the wire would carry them.
        t0 = time.monotonic()
        payload = serialize_robj(merged)
        if cluster.link_latency_s > 0:
            time.sleep(cluster.link_latency_s)
        uploads.append(deserialize_robj(payload))
        cstats.robj_nbytes = len(payload)
        cstats.robj_transfer_s = time.monotonic() - t0
    final = combine(uploads)
    t_end = time.monotonic()

    stats.total_s = t_end - t_start
    stats.global_reduction_s = t_end - t_reduce0
    # Idle/sync accounting: a cluster idles from its last worker's
    # finish until the slowest cluster's (waiting for the other site,
    # unable to steal); a worker syncs from its finish to the run's end
    # (barrier wait plus global-reduction exchange).
    stats.processing_end_s = max(
        (c.finished_at for c in stats.clusters.values()), default=0.0
    )
    for cstats in stats.clusters.values():
        cstats.idle_s = max(0.0, stats.processing_end_s - cstats.finished_at)
        for w in cstats.workers:
            w.sync_s = max(0.0, stats.total_s - w.finished_at)
    return RunResult(spec.finalize(final), stats, final)
