"""Shared slave-runtime core: one worker loop for every engine.

The paper describes a single protocol -- a head pool, per-cluster
masters, multi-threaded slaves folding into reduction objects -- and the
three live engines (threaded, actor, process) are three *transports* for
that protocol, not three protocols.  This module is the protocol made
code, factored so each engine contributes only its control plane:

* :class:`EngineOptions` -- the frozen, validated configuration surface
  shared by every engine, the session, the driver, and the CLI.  One
  validation path (cluster-name uniqueness, crash-plan targets,
  index-vs-stores coverage) replaces the per-engine copies.
* :class:`MasterPort` -- the small protocol a slave drives to acquire
  and complete jobs.  The lock-based :class:`LockMaster` (threaded and
  process engines) and the channel-based master actor implement it; the
  port owns drain-awareness, so an empty refill is never latched as
  "done" while requeue-able jobs are outstanding.
* :class:`SlaveRuntime` -- the per-worker loop: synchronous and
  pipelined-prefetch fetch paths, decode/fold with group iteration, the
  full :class:`WorkerStats` accounting (retrieval/decode/overlap/stall/
  cache/prefetch/stolen/recovered), crash injection, and
  requeue-and-preserve-robj failure containment.  Every engine that
  executes folds in-process runs exactly this loop; the process engine's
  feeder reuses its fetch-accounting steps across the process boundary.
* :func:`finalize_run` -- the shared run epilogue: per-cluster combine,
  serialized reduction-object shipping, fetcher fault/autotune rollup
  into :class:`ClusterStats`, and idle/sync accounting.

Sector/Sphere-style data clouds take the same shape -- one slave runtime
with pluggable transport -- and fault-handling work (coded/redundant
execution) likewise assumes recovery lives in a shared execution core.
Consolidating here means prefetching, chunk caching, retries, and
worker-crash containment land once and every engine has them *by
construction*.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.core.api import GeneralizedReductionSpec, supports_batch_fold
from repro.core.reduction_object import ReductionObject
from repro.core.serialization import deserialize_robj, serialize_robj
from repro.data.index import DataIndex
from repro.data.redundancy import normalize_stripe
from repro.data.units import iter_unit_groups
from repro.runtime.jobs import Job, LocalJobPool
from repro.runtime.pushdown import normalize_pushdown
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.storage.autotune import AimdAutotuner, AutotuneParams
from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache
from repro.storage.faults import WorkerCrash
from repro.storage.health import BreakerPolicy, HealthRegistry, HedgePolicy
from repro.storage.retry import RetryExhausted, RetryPolicy
from repro.storage.transfer import (
    DEFAULT_MIN_PART_NBYTES,
    FetchInfo,
    ParallelFetcher,
    PrefetchHandle,
)

__all__ = [
    "ClusterConfig",
    "RunResult",
    "EngineOptions",
    "EngineBase",
    "MasterPort",
    "LockMaster",
    "SlaveRuntime",
    "account_fetch_info",
    "account_overlap",
    "make_cluster_fetchers",
    "rollup_fetcher_stats",
    "finalize_timing",
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
    CLI are gone.  ``start_method`` and ``merge_threads`` only have an
    effect on the process engine (in-process engines have no start
    method and use the spec's own global reduction); they are accepted
    -- and validated -- everywhere so one options object can configure
    any engine.
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
    # Process-engine transport knobs (no effect on in-process engines).
    start_method: str | None = None
    merge_threads: int = 4

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
        if self.merge_threads <= 0:
            raise ValueError("merge_threads must be positive")
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

    # Backwards-compatible read access to the option fields.
    @property
    def batch_size(self) -> int:
        return self.options.batch_size

    @property
    def group_nbytes(self) -> int:
        return self.options.group_nbytes

    @property
    def scheduler_factory(self) -> Callable[[list[Job]], HeadScheduler]:
        return self.options.scheduler_factory

    @property
    def batch_fold(self) -> bool:
        return self.options.batch_fold

    @property
    def verify_chunks(self) -> bool:
        return self.options.verify_chunks

    @property
    def prefetch(self) -> bool:
        return self.options.prefetch

    @property
    def chunk_cache(self) -> ChunkCache | None:
        return self.options.chunk_cache

    @property
    def retry(self) -> RetryPolicy | None:
        return self.options.retry

    @property
    def crash_plan(self) -> dict[str, int]:
        return self.options.crash_plan

    @property
    def adaptive_fetch(self) -> bool:
        return self.options.adaptive_fetch

    @property
    def min_part_nbytes(self) -> int:
        return self.options.min_part_nbytes

    @property
    def autotune_params(self) -> AutotuneParams | None:
        return self.options.autotune_params

    @property
    def hedge(self) -> HedgePolicy | None:
        return self.options.hedge

    @property
    def breaker(self) -> BreakerPolicy | None:
        return self.options.breaker

    @property
    def pushdown(self) -> str | None:
        return self.options.pushdown

    @property
    def stripe(self) -> tuple[int, int] | None:
        return self.options.stripe

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
    learns its own knee.  Shared by all three live engines.

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

    The port hides how a cluster's master talks to the head -- a lock
    around the shared scheduler (:class:`LockMaster`), typed messages
    over channels (the actor engine's master), or the process engine's
    in-parent feeder.  Drain-awareness is part of the contract: an empty
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

    The :class:`MasterPort` implementation shared by the threaded and
    process engines: the head scheduler is invoked directly under a
    shared lock, with channel latency modelled by sleeping the
    cluster's master <-> head round-trip.

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


def account_fetch_info(wstats: WorkerStats, info: FetchInfo) -> None:
    """Fold one fetch's :class:`FetchInfo` into a worker's counters."""
    wstats.decode_s += info.decode_s
    wstats.bytes_wire += info.bytes_wire
    wstats.bytes_logical += info.bytes_logical
    wstats.n_copies += info.n_copies
    wstats.n_failovers += info.n_failovers
    wstats.n_hedges += info.n_hedges
    wstats.hedge_wins += info.hedge_wins
    wstats.n_fragments += info.n_fragments
    wstats.n_parity_decodes += info.n_parity_decodes
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
    through a :class:`PrefetchHandle`.
    """
    if overlapped:
        wstats.overlap_s += fetch_s
        wstats.prefetch_hits += 1
    else:
        wstats.retrieval_s += fetch_s
        if prefetching:
            wstats.prefetch_misses += 1


class SlaveRuntime:
    """The per-worker loop, identical for every in-process engine.

    Pulls jobs through a :class:`MasterPort`, fetches chunk bytes
    (synchronously, or double-buffered when ``options.prefetch``),
    decodes and folds unit groups into this worker's reduction object,
    and accounts every second and byte in :class:`WorkerStats`.

    Fault semantics are part of the loop, not the engine: the
    crash-injection plan raises :class:`WorkerCrash` at the configured
    job count, and both injected crashes and retry-exhausted fetches are
    *contained* -- the worker's in-flight jobs (current and
    reserved-next) go back to the head through the port, its partially
    folded reduction object is preserved (it holds exactly the jobs it
    completed, so folding it plus re-executing the requeued jobs yields
    each job exactly once), and the run continues on the survivors.
    Non-recoverable errors are appended to ``errors`` and fail the whole
    run fast via the shared stop event.
    """

    def __init__(
        self,
        name: str,
        *,
        cluster: ClusterConfig,
        port: MasterPort,
        spec: GeneralizedReductionSpec,
        index: DataIndex,
        group_units: int,
        fetchers: dict[str, ParallelFetcher],
        wstats: WorkerStats,
        robjs_out: list[ReductionObject],
        options: EngineOptions,
        t_start: float,
        errors: list[BaseException],
        stop: threading.Event,
    ) -> None:
        self.name = name
        self.cluster = cluster
        self.port = port
        self.spec = spec
        self.index = index
        self.group_units = group_units
        self.fetchers = fetchers
        self.wstats = wstats
        self.robjs_out = robjs_out
        self.options = options
        self.t_start = t_start
        self.errors = errors
        self.stop = stop
        self.crash_after = options.crash_plan.get(name)
        self._batch_fold = options.batch_fold and (
            spec is not None and supports_batch_fold(spec)
        )
        self._jobs_done = 0
        self._robj: ReductionObject | None = None

    # -- per-run context hooks -----------------------------------------------
    #
    # The base runtime serves exactly one run: one spec, one fetcher
    # map, one reduction object per worker.  A multi-run slave (the
    # bursting service's shared fleet) overrides these hooks to resolve
    # the context from the job's ``run_id`` instead, while the loop,
    # accounting, and containment logic stay shared.

    def _open_run(self) -> None:
        """Prepare per-run worker state at loop entry."""
        self._robj = self.spec.create_reduction_object()

    def _robj_for(self, job: Job) -> ReductionObject:
        """The reduction object ``job`` folds into."""
        del job
        assert self._robj is not None
        return self._robj

    def _fetchers_for(self, job: Job) -> dict[str, ParallelFetcher]:
        """The fetcher map serving ``job``'s run."""
        del job
        return self.fetchers

    def _emit_robjs(self) -> None:
        """Publish this worker's reduction object(s) at loop exit."""
        if self._robj is not None:
            self.robjs_out.append(self._robj)

    def _before_complete(self, job: Job) -> None:
        """Per-job hook invoked just before the port learns of completion."""

    def _mark_failed(self, inflight: list[Job | None]) -> None:
        """Record this worker's death in the stats it was feeding."""
        del inflight
        self.wstats.failed = True
        self.wstats.finished_at = time.monotonic() - self.t_start

    def _on_fatal(
        self,
        exc: BaseException,
        inflight: list[Job | None],
        pending: PrefetchHandle | None,
    ) -> None:
        """Handle a non-recoverable error (fail the whole run fast)."""
        del inflight, pending
        self.errors.append(exc)
        self.stop.set()  # fail fast: abort every other worker promptly

    # -- steps ---------------------------------------------------------------

    def _maybe_crash(self) -> None:
        if self.crash_after is not None and self._jobs_done >= self.crash_after:
            raise WorkerCrash(
                f"injected crash in {self.name} after {self._jobs_done} jobs"
            )

    def _fetch_now(self, job: Job) -> bytes:
        """Synchronous fetch of one job's bytes, fully accounted as stall."""
        t0 = time.monotonic()
        raw, info = self._fetchers_for(job)[job.location].fetch_chunk(job.chunk)
        self.wstats.retrieval_s += time.monotonic() - t0 - info.decode_s
        account_fetch_info(self.wstats, info)
        return raw

    def _await_prefetch(self, pending: PrefetchHandle, job: Job) -> bytes:
        """Collect an in-flight prefetch, splitting stall from overlap."""
        del job  # multi-run slaves switch accounting context on it
        ready = pending.done()
        t_need = time.monotonic()
        raw = pending.result()
        stall = time.monotonic() - t_need
        w = self.wstats
        w.retrieval_s += stall
        w.overlap_s += max(0.0, pending.fetch_s - stall)
        account_fetch_info(w, pending.info)
        if ready:
            w.prefetch_hits += 1
        else:
            w.prefetch_misses += 1
        return raw

    def _process(self, job: Job, raw: bytes) -> None:
        """Decode, reduce, and complete one job.

        The decode is a zero-copy ``np.frombuffer`` view over the fetch
        (or cache) buffer; the fold is one ``local_reduction_batch``
        call over the whole chunk when the spec provides it (and
        ``options.batch_fold`` allows), else the per-unit-group loop.
        """
        robj = self._robj_for(job)
        if self.options.verify_chunks:
            from repro.data.integrity import verify_chunk_bytes

            verify_chunk_bytes(job.chunk, raw)
        t0 = time.monotonic()
        units = self.index.fmt.decode(raw)
        t1 = time.monotonic()
        if self._batch_fold:
            self.spec.local_reduction_batch(robj, units)
            n_folds = 1
        else:
            n_folds = 0
            for group in iter_unit_groups(units, self.group_units):
                self.spec.local_reduction(robj, group)
                n_folds += 1
        t2 = time.monotonic()
        elapsed = t2 - t0
        w = self.wstats
        w.processing_s += elapsed
        w.fold_s += t2 - t1
        w.bytes_folded += units.nbytes
        w.n_fold_calls += n_folds
        w.jobs_processed += 1
        if job.location != self.cluster.location:
            w.jobs_stolen += 1
        self._jobs_done += 1
        self._before_complete(job)
        if self.port.complete(job):
            # This execution replaced one lost to a failed worker; its
            # compute time is the recovery overhead (the re-fetch is in
            # retrieval_s like any other fetch).
            w.jobs_recovered += 1
            w.recovery_s += elapsed

    def _contain_failure(
        self,
        inflight: list[Job | None],
        pending: PrefetchHandle | None,
    ) -> None:
        """Absorb this worker's death without aborting the run.

        The worker's in-flight jobs (current and reserved-next) return
        to the head for reassignment; if it was its cluster's last
        worker, the master's pooled jobs go back too.  The partially
        folded reduction object is preserved.
        """
        if pending is not None:
            pending.cancel()
        requeue: list[Job] = []
        for j in inflight:
            if j is not None and all(j.job_id != q.job_id for q in requeue):
                requeue.append(j)
        requeue.extend(self.port.worker_died())
        self.port.requeue(requeue)
        self._mark_failed(inflight)
        self._emit_robjs()

    # -- the loop ------------------------------------------------------------

    def run(self) -> None:
        """Process jobs until the run drains, containing recoverable faults."""
        pending: PrefetchHandle | None = None
        # Containment bookkeeping: the job being fetched/processed and
        # the reserved-next job whose prefetch is in flight.  Both are
        # outstanding at the head until completed, so both must be
        # requeued if this worker dies.
        cur_job: Job | None = None
        next_job: Job | None = None
        self._open_run()
        try:
            while not self.stop.is_set():
                cur_job = self.port.get_job()
                if cur_job is None:
                    break
                if self.options.prefetch:
                    # Pipelined path: the first fetch is unavoidably
                    # serial; every later fetch overlaps the previous
                    # job's compute.  When the reserve runs dry the
                    # outer loop re-checks the head, so jobs requeued by
                    # a late failure are still picked up.
                    self._maybe_crash()
                    raw = self._fetch_now(cur_job)
                    while cur_job is not None and not self.stop.is_set():
                        self._maybe_crash()
                        next_job = self.port.reserve_next()
                        if next_job is not None:
                            pending = self._fetchers_for(next_job)[
                                next_job.location
                            ].fetch_chunk_async(next_job.chunk)
                        self._process(cur_job, raw)
                        cur_job = None
                        if next_job is None:
                            break
                        raw = self._await_prefetch(pending, next_job)
                        pending = None
                        cur_job, next_job = next_job, None
                else:
                    # Serial path: fetch then process, one job at a time.
                    self._maybe_crash()
                    raw = self._fetch_now(cur_job)
                    self._process(cur_job, raw)
                    cur_job = None
            self.wstats.finished_at = time.monotonic() - self.t_start
            self._emit_robjs()
        except (WorkerCrash, RetryExhausted):
            # Recoverable: this worker is lost, the run is not.
            self._contain_failure([cur_job, next_job], pending)
            pending = None
        except BaseException as exc:  # surfaced by the engine's run()
            self._on_fatal(exc, [cur_job, next_job], pending)
        finally:
            if pending is not None:
                pending.cancel()


# -- shared run epilogue ------------------------------------------------------


def rollup_fetcher_stats(
    cstats: ClusterStats, fetchers: dict[str, ParallelFetcher], *, close: bool = True
) -> None:
    """Close one cluster's fetchers and fold their fault/autotune state.

    Retry counts, giveups, retried bytes, and (when adaptive fetch is
    on) each path's autotuner snapshot land in :class:`ClusterStats` --
    identically for every engine.
    """
    for loc, f in fetchers.items():
        if close:
            f.close()
        cstats.n_retries += f.n_retries
        cstats.n_errors += f.n_giveups
        cstats.bytes_retried += f.bytes_retried
        cstats.n_breaker_skips += f.n_breaker_skips
        cstats.n_abandoned += f.n_abandoned
        cstats.fragments_wasted_bytes += f.fragments_wasted_bytes
        cstats.fetch_latencies.extend(f.fetch_latencies)
        if f.autotune is not None and f.autotune.n_samples:
            cstats.autotune[loc] = f.autotune.snapshot()


def finalize_timing(stats: RunStats) -> None:
    """Fill idle/sync accounting from per-worker finish times.

    Requires ``stats.total_s`` and each cluster's ``finished_at`` to be
    set; computes ``processing_end_s``, per-cluster ``idle_s`` (waiting
    for the other cluster, unable to steal), and per-worker ``sync_s``
    (barrier wait plus global-reduction exchange).
    """
    processing_end = max(
        (c.finished_at for c in stats.clusters.values()), default=0.0
    )
    stats.processing_end_s = processing_end
    for cstats in stats.clusters.values():
        cstats.idle_s = max(0.0, processing_end - cstats.finished_at)
        for w in cstats.workers:
            w.sync_s = max(0.0, stats.total_s - w.finished_at)


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
    finalize_timing(stats)
    return RunResult(spec.finalize(final), stats, final)
