"""Execution-time accounting.

The paper reports, per cluster, the decomposition of overall execution
time into **processing**, **data retrieval**, and **sync** (barrier wait
plus global-reduction exchange), and additionally tracks per-cluster job
counts (Table I) and idle/global-reduction overheads (Table II).  Both
execution engines populate these structures.

Every counter is declared once, as a :class:`WorkerStats` field whose
metadata carries its aggregation: the stacked-bar timers report the
per-worker mean, every other counter the sum.  :class:`ClusterStats`
and :class:`RunStats` derive each rollup from that declaration, so a
new counter takes one field line plus the code that increments it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

__all__ = ["WorkerStats", "ClusterStats", "RunStats", "COUNTERS", "FETCHER_COUNTERS"]


def _percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def _mean() -> Any:
    """A stacked-bar timer: a cluster reports its per-worker mean."""
    return field(default=0.0, metadata={"agg": "mean"})


def _sum(default: float = 0, *, fetcher: str | None = None) -> Any:
    """A counter every level sums.  ``fetcher`` names the
    :class:`~repro.storage.transfer.ParallelFetcher` attribute that
    :func:`~repro.runtime.core.rollup_fetcher_stats` folds into it."""
    return field(default=default, metadata={"agg": "sum", "fetcher": fetcher})


class _Ratios:
    """Ratios of summed counters, one formula at every level."""

    cache_hits: int
    cache_misses: int
    bytes_wire: int
    bytes_logical: int
    fold_s: float
    bytes_folded: int

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of fetches served by the chunk cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def compress_ratio(self) -> float:
        """Wire bytes per logical byte (1.0 = uncompressed, <1 = shrunk)."""
        return self.bytes_wire / self.bytes_logical if self.bytes_logical else 1.0

    @property
    def fold_ns_per_byte(self) -> float:
        """Fold-kernel nanoseconds per unit byte (the per-byte fold cost)."""
        return self.fold_s * 1e9 / self.bytes_folded if self.bytes_folded else 0.0


@dataclass
class WorkerStats(_Ratios):
    """Timers accumulated by one worker (one core in the simulator).

    A cluster also keeps one row of this type for its fetchers
    (:attr:`ClusterStats.fetcher_row`): the counters marked ``fetcher=``
    are filled there, from fetcher state that outlives any one fetch.
    """

    processing_s: float = _mean()
    retrieval_s: float = _mean()
    sync_s: float = _mean()
    jobs_processed: int = _sum()
    jobs_stolen: int = _sum()       # jobs whose data lived at another site
    finished_at: float = 0.0        # when this worker ran out of work
    failed: bool = False            # worker died before the run finished
    # Pipelined-retrieval accounting.  With prefetching, ``retrieval_s``
    # counts only the *stall* (time the worker actually waited for data);
    # ``overlap_s`` is the fetch time hidden under processing, so
    # retrieval_s + overlap_s recovers the serial engine's retrieval bar.
    overlap_s: float = _mean()
    prefetch_hits: int = _sum()     # prefetched data ready before it was needed
    prefetch_misses: int = _sum()   # worker stalled waiting for the prefetch
    cache_hits: int = _sum()        # fetches served from the chunk cache
    cache_misses: int = _sum()      # fetches that went to the store
    # Fault-recovery accounting: jobs this worker re-executed after a
    # failed worker returned them to the head, and the compute time
    # those re-executions cost (the re-fetch lands in ``retrieval_s``).
    jobs_recovered: int = _sum()
    recovery_s: float = _sum(0.0)
    # Cross-process accounting (ProcessEngine).  ``ipc_s`` is time spent
    # moving data across the process boundary (copying chunk bytes into
    # shared memory, queue round-trips); ``ser_s`` is reduction-object
    # serialize/deserialize time; ``shm_nbytes`` counts bytes that
    # crossed through shared-memory segments.  All zero for in-process
    # engines.
    ipc_s: float = _mean()
    ser_s: float = _mean()
    shm_nbytes: int = _sum()
    # Transfer-layer accounting.  ``bytes_wire`` is what this worker's
    # fetches actually pulled over store connections (encoded size for
    # compressed chunks, zero on cache hits); ``bytes_logical`` the
    # decoded payload handed to the fold; ``decode_s`` codec decode time
    # (kept separate from retrieval stall).
    bytes_wire: int = _sum()
    bytes_logical: int = _sum()
    decode_s: float = _sum(0.0)
    # Hot-path accounting.  ``fold_s`` is time inside local-reduction
    # kernels only (a subset of ``processing_s``, which also covers
    # decode and verify); ``bytes_folded`` the unit bytes those kernels
    # consumed; ``n_fold_calls`` how many kernel invocations they took
    # (1 per chunk on the batch path, chunk/group on the loop path);
    # ``n_copies`` whole-chunk buffer copies made after wire reassembly
    # (codec inflations, shm copies, cache-hit copies -- 0 is the
    # zero-copy ideal).
    fold_s: float = _sum(0.0)
    bytes_folded: int = _sum()
    n_fold_calls: int = _sum()
    n_copies: int = _sum()
    # Replica-aware retrieval: sources that failed before a fetch
    # succeeded elsewhere, hedged duplicate launches, and hedges whose
    # backup beat the primary.
    n_failovers: int = _sum()
    n_hedges: int = _sum()
    hedge_wins: int = _sum()
    # Erasure-striped retrieval: fragments that fed reassemblies (k per
    # striped fetch) and reconstructions that needed a parity decode.
    n_fragments: int = _sum()
    n_parity_decodes: int = _sum()
    # Bytes of losing legs (fragments or hedged replicas) fetched but
    # unused.  The DES counts them per worker, where losers are
    # observable synchronously; real engines count them on the fetcher
    # (losers land after the fetch returns).  Every level sums both.
    fragments_wasted_bytes: int = _sum(fetcher="fragments_wasted_bytes")
    # Fetch-path fault counters, kept by the fetchers only: sub-range
    # retries issued, fetches that failed past the retry policy, bytes
    # those retries re-requested, legs refused by their store's
    # breaker, and attempts abandoned by per-attempt timeouts.
    n_retries: int = _sum(fetcher="n_retries")
    n_errors: int = _sum(fetcher="n_giveups")
    bytes_retried: int = _sum(fetcher="bytes_retried")
    n_breaker_skips: int = _sum(fetcher="n_breaker_skips")
    n_abandoned: int = _sum(fetcher="n_abandoned")

    @property
    def busy_s(self) -> float:
        return self.processing_s + self.retrieval_s


#: Every declared counter and its aggregation ("mean" or "sum").
COUNTERS: dict[str, str] = {
    f.name: f.metadata["agg"] for f in fields(WorkerStats) if "agg" in f.metadata
}
#: Fetcher-level counters: WorkerStats field -> ParallelFetcher attribute.
FETCHER_COUNTERS: dict[str, str] = {
    f.name: f.metadata["fetcher"]
    for f in fields(WorkerStats)
    if f.metadata.get("fetcher")
}


def _undeclared(obj: object, name: str) -> AttributeError:
    return AttributeError(f"{type(obj).__name__!r} object has no attribute {name!r}")


@dataclass
class ClusterStats(_Ratios):
    """Aggregated view of one cluster's workers.

    Every counter :class:`WorkerStats` declares reads here as its
    rollup: the per-worker mean for the stacked-bar timers, the total
    over the workers and :attr:`fetcher_row` for the rest.
    """

    name: str
    location: str
    workers: list[WorkerStats] = field(default_factory=list)
    # The counters this cluster's fetchers kept (retries, giveups,
    # losing-leg bytes, ...): summed into the rollups, not a worker.
    fetcher_row: WorkerStats = field(default_factory=WorkerStats)
    robj_nbytes: int = 0            # size of the reduction object it shipped
    robj_transfer_s: float = 0.0    # time to send it to the head
    finished_at: float = 0.0        # when the last worker finished jobs
    idle_s: float = 0.0             # waiting for the other cluster, unable to steal
    # Per-winning-leg wall seconds from the start of its race (cache
    # hits excluded), pooled from this cluster's fetchers -- the p95
    # latency sample set.
    fetch_latencies: list = field(default_factory=list)
    # Transfer-layer state per data location, filled from this cluster's
    # autotuners when adaptive fetch is on: location -> snapshot dict
    # (parts, effective_bw, trajectory, ...).
    autotune: dict = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        agg = COUNTERS.get(name)
        if agg is None:
            raise _undeclared(self, name)
        total = sum(getattr(w, name) for w in self.workers)
        if agg == "mean":
            return total / len(self.workers) if self.workers else 0.0
        return total + getattr(self.fetcher_row, name)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def total_s(self) -> float:
        """Stacked-bar total: all per-worker mean components."""
        return (
            self.processing_s + self.retrieval_s + self.sync_s
            + self.ipc_s + self.ser_s
        )

    @property
    def workers_failed(self) -> int:
        return sum(1 for w in self.workers if w.failed)

    @property
    def effective_bw(self) -> float:
        """Best EWMA path bandwidth (bytes/s) the autotuners measured."""
        return max(
            (snap.get("effective_bw", 0.0) for snap in self.autotune.values()),
            default=0.0,
        )

    @property
    def fetch_p95_s(self) -> float:
        """95th-percentile successful-fetch latency (0 with no samples)."""
        return _percentile(self.fetch_latencies, 0.95)


@dataclass
class RunStats(_Ratios):
    """Complete accounting for one execution.

    Every summed counter :class:`WorkerStats` declares reads here as its
    total over the clusters; the stacked-bar timers stay per-cluster.
    """

    clusters: dict[str, ClusterStats] = field(default_factory=dict)
    total_s: float = 0.0              # wall-clock (sim or real) of the run
    global_reduction_s: float = 0.0   # robj exchange + final merge
    processing_end_s: float = 0.0     # when the last cluster finished jobs
    n_requeued_jobs: int = 0          # jobs returned to the head by reassign()
    # Per-store health/breaker snapshot at run end (location -> dict of
    # state, EWMAs, transition counters), filled when a health registry
    # was active (hedge or breaker configured).
    breakers: dict = field(default_factory=dict)
    # Metadata-first retrieval (predicate pushdown).  Pruning happens at
    # the head before any job is assigned, so these are run-level
    # counters, not per-worker sums: mode that ran (None = off), chunks
    # pruned by relevant(), wire bytes those chunks would have cost, and
    # surviving jobs the priority() hint moved off chunk-id order.
    pushdown_mode: str | None = None
    n_pruned_chunks: int = 0
    bytes_pruned: int = 0
    n_reordered: int = 0

    def __getattr__(self, name: str) -> Any:
        if COUNTERS.get(name) != "sum":
            raise _undeclared(self, name)
        return sum(getattr(c, name) for c in self.clusters.values())

    @property
    def n_failed_workers(self) -> int:
        return sum(c.workers_failed for c in self.clusters.values())

    @property
    def n_breaker_transitions(self) -> int:
        """Total breaker state transitions across every store."""
        return sum(
            b.get("n_opened", 0) + b.get("n_half_opened", 0) + b.get("n_closed", 0)
            for b in self.breakers.values()
        )

    @property
    def fetch_p95_s(self) -> float:
        """Run-wide 95th-percentile successful-fetch latency."""
        pooled: list = []
        for c in self.clusters.values():
            pooled.extend(c.fetch_latencies)
        return _percentile(pooled, 0.95)

    def breakdown_rows(self) -> list[dict]:
        """Rows for the Figure-3-style stacked breakdown.

        ``ipc_s``/``ser_s`` decompose the cross-process overheads of the
        process engine next to processing and retrieval, so the overlap
        of fetch, IPC, and compute is visible in one table (both are
        zero for the in-process engines).
        """
        return [
            {
                "cluster": c.name,
                "processing_s": round(c.processing_s, 4),
                "retrieval_s": round(c.retrieval_s, 4),
                "sync_s": round(c.sync_s, 4),
                "ipc_s": round(c.ipc_s, 4),
                "ser_s": round(c.ser_s, 4),
                "total_s": round(c.total_s, 4),
                "n_retries": c.n_retries,
                "n_errors": c.n_errors,
                "bytes_retried": c.bytes_retried,
            }
            for c in self.clusters.values()
        ]

    def ipc_rows(self) -> list[dict]:
        """Rows decomposing cross-process data movement per cluster.

        Only the process engine populates these: ``ipc_s`` is shared-
        memory copy plus queue round-trip time, ``ser_s`` the pickle-5
        out-of-band (de)serialization of reduction objects, and
        ``shm_nbytes`` the bytes that crossed process boundaries through
        shared segments instead of pipes.
        """
        return [
            {
                "cluster": c.name,
                "ipc_s": round(c.ipc_s, 4),
                "ser_s": round(c.ser_s, 4),
                "shm_nbytes": c.shm_nbytes,
            }
            for c in self.clusters.values()
        ]

    def fault_rows(self) -> list[dict]:
        """Rows decomposing fault injection and recovery per cluster.

        ``n_retries``/``n_errors``/``bytes_retried`` come off the fetch
        path; ``workers_failed``/``jobs_recovered``/``recovery_s``
        account the crash-containment protocol (dead workers, requeued
        jobs re-executed by survivors, and the compute those
        re-executions cost).  The replica-aware columns prove each rung
        of the robustness ladder fired: ``n_failovers`` (sources
        exhausted and routed around), ``n_hedges``/``hedge_wins``
        (latency-triggered duplicates and how often the backup won),
        ``n_breaker_skips`` (legs refused by their store's breaker),
        ``n_abandoned`` (stuck attempts the timeout walked away from),
        and ``fetch_p95_ms``.  The erasure columns do the same for the
        coding rung: ``n_parity_decodes`` (reassemblies that needed a
        GF/XOR decode because a data fragment lost its race or store)
        and ``wasted_frag_bytes`` (losing fragments fetched anyway).
        """
        return [
            {
                "cluster": c.name,
                "n_retries": c.n_retries,
                "n_errors": c.n_errors,
                "bytes_retried": c.bytes_retried,
                "workers_failed": c.workers_failed,
                "jobs_recovered": c.jobs_recovered,
                "recovery_s": round(c.recovery_s, 4),
                "n_failovers": c.n_failovers,
                "n_hedges": c.n_hedges,
                "hedge_wins": c.hedge_wins,
                "n_breaker_skips": c.n_breaker_skips,
                "n_abandoned": c.n_abandoned,
                "n_parity_decodes": c.n_parity_decodes,
                "wasted_frag_bytes": c.fragments_wasted_bytes,
                "fetch_p95_ms": round(c.fetch_p95_s * 1e3, 3),
            }
            for c in self.clusters.values()
        ]

    def breaker_rows(self) -> list[dict]:
        """Rows for the per-store health/breaker snapshot."""
        return [
            {"store": loc, **snap} for loc, snap in sorted(self.breakers.items())
        ]

    def transfer_rows(self) -> list[dict]:
        """Rows decomposing the WAN transfer layer per cluster.

        ``bytes_wire``/``bytes_logical``/``compress_ratio`` show what
        compression saved on the wire; ``decode_s`` its CPU cost;
        ``effective_bw``/``parts``/``tuner`` report what the AIMD
        autotuner learned about each path (current fan-out per data
        location, grow/backoff decision counts).
        """
        rows = []
        for c in self.clusters.values():
            parts = {
                loc: snap.get("parts") for loc, snap in sorted(c.autotune.items())
            }
            rows.append(
                {
                    "cluster": c.name,
                    "bytes_logical": c.bytes_logical,
                    "bytes_wire": c.bytes_wire,
                    "compress_ratio": round(c.compress_ratio, 4),
                    "decode_s": round(c.decode_s, 4),
                    "effective_bw_mbps": round(c.effective_bw / 1e6, 3),
                    "parts": parts or None,
                    "tuner_grows": sum(
                        s.get("n_grow", 0) for s in c.autotune.values()
                    ),
                    "tuner_backoffs": sum(
                        s.get("n_backoff", 0) for s in c.autotune.values()
                    ),
                }
            )
        return rows

    def pushdown_rows(self) -> list[dict]:
        """One row summarizing metadata-first retrieval for the run.

        ``bytes_pruned`` is wire bytes the head proved it never needed
        (encoded size when the dataset is coded); ``pruned_fraction``
        relates that to the total the run would otherwise have fetched
        (``bytes_wire + bytes_pruned``).  ``n_reordered`` counts
        surviving jobs the ``priority()`` hint moved off chunk-id order.
        """
        would_fetch = self.bytes_wire + self.bytes_pruned
        return [
            {
                "mode": self.pushdown_mode or "off",
                "n_pruned_chunks": self.n_pruned_chunks,
                "bytes_pruned": self.bytes_pruned,
                "bytes_wire": self.bytes_wire,
                "pruned_fraction": (
                    round(self.bytes_pruned / would_fetch, 4) if would_fetch else 0.0
                ),
                "n_reordered": self.n_reordered,
            }
        ]

    def pipeline_rows(self) -> list[dict]:
        """Rows decomposing the prefetch/cache pipeline per cluster.

        ``retrieval_s`` is the residual stall, ``overlap_s`` the fetch
        time hidden under computation; their sum is what a serial
        (non-pipelined) run would have shown as its retrieval bar.
        ``fold_ns_per_byte``/``n_fold_calls``/``n_copies`` expose the
        decode-to-fold hot path: per-byte kernel cost, kernel dispatch
        count (1/chunk on the batch path), and whole-chunk buffer copies
        made after wire reassembly (0 is the zero-copy ideal).
        """
        return [
            {
                "cluster": c.name,
                "retrieval_s": round(c.retrieval_s, 4),
                "overlap_s": round(c.overlap_s, 4),
                "prefetch_hits": c.prefetch_hits,
                "prefetch_misses": c.prefetch_misses,
                "cache_hits": c.cache_hits,
                "cache_misses": c.cache_misses,
                "cache_hit_rate": round(c.cache_hit_rate, 4),
                "fold_s": round(c.fold_s, 4),
                "fold_ns_per_byte": round(c.fold_ns_per_byte, 3),
                "n_fold_calls": c.n_fold_calls,
                "n_copies": c.n_copies,
            }
            for c in self.clusters.values()
        ]
