"""Multi-threaded ranged retrieval.

"Each slave retrieves jobs using multiple retrieval threads, to
capitalize on the fast network interconnects."  Per-connection caps make
a single GET stream slow; splitting a chunk's byte range across parallel
sub-range GETs recovers the aggregate bandwidth.

On top of the ranged fetch this module provides the mechanisms of the
engines' data pipeline:

* an optional :class:`~repro.storage.cache.ChunkCache` consulted before
  any store traffic (cross-iteration reuse);
* :meth:`ParallelFetcher.fetch_async`, which runs a whole fetch on a
  background thread so a worker can overlap the retrieval of its *next*
  job with the processing of the current one (double buffering);
* one fastest-k-of-n race behind :meth:`ParallelFetcher.fetch_chunk`
  that retrieves every redundancy shape: a single copy is (1, 1), a
  replica set is k=1 over whole copies, and an erasure stripe is
  (k, k+m) followed by reassembly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.storage import erasure
from repro.storage.autotune import AimdAutotuner
from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache
from repro.storage.codecs import Buffer, CodecError, decode_chunk
from repro.storage.faults import PermanentStorageError
from repro.storage.health import HealthRegistry, HedgePolicy
from repro.storage.retry import RetryExhausted, RetryPolicy

__all__ = [
    "split_range",
    "FAILOVER_ERRORS",
    "FetchInfo",
    "PrefetchHandle",
    "ParallelFetcher",
]

#: Errors that exhaust one replica source and send the fetch to the
#: next one.  Anything else (bugs, corruption) still fails fast.
FAILOVER_ERRORS: tuple[type[BaseException], ...] = (
    RetryExhausted,
    PermanentStorageError,
    KeyError,
    ConnectionError,
    TimeoutError,
)

#: Default floor on parallel sub-range size: below this a GET is all
#: request overhead, so ranges are coalesced rather than shattered.
DEFAULT_MIN_PART_NBYTES = 4096


def split_range(
    offset: int, nbytes: int, n_parts: int, min_part_nbytes: int = 0
) -> list[tuple[int, int]]:
    """Split byte range ``[offset, offset+nbytes)`` into ``n_parts`` slices.

    Returns ``(offset, nbytes)`` pairs; sizes differ by at most one byte
    and empty slices are dropped (when ``n_parts > nbytes``).

    ``min_part_nbytes`` puts a floor under the slice size: the part
    count is reduced (coalescing neighbours) until every emitted slice
    holds at least that many bytes -- except when the whole range is
    smaller than the floor, which yields the single full range.
    """
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if min_part_nbytes < 0:
        raise ValueError("min_part_nbytes must be non-negative")
    if min_part_nbytes > 0 and nbytes > 0:
        n_parts = min(n_parts, max(1, nbytes // min_part_nbytes))
    base, extra = divmod(nbytes, n_parts)
    parts: list[tuple[int, int]] = []
    pos = offset
    for i in range(n_parts):
        size = base + (1 if i < extra else 0)
        if size:
            parts.append((pos, size))
        pos += size
    return parts


@dataclass
class FetchInfo:
    """Accounting for one chunk fetch through :meth:`ParallelFetcher.fetch_chunk`.

    ``bytes_wire`` is what actually crossed the store connection (the
    encoded size for compressed chunks, zero on a cache hit);
    ``bytes_logical`` the decoded chunk size handed to the worker;
    ``decode_s`` the frame-decode time, kept separate from fetch time.
    ``n_copies`` counts whole-chunk buffer copies made *after* wire
    reassembly -- codec inflations that materialize new bytes, copies
    into shared-memory segments, cache-hit copies into caller buffers.
    Zero means the fold kernel aliased the fetched (or cached, or
    mapped) bytes directly; the hot-path work drives this to zero for
    the identity codec on every engine.
    """

    cache_hit: bool = False
    bytes_wire: int = 0
    bytes_logical: int = 0
    decode_s: float = 0.0
    n_copies: int = 0
    # Race accounting: wall seconds from the race's start to its k-th
    # win (decode excluded), how many legs failed, how many hedge
    # backups launched, and whether a hedge-launched leg won.
    fetch_s: float = 0.0
    n_failovers: int = 0
    n_hedges: int = 0
    hedge_wins: int = 0
    # Erasure-striped retrieval: how many fragments fed the reassembly
    # (k for a striped chunk, 0 otherwise) and whether reconstruction
    # needed a parity decode (some data fragment lost the race or its
    # store).
    n_fragments: int = 0
    n_parity_decodes: int = 0


class _Leg(NamedTuple):
    """One place a race can fetch from: a whole copy or one fragment."""

    location: str
    key: str
    offset: int
    nbytes: int
    frag_index: int | None = None  # None: a whole copy of the wire frame


def _legs_for(chunk) -> tuple[list[_Leg], int]:
    """A chunk as a (k, n) race: its legs, primary first, and k.

    A single copy is (1, 1), a replica set (1, r), an erasure stripe
    (k, k+m).  The only reader of ``chunk.sources``/``chunk.fragments``
    on the fetch path.
    """
    if chunk.fragments:
        k, _ = chunk.stripe
        frags = sorted(chunk.fragments, key=lambda f: f.frag_index)
        if len(frags) < k:
            raise erasure.ErasureError(
                f"chunk {chunk.chunk_id}: {len(frags)} fragments recorded, "
                f"need at least k={k}"
            )
        return [_Leg(f.location, f.key, 0, f.nbytes, f.frag_index) for f in frags], k
    if chunk.codec is None:
        return [
            _Leg(s.location, s.key, chunk.offset, chunk.nbytes)
            for s in chunk.sources
        ], 1
    return [
        _Leg(
            s.location,
            s.key,
            chunk.enc_offset if s.enc_offset is None else s.enc_offset,
            chunk.enc_nbytes if s.enc_nbytes is None else s.enc_nbytes,
        )
        for s in chunk.sources
    ], 1


def _sequential(legs: list[_Leg], k: int, hedge: HedgePolicy | None) -> bool:
    """Does this race run one leg at a time on the calling thread?"""
    return k == 1 and (len(legs) == 1 or hedge is None)


class _Refused(Exception):
    """A leg's store breaker refused it when the leg started."""


def _run_inline(fn, *args) -> Future:
    """``Executor.submit`` for sequential races: run now, return a done future."""
    f: Future = Future()
    try:
        f.set_result(fn(*args))
    except Exception as exc:
        f.set_exception(exc)
    return f


def _get_leg(fetcher: "ParallelFetcher", leg: _Leg) -> tuple[Buffer, FetchInfo]:
    """Default leg body: the leg's byte range as a buffer."""
    data, hit = fetcher.fetch_with_info(leg.key, leg.offset, leg.nbytes)
    return data, FetchInfo(cache_hit=hit, bytes_wire=0 if hit else leg.nbytes)


class PrefetchHandle:
    """One in-flight asynchronous fetch.

    ``fetch_s`` (wall seconds the fetch spent, frame decode excluded)
    and ``info`` (its :class:`FetchInfo`) are populated by the
    background thread and are valid once ``done()`` returns True or
    ``result()`` has returned.
    """

    __slots__ = ("_future", "fetch_s", "info")

    def __init__(self) -> None:
        self._future: Future = Future()
        self.fetch_s = 0.0
        self.info = FetchInfo()

    @property
    def cache_hit(self) -> bool:
        return self.info.cache_hit

    def done(self) -> bool:
        return self._future.done()

    def result(self) -> bytes:
        """Block until the fetch completes; re-raises fetch errors."""
        return self._future.result()

    def cancel(self) -> None:
        """Cancel if not started; otherwise absorb the outcome."""
        if not self._future.cancel():
            try:
                self._future.result()
            except BaseException:
                pass


class ParallelFetcher:
    """Fetch byte ranges from a store with ``n_threads`` connections.

    ``cache`` (a shared :class:`ChunkCache`) short-circuits fetches of
    ranges already resident; ``prefetch_workers`` sizes the background
    pool serving :meth:`fetch_async` (lazily created on first use).

    ``retry`` (a :class:`~repro.storage.retry.RetryPolicy`) makes every
    store ``get`` -- including each parallel sub-range -- retry
    transient errors with backoff instead of failing the whole fetch.
    A failing sub-range therefore no longer cancels its siblings unless
    it exhausts the policy.  Retries are counted on the fetcher
    (``n_retries``/``n_giveups``/``bytes_retried``) and mirrored into
    the backend's :class:`~repro.storage.base.StorageStats`.

    Redundant chunks (replicas or erasure stripes) are fetched by one
    fastest-k-of-n race (:meth:`fetch_chunk`).  ``siblings`` maps the
    run's other locations to their fetchers, so each leg is fetched by
    the fetcher owning its store; a shared
    :class:`~repro.storage.health.HealthRegistry` orders the legs and
    gates them through their store's circuit breaker, and a
    :class:`~repro.storage.health.HedgePolicy` launches backups for
    legs still in flight past the adaptive threshold.
    """

    def __init__(
        self,
        store: StorageBackend,
        n_threads: int = 1,
        *,
        cache: ChunkCache | None = None,
        prefetch_workers: int = 1,
        retry: RetryPolicy | None = None,
        autotune: AimdAutotuner | None = None,
        min_part_nbytes: int = DEFAULT_MIN_PART_NBYTES,
        health: HealthRegistry | None = None,
        hedge: HedgePolicy | None = None,
    ) -> None:
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if prefetch_workers <= 0:
            raise ValueError("prefetch_workers must be positive")
        self.store = store
        self.n_threads = n_threads
        self.cache = cache
        self.prefetch_workers = prefetch_workers
        self.retry = retry
        self.autotune = autotune
        self.min_part_nbytes = min_part_nbytes
        self.health = health
        self.hedge = hedge
        #: location -> fetcher for the run's other stores; set by
        #: ``make_cluster_fetchers`` so each leg routes to the fetcher
        #: that owns its store (with its own pool/autotuner).
        self.siblings: dict[str, "ParallelFetcher"] = {store.location: self}
        self.n_retries = 0
        self.n_giveups = 0
        self.bytes_retried = 0
        self.n_breaker_skips = 0
        self.n_abandoned = 0
        #: Bytes of losing legs that completed anyway (fetched but
        #: unused); fetcher-level only, rolled up after close() since
        #: losers land after their fetch returns.
        self.fragments_wasted_bytes = 0
        #: per-winning-leg wall seconds from the start of its race to
        #: the leg's arrival (decode and cache hits excluded) -- the
        #: sample pool for p95 fetch latency.
        self.fetch_latencies: list[float] = []
        self._counter_lock = threading.Lock()
        self._hedge_pool: ThreadPoolExecutor | None = None
        pool_workers = n_threads
        if autotune is not None:
            pool_workers = max(pool_workers, autotune.params.max_parts)
        self._pool = (
            ThreadPoolExecutor(max_workers=pool_workers, thread_name_prefix="fetch")
            if pool_workers > 1
            else None
        )
        self._prefetch_pool: ThreadPoolExecutor | None = None

    def _plan_parts(self, nbytes: int) -> int:
        """Sub-range fan-out for a fetch of ``nbytes``; 1 means one GET."""
        if self._pool is None:
            return 1
        if self.autotune is not None:
            n = self.autotune.parts_for(nbytes)
        else:
            n = self.n_threads
            if self.min_part_nbytes > 0 and nbytes > 0:
                n = min(n, max(1, nbytes // self.min_part_nbytes))
        return n if nbytes >= n else 1

    def fetch(self, key: str, offset: int = 0, nbytes: int | None = None) -> Buffer:
        """Retrieve ``[offset, offset+nbytes)`` of ``key``, reassembled in order.

        Returns a bytes-like buffer: ``bytes`` for single-connection
        fetches, a ``bytearray`` assembled in place for parallel ones
        (no join copy), or a read-only ``memoryview`` on a cache hit.
        """
        data, _ = self.fetch_with_info(key, offset, nbytes)
        return data

    def fetch_with_info(
        self, key: str, offset: int = 0, nbytes: int | None = None
    ) -> tuple[Buffer, bool]:
        """Like :meth:`fetch`, also reporting whether the cache served it."""
        if nbytes is None:
            nbytes = self.store.size(key) - offset
        location = self.store.location
        if self.cache is not None:
            cached = self.cache.get(location, key, offset, nbytes)
            if cached is not None:
                return cached, True
        data = self._fetch_direct(key, offset, nbytes)
        if self.cache is not None:
            self.cache.put(location, key, offset, nbytes, data)
        return data, False

    def fetch_chunk(self, chunk) -> tuple[Buffer, FetchInfo]:
        """Fetch one index chunk's *logical* bytes, decoding if encoded.

        ``chunk`` is a :class:`~repro.data.chunks.ChunkInfo`.  Every
        shape -- one copy, a replica set, an erasure stripe -- is one
        :meth:`_race` over the chunk's legs; a stripe's ``k`` winning
        fragments then reassemble into one contiguous frame.  For
        chunks the organizer wrote pre-compressed the *encoded* range
        is what travels the wire (sub-range splitting, retries, and the
        cache all operate on encoded bytes); the frame is decoded once,
        after the race, and checked against the index's logical size.
        Returns the decoded bytes plus a :class:`FetchInfo` with
        wire/logical/decode/copy and race accounting.

        Zero-copy: the returned buffer aliases the fetched (or cached)
        bytes whenever the codec allows -- identity-codec frames decode
        to a read-only view over the frame itself, so ``n_copies`` is 0;
        only transforms that inflate (zlib/lz4/shuffle) materialize one
        new buffer, and a stripe's reassembly is one more.
        """
        legs, k = _legs_for(chunk)
        wins, info = self._race(legs, k, _get_leg, hedge=self.hedge)
        t0 = time.monotonic()
        if wins[0][0].frag_index is None:
            frame = wins[0][1]
        else:
            frame = bytearray(chunk.wire_nbytes)
            _, used_parity = erasure.reassemble(
                {leg.frag_index: data for leg, data in wins},
                k, chunk.stripe[1], chunk.wire_nbytes, out=frame,
            )
            info.n_copies += 1  # fragments gathered into one contiguous frame
            info.n_fragments = k
            info.n_parity_decodes = int(used_parity)
        data = frame
        if chunk.codec is not None:
            data = decode_chunk(frame)
            if chunk.codec != "identity":
                info.n_copies += 1  # the inflate materialized new bytes
            n = memoryview(data).nbytes
            if n != chunk.nbytes:
                raise CodecError(
                    f"chunk {chunk.chunk_id}: decoded {n} bytes, "
                    f"index says {chunk.nbytes}"
                )
        info.decode_s = time.monotonic() - t0
        info.bytes_logical = chunk.nbytes
        return data, info

    def can_fetch_into(self, chunk) -> bool:
        """Can :meth:`fetch_chunk_into` land this chunk in one buffer?

        Only when its legs are whole copies raced one at a time (one
        source, or no hedge policy): hedged legs race concurrently and
        a stripe needs reassembly, so neither can share a destination.
        """
        legs, k = _legs_for(chunk)
        return legs[0].frag_index is None and _sequential(legs, k, self.hedge)

    def fetch_chunk_into(self, chunk, out) -> FetchInfo:
        """Fetch a chunk's *wire* frame straight into ``out``.

        The shared-memory handoff path: the same race as
        :meth:`fetch_chunk`, with every leg a :meth:`fetch_into` on the
        fetcher owning its store, so failover, breakers and health all
        apply.  Nothing is decoded -- ``out`` receives the encoded frame
        of a compressed chunk.  See :meth:`can_fetch_into`.
        """
        if not self.can_fetch_into(chunk):
            raise ValueError(
                f"chunk {chunk.chunk_id} races concurrent legs; use fetch_chunk"
            )

        def into(fetcher: "ParallelFetcher", leg: _Leg) -> tuple[Buffer, FetchInfo]:
            _, info = fetcher.fetch_into(leg.key, leg.offset, leg.nbytes, out)
            return out, info

        _, info = self._race(*_legs_for(chunk), into, hedge=None)
        info.bytes_logical = chunk.nbytes
        return info

    def _route(self, leg: _Leg) -> "ParallelFetcher":
        """The fetcher owning ``leg``'s store (self for the primary)."""
        try:
            return self.siblings[leg.location]
        except KeyError:
            raise KeyError(
                f"no fetcher for leg location {leg.location!r} "
                f"(have {sorted(self.siblings)})"
            ) from None

    def _hedge_pool_lazy(self) -> ThreadPoolExecutor:
        if self._hedge_pool is None:
            # Legs must never queue behind one another: a stalled leg
            # holding the last slot would block the very backup
            # launched to escape it, making hedging *worse* than not
            # hedging.  The executor spawns threads on demand (never
            # while one sits idle), so the generous cap costs nothing
            # on quiet runs.
            self._hedge_pool = ThreadPoolExecutor(
                max_workers=32, thread_name_prefix="hedge"
            )
        return self._hedge_pool

    def _run_leg(
        self, leg: _Leg, ask: bool, body: Callable
    ) -> tuple[Buffer, FetchInfo]:
        """Run one leg on the fetcher owning its store, recording health.

        ``ask`` consults the store's breaker as the leg starts (so a leg
        cancelled while queued never holds a half-open probe slot).
        """
        health = self.health
        if ask and health is not None and not health.health(leg.location).allow():
            raise _Refused(leg.location)
        t0 = time.monotonic()
        try:
            data, info = body(self._route(leg), leg)
        except FAILOVER_ERRORS:
            if health is not None:
                health.record_failure(leg.location)
            raise
        if health is not None:
            health.record_success(
                leg.location, None if info.cache_hit else time.monotonic() - t0
            )
        return data, info

    def _rank(self, legs: list[_Leg], k: int) -> list[_Leg]:
        """Launch order: data before parity, then breaker rank, primary first."""
        rank: dict[str, int] = {}
        if self.health is not None:
            locs = list(dict.fromkeys(leg.location for leg in legs))
            rank = {loc: i for i, loc in enumerate(self.health.order(locs))}
        return sorted(
            legs,
            key=lambda leg: ((leg.frag_index or 0) >= k, rank.get(leg.location, 0)),
        )

    def _fastest_ewma(self, legs) -> float:
        """Smallest known latency EWMA among the stores of ``legs``."""
        if self.health is None:
            return 0.0
        return min(
            (
                e
                for leg in legs
                if (e := self.health.health(leg.location).latency_ewma_s) > 0.0
            ),
            default=0.0,
        )

    def _race(
        self, legs: list[_Leg], k: int, body: Callable, *, hedge: HedgePolicy | None
    ) -> tuple[list[tuple[_Leg, Buffer]], FetchInfo]:
        """Fastest-k-of-n retrieval: the one race every chunk shape runs.

        The ``k`` cheapest legs (:meth:`_rank`) launch first.  A leg that
        fails triggers the next one (failover).  A leg refused by its
        store's breaker goes to the back of the queue and the next one
        takes its place; refused legs run, unasked, only once nothing
        else is left, and the last candidate is never asked.  With a
        ``hedge`` policy, a race whose legs are still in flight past
        ``hedge.threshold_s`` of the smallest latency EWMA among the
        stores racing (legs in flight or already won) launches a backup,
        up to ``max_hedges``.  The first ``k`` completions win; losers
        are cancelled when still queued, otherwise absorbed, their bytes
        credited to ``fragments_wasted_bytes``.  Races that need no
        concurrency (:func:`_sequential`) run inline on the calling
        thread.

        Raises the last failover error when fewer than ``k`` legs can
        succeed; any other error fails fast.  Returns the ``k`` winning
        ``(leg, data)`` pairs and a :class:`FetchInfo` carrying the
        winners' cache/wire/copy accounting plus the race counters.
        """
        queue = deque((leg, True) for leg in self._rank(legs, k))
        submit: Callable[..., Future] = _run_inline
        if not _sequential(legs, k, hedge):
            submit = self._hedge_pool_lazy().submit
        inflight: dict[Future, tuple[_Leg, bool]] = {}
        wins: list[tuple[_Leg, Buffer, FetchInfo]] = []
        n_hedges = failures = skips = wasted = 0
        hedge_won = False
        last_exc: BaseException | None = None
        latencies: list[float] = []
        t_start = time.monotonic()

        def launch(as_hedge: bool = False) -> None:
            leg, ask = queue.popleft()
            f = submit(self._run_leg, leg, ask and bool(queue), body)
            inflight[f] = (leg, as_hedge)

        def settle() -> None:
            for f, (leg, _) in inflight.items():
                if not f.cancel():
                    f.add_done_callback(
                        lambda fut, nb=leg.nbytes: self._credit_loser(fut, nb)
                    )
            with self._counter_lock:
                self.n_breaker_skips += skips
                self.fragments_wasted_bytes += wasted

        while True:
            while len(inflight) + len(wins) < k and queue:
                launch()  # the k cheapest legs, then backfill failed ones
            if len(inflight) + len(wins) < k:
                settle()
                assert last_exc is not None  # _legs_for yields at least k legs
                raise last_exc
            can_hedge = (
                hedge is not None and bool(queue) and n_hedges < hedge.max_hedges
            )
            timeout = None
            if can_hedge:
                # Judge laggards by the fastest store racing this chunk
                # (in flight or already won): a stripe completes at the
                # k-th order statistic, so its quickest sibling sets the
                # clock; a lone replica leg is judged by its own store.
                raced = [leg for leg, _ in inflight.values()]
                raced += [leg for leg, _, _ in wins]
                timeout = hedge.threshold_s(self._fastest_ewma(raced))
            done, _ = wait(inflight, timeout=timeout, return_when=FIRST_COMPLETED)
            for f in done:
                leg, as_hedge = inflight.pop(f)
                exc = f.exception()
                if exc is None:
                    data, info = f.result()
                    if len(wins) == k:
                        wasted += leg.nbytes
                        continue
                    wins.append((leg, data, info))
                    hedge_won |= as_hedge
                    if not info.cache_hit:
                        latencies.append(time.monotonic() - t_start)
                elif isinstance(exc, _Refused):
                    skips += 1
                    queue.append((leg, False))
                    launch(as_hedge)  # the next candidate takes its place
                elif isinstance(exc, FAILOVER_ERRORS):
                    last_exc = exc
                    failures += 1
                else:
                    settle()  # bugs/corruption fail fast
                    raise exc
            if len(wins) == k:
                break
            if not done and can_hedge:
                n_hedges += 1
                launch(as_hedge=True)
        fetch_s = time.monotonic() - t_start
        settle()
        with self._counter_lock:
            self.fetch_latencies.extend(latencies)
        info = FetchInfo(
            cache_hit=all(i.cache_hit for _, _, i in wins),
            bytes_wire=sum(i.bytes_wire for _, _, i in wins),
            n_copies=sum(i.n_copies for _, _, i in wins),
            fetch_s=fetch_s,
            n_failovers=failures,
            n_hedges=n_hedges,
            hedge_wins=int(hedge_won),
        )
        return [(leg, data) for leg, data, _ in wins], info

    def _credit_loser(self, fut: Future, nbytes: int) -> None:
        """Done-callback of an absorbed loser: count its bytes as wasted."""
        if fut.cancelled() or fut.exception() is not None:
            return
        with self._counter_lock:
            self.fragments_wasted_bytes += nbytes

    def _get_with_retry(self, key: str, offset: int, nbytes: int) -> bytes:
        """One store ``get`` under the retry policy, with accounting."""
        if self.retry is None:
            return self.store.get(key, offset, nbytes)

        def on_retry(_exc: BaseException, _attempt: int) -> None:
            with self._counter_lock:
                self.n_retries += 1
                self.bytes_retried += nbytes
            self.store.stats.record_retry(nbytes)

        def on_abandon() -> None:
            with self._counter_lock:
                self.n_abandoned += 1
            self.store.stats.record_abandoned()

        try:
            return self.retry.call(
                lambda: self.store.get(key, offset, nbytes),
                token=f"{key}@{offset}+{nbytes}",
                on_retry=on_retry,
                on_abandon=on_abandon,
            )
        except RetryExhausted:
            with self._counter_lock:
                self.n_giveups += 1
            self.store.stats.record_error()
            raise
        except Exception:
            self.store.stats.record_error()
            raise

    def fetch_into(
        self, key: str, offset: int, nbytes: int, out
    ) -> tuple[int, FetchInfo]:
        """Fetch a range directly into a writable buffer; returns
        ``(nbytes, FetchInfo)``.

        This is the shared-memory handoff path: ``out`` is typically a
        :class:`~repro.storage.shm.SharedSegment` buffer, and each
        parallel sub-range GET writes into its slice of ``out`` -- the
        reassembly ``join`` (a full extra copy of the chunk) never
        happens.  With a cache attached the cached/evictable value must
        remain an independent buffer, so that path copies once from the
        cache entry into ``out`` (counted in ``FetchInfo.n_copies``).
        """
        view = memoryview(out).cast("B")
        if view.readonly:
            raise ValueError("fetch_into needs a writable buffer")
        if view.nbytes < nbytes:
            raise ValueError(
                f"buffer of {view.nbytes} bytes cannot hold {nbytes}-byte fetch"
            )
        if self.cache is not None:
            data, hit = self.fetch_with_info(key, offset, nbytes)
            view[:nbytes] = data
            return nbytes, FetchInfo(
                cache_hit=hit,
                bytes_wire=0 if hit else nbytes,
                bytes_logical=nbytes,
                n_copies=1,
            )
        self._fetch_direct(key, offset, nbytes, view)
        return nbytes, FetchInfo(bytes_wire=nbytes, bytes_logical=nbytes)

    def _fetch_direct(
        self, key: str, offset: int, nbytes: int, out: memoryview | None = None
    ) -> Buffer:
        """GET ``[offset, offset+nbytes)`` from the store.

        Parallel sub-range GETs each write their own slice of ``out`` (a
        fresh ``bytearray`` when ``None``) in place, so no reassembly
        ``join`` ever copies the range; a single GET with no ``out``
        hands back the store's own bytes, no copy at all.
        """
        n_parts = self._plan_parts(nbytes)
        parts = [(offset, nbytes)]
        if n_parts > 1:
            parts = split_range(offset, nbytes, n_parts, self.min_part_nbytes)
        t0 = time.monotonic()
        if len(parts) == 1 and out is None:
            data: Buffer = self._get_with_retry(key, offset, nbytes)
        elif len(parts) == 1:
            data = out  # one GET, copied into the caller's buffer
            self._get_part_into(key, offset, nbytes, out[:nbytes])
        else:
            assert self._pool is not None  # _plan_parts gives 1 without one
            data = bytearray(nbytes) if out is None else out
            view = memoryview(data)
            futures = [
                self._pool.submit(
                    self._get_part_into, key, off, n,
                    view[off - offset : off - offset + n],
                )
                for off, n in parts
            ]
            # Each sub-range retries transient errors internally (when a
            # policy is set), so only an *exhausted or non-retryable*
            # part raises here.  Collect in part order so such a failure
            # surfaces the earliest failing sub-range deterministically;
            # then cancel the queued siblings and absorb the running
            # ones rather than leaving them racing the pool shutdown.
            try:
                for f in futures:
                    f.result()
            except BaseException:
                for f in futures:
                    f.cancel()
                wait(futures)
                raise
        if self.autotune is not None:
            self.autotune.record(nbytes, len(parts), time.monotonic() - t0)
        return data

    def _get_part_into(self, key: str, offset: int, nbytes: int, dest) -> None:
        dest[:] = self._get_with_retry(key, offset, nbytes)

    def _prefetch(
        self, fetch: Callable[[], tuple[Buffer, FetchInfo]]
    ) -> PrefetchHandle:
        """Run ``fetch`` on the prefetch pool behind a :class:`PrefetchHandle`."""
        if self._prefetch_pool is None:
            self._prefetch_pool = ThreadPoolExecutor(
                max_workers=self.prefetch_workers, thread_name_prefix="prefetch"
            )
        handle = PrefetchHandle()

        def work() -> None:
            if not handle._future.set_running_or_notify_cancel():
                return
            t0 = time.monotonic()
            try:
                data, handle.info = fetch()
            except BaseException as exc:
                handle.fetch_s = time.monotonic() - t0
                handle._future.set_exception(exc)
                return
            handle.fetch_s = time.monotonic() - t0 - handle.info.decode_s
            handle._future.set_result(data)

        self._prefetch_pool.submit(work)
        return handle

    def fetch_async(
        self, key: str, offset: int = 0, nbytes: int | None = None
    ) -> PrefetchHandle:
        """Start a fetch on a background thread and return its handle.

        The handle's ``result()`` blocks until the bytes are available;
        ``fetch_s``/``cache_hit`` record how long the fetch actually ran
        and whether the cache served it, which the engine uses to
        account overlapped (hidden) retrieval time.
        """

        def fetch() -> tuple[Buffer, FetchInfo]:
            data, hit = self.fetch_with_info(key, offset, nbytes)
            return data, FetchInfo(cache_hit=hit)

        return self._prefetch(fetch)

    def fetch_chunk_async(self, chunk) -> PrefetchHandle:
        """Chunk-aware :meth:`fetch_async`: decodes on the background
        thread and carries the fetch's :class:`FetchInfo` on the handle,
        so decode time of prefetched chunks is overlapped (and reported)
        too."""
        return self._prefetch(lambda: self.fetch_chunk(chunk))

    def close(self) -> None:
        if self._prefetch_pool is not None:
            self._prefetch_pool.shutdown(wait=True)
            self._prefetch_pool = None
        if self._hedge_pool is not None:
            self._hedge_pool.shutdown(wait=True)
            self._hedge_pool = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelFetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
