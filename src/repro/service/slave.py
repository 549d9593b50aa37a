"""The fleet slave: the one in-process worker loop.

Each :class:`ServiceSlave` is one long-lived worker thread of a
:class:`~repro.service.service.BurstingService` fleet.  It pulls
run-tagged jobs through its cluster's master, fetches chunk bytes
(synchronously, or double-buffered when ``options.prefetch``), decodes
and folds them into the reduction object of the run the job belongs
to, and accounts every second and byte in that run's
:class:`~repro.runtime.stats.WorkerStats` row.  A single-job service --
what :class:`~repro.runtime.engine.ThreadedEngine` and
:class:`~repro.bursting.session.BurstingSession` run on -- is the same
loop serving one run.

Fault semantics are part of the loop:

* the crash-injection plan raises :class:`WorkerCrash` at the
  configured job count; both injected crashes and retry-exhausted
  fetches are *contained* -- the worker's in-flight jobs (current and
  reserved-next) go back to the head, its partially folded reduction
  objects stay registered with their runs (each holds exactly the jobs
  it completed, so folding it plus re-executing the requeued jobs
  yields every job exactly once), and the fleet continues on the
  survivors;
* a non-recoverable error (a permanent fault, a bug in user code) fails
  the run that owns the job, not the worker: the slave re-enters its
  loop and keeps serving every other run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.reduction_object import ReductionObject
from repro.data.units import iter_unit_groups
from repro.runtime.core import (
    ClusterConfig,
    EngineOptions,
    MasterPort,
    account_fetch_info,
)
from repro.runtime.jobs import Job
from repro.runtime.stats import WorkerStats
from repro.storage.faults import WorkerCrash
from repro.storage.retry import RetryExhausted
from repro.storage.transfer import ParallelFetcher, PrefetchHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import BurstingService, _RunEntry

__all__ = ["ServiceSlave"]


@dataclass
class _WorkerCtx:
    """One worker's per-run fold context (reduction object + stats)."""

    entry: "_RunEntry"
    wstats: WorkerStats
    robj: ReductionObject


class ServiceSlave:
    """A fleet worker folding into whichever run its assignment names.

    The job's ``run_id`` resolves the spec, index, fetchers, the
    worker's ``WorkerStats`` row, and its reduction object for that
    run.  The row exists from the run's admission; the reduction object
    is created (and registered with the run) on the worker's first job
    of the run, so a crashed worker's partial folds are preserved.
    """

    def __init__(
        self,
        name: str,
        *,
        service: "BurstingService",
        cluster: ClusterConfig,
        port: MasterPort,
        options: EngineOptions,
        stop: threading.Event,
    ) -> None:
        self.name = name
        self.service = service
        self.cluster = cluster
        self.port = port
        self.options = options
        self.stop = stop
        self.crash_after = options.crash_plan.get(name)
        #: False once the worker died; later runs get no row for it.
        self.alive = True
        self._jobs_done = 0
        self._ctxs: dict[str, _WorkerCtx] = {}

    def _ctx(self, job: Job) -> _WorkerCtx:
        """This worker's fold context for ``job``'s run."""
        ctx = self._ctxs.get(job.run_id)
        if ctx is None:
            ctx = self.service._open_worker_ctx(
                job.run_id, self.name, self.cluster.name
            )
            self._ctxs[job.run_id] = ctx
        return ctx

    def _fetcher(self, job: Job) -> ParallelFetcher:
        return self._ctx(job).entry.fetchers[self.cluster.name][job.location]

    # -- steps ---------------------------------------------------------------

    def _maybe_crash(self) -> None:
        if self.crash_after is not None and self._jobs_done >= self.crash_after:
            raise WorkerCrash(
                f"injected crash in {self.name} after {self._jobs_done} jobs"
            )

    def _fetch_now(self, job: Job) -> bytes:
        """Synchronous fetch of one job's bytes, fully accounted as stall."""
        w = self._ctx(job).wstats
        t0 = time.monotonic()
        raw, info = self._fetcher(job).fetch_chunk(job.chunk)
        w.retrieval_s += time.monotonic() - t0 - info.decode_s
        account_fetch_info(w, info)
        return raw

    def _await_prefetch(self, pending: PrefetchHandle, job: Job) -> bytes:
        """Collect an in-flight prefetch, splitting stall from overlap."""
        w = self._ctx(job).wstats
        ready = pending.done()
        t_need = time.monotonic()
        raw = pending.result()
        stall = time.monotonic() - t_need
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
        call over the whole chunk when the run allows it, else the
        per-unit-group loop.  A decode/fold/verify error fails that run
        only.
        """
        ctx = self._ctx(job)
        entry = ctx.entry
        spec = entry.spec
        try:
            if self.options.verify_chunks:
                from repro.data.integrity import verify_chunk_bytes

                verify_chunk_bytes(job.chunk, raw)
            t0 = time.monotonic()
            units = entry.index.fmt.decode(raw)
            t1 = time.monotonic()
            if entry.batch_fold:
                spec.local_reduction_batch(ctx.robj, units)
                n_folds = 1
            else:
                n_folds = 0
                for group in iter_unit_groups(units, entry.group_units):
                    spec.local_reduction(ctx.robj, group)
                    n_folds += 1
            t2 = time.monotonic()
        except Exception as exc:
            self.service._fail_worker_jobs(exc, [job])
            return
        elapsed = t2 - t0
        w = ctx.wstats
        w.processing_s += elapsed
        w.fold_s += t2 - t1
        w.bytes_folded += units.nbytes
        w.n_fold_calls += n_folds
        w.jobs_processed += 1
        if job.location != self.cluster.location:
            w.jobs_stolen += 1
        self._jobs_done += 1
        # Stamp the per-run finish time before the head can observe the
        # completion (the finalizer may run the instant complete lands).
        w.finished_at = time.monotonic() - entry.t0
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
        """Absorb this worker's death without failing any run.

        The death is recorded in the run(s) whose assignments it held
        and its clock closed in every live run it served -- before the head
        hears of it, since the requeue may let a run finalize.  Then
        the in-flight jobs (current and reserved-next) return to the
        head; if it was its cluster's last worker, the master's pooled
        jobs go back too.
        """
        if pending is not None:
            pending.cancel()
        self.alive = False
        requeue: list[Job] = []
        for j in inflight:
            if j is not None and all(j.job_id != q.job_id for q in requeue):
                self._ctx(j).wstats.failed = True
                requeue.append(j)
        now = time.monotonic()
        for ctx in self._ctxs.values():
            if ctx.entry.live:
                ctx.wstats.finished_at = now - ctx.entry.t0
        requeue.extend(self.port.worker_died())
        self.port.requeue(requeue)

    # -- the loop ------------------------------------------------------------

    def run(self) -> None:
        """Serve jobs until the fleet stops or this worker dies.

        A non-recoverable error fails the run owning the in-flight jobs
        and the loop resumes; a contained crash ends the worker.
        """
        while self._serve():
            pass

    def _serve(self) -> bool:
        """One pass of the loop; True when it should be re-entered."""
        pending: PrefetchHandle | None = None
        # Containment bookkeeping: the job being fetched/processed and
        # the reserved-next job whose prefetch is in flight.  Both are
        # outstanding at the head until completed, so both must be
        # requeued if this worker dies.
        cur_job: Job | None = None
        next_job: Job | None = None
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
                            pending = self._fetcher(next_job).fetch_chunk_async(
                                next_job.chunk
                            )
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
            return False
        except (WorkerCrash, RetryExhausted):
            # Recoverable: this worker is lost, the runs are not.
            self._contain_failure([cur_job, next_job], pending)
            pending = None
            return False
        except BaseException as exc:
            # Anything else -- even SystemExit from user code -- fails
            # the owning run; letting it end the thread would strand the
            # run's outstanding jobs and hang its handle.
            self.service._fail_worker_jobs(
                exc, [j for j in (cur_job, next_job) if j is not None]
            )
            return True
        finally:
            if pending is not None:
                pending.cancel()
