"""Threaded execution engine: the real, working middleware.

Runs the complete head/master/slave protocol with actual data movement
on one machine: worker threads pull jobs through their master from the
head scheduler, fetch chunk byte ranges (multi-threaded) from whichever
store holds them, fold unit groups into per-worker reduction objects,
and the head performs the final global reduction.

The engine owns no control plane of its own: :meth:`ThreadedEngine.run`
submits one job to a fresh single-job
:class:`~repro.service.BurstingService` and returns its result, so the
service's slave fleet (:class:`~repro.service.slave.ServiceSlave`) is
the one in-process implementation of the protocol.

Two data-pipeline optimizations sit on the fetch path:

* **prefetching** (``prefetch=True``): a worker reserves job *N+1* from
  its master before processing job *N* and retrieves its bytes on a
  background thread, overlapping data movement with computation (the
  double-buffered slave of data-cloud engines like Sector/Sphere);
* a **chunk cache** (``chunk_cache=...``): a shared byte-budgeted LRU
  consulted before any store traffic, so iterative workloads re-reading
  the same remote chunks pay the retrieval cost once.

Both are result-invariant -- a worker folds exactly the same unit groups
in the same order -- and both are accounted in
:class:`~repro.runtime.stats.WorkerStats`
(``overlap_s``, ``prefetch_hits``, ``cache_hits``).

The engine is fault tolerant on the WAN fetch path:

* a **retry policy** (``retry=RetryPolicy(...)``) makes every store
  ``get`` retry transient errors with jittered exponential backoff, so
  a flaky link costs latency, not correctness;
* **worker-crash containment**: a worker killed by the crash-injection
  plan (``crash_plan``) or whose fetch exhausts its retries no longer
  aborts the run.  Its in-flight job goes back to the head via
  :meth:`HeadScheduler.reassign` and is re-executed by a survivor,
  while its partially-folded reduction object -- which already holds
  every job it *completed* -- is preserved and included in the global
  reduction (the cheap robj-checkpoint recovery the Generalized
  Reduction model affords).  Non-retryable errors (a permanent fault,
  a bug in user code) still fail the run.

This engine demonstrates functional correctness of the middleware at any
scale that fits in memory; the discrete-event simulator in
:mod:`repro.sim` executes the same policy code against a resource model
for performance experiments.
"""

from __future__ import annotations

from repro.core.api import GeneralizedReductionSpec
from repro.data.index import DataIndex
from repro.runtime.core import (
    ClusterConfig,
    EngineBase,
    RunResult,
    make_cluster_fetchers,
)

__all__ = [
    "ClusterConfig",
    "RunResult",
    "ThreadedEngine",
    "make_cluster_fetchers",
]


class ThreadedEngine(EngineBase):
    """Multi-cluster, multi-worker threaded executor."""

    def run(self, spec: GeneralizedReductionSpec, index: DataIndex) -> RunResult:
        """Execute ``spec`` over the dataset described by ``index``."""
        from repro.service.service import run_one

        return run_one(self.clusters, self.stores, self.options, spec, index)
