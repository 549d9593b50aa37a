"""Spans recorded from the benchmark's own process, around calls into
each layer's public functions.

Nothing in ``src/`` is edited: the tracer wraps the stores it hands the
service, supplies a timed ``scheduler_factory``, and patches module or
class attributes (``decode_chunk``, ``ParallelFetcher.fetch_chunk``,
``reassemble``, ...) for the duration of the traced phase, restoring
them afterwards.  Every span records wall time and ``time.thread_time``
so a thread waiting for the GIL or a core is not counted as working.

Layers that run inside forked worker processes (fold and decode on the
process transport) are out of reach of these wrappers; the harness
reports them from the ``RunStats`` counters the program returns and
labels them as program counters.
"""

from __future__ import annotations

import itertools
import multiprocessing.process
import multiprocessing.queues
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import repro.runtime.core
import repro.runtime.process_engine
import repro.storage.erasure
import repro.storage.transfer
from repro import HeadScheduler, ParallelFetcher, StorageBackend
from repro.runtime.core import LockMaster
from repro.service.scheduler import MultiJobScheduler
from repro.service.service import ServiceMaster
from repro.storage.shm import SharedSegmentPool
from repro.storage.transfer import PrefetchHandle


@dataclass
class Span:
    layer: str
    #: Serial number of the thread, unique for the process's lifetime
    #: (thread idents are reused once a thread exits).
    thread: int
    t0: float
    t1: float
    cpu_s: float
    #: Layer-specific quantity: bytes, jobs, frame bytes, ...
    n: float = 0.0
    #: Second quantity where a layer needs one (decoded bytes, stolen).
    m: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans while enabled; a disabled tracer costs one check."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.thread_names: dict[int, str] = {}
        self._local = threading.local()
        self._serials = itertools.count()

    def _thread(self) -> int:
        serial = getattr(self._local, "serial", None)
        if serial is None:
            serial = self._local.serial = next(self._serials)
            self.thread_names[serial] = threading.current_thread().name
        return serial

    def timed(
        self,
        layer: str,
        fn: Callable,
        measure: Callable[[tuple, Any], tuple[float, float]] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so each call while enabled records one span.

        ``measure(args, result)`` returns the span's ``(n, m)``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            c0 = time.thread_time()
            result = fn(*args, **kwargs)
            c1 = time.thread_time()
            t1 = time.perf_counter()
            n, m = measure(args, result) if measure is not None else (0.0, 0.0)
            tracer.spans.append(
                Span(layer, tracer._thread(), t0, t1, c1 - c0, n, m)
            )
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class TimedStore(StorageBackend):
    """A store wrapper recording one ``storage.get`` span per GET."""

    def __init__(self, inner: StorageBackend, tracer: Tracer) -> None:
        super().__init__()
        self.inner = inner
        self.location = inner.location
        self.stats = inner.stats
        self._get = tracer.timed(
            "storage.get", inner.get, lambda a, r: (len(r), 0.0)
        )

    def get(self, key: str, offset: int = 0, nbytes: int | None = None) -> bytes:
        return self._get(key, offset, nbytes)

    def put(self, key: str, data: bytes) -> None:
        self.inner.put(key, data)

    def size(self, key: str) -> int:
        return self.inner.size(key)

    def list_keys(self) -> list[str]:
        return self.inner.list_keys()

    def delete(self, key: str) -> None:
        self.inner.delete(key)


def timed_scheduler_factory(tracer: Tracer) -> Callable[[list], HeadScheduler]:
    """A ``scheduler_factory`` whose schedulers time ``request_jobs``.

    A span's ``n`` is the jobs handed out, ``m`` how many of them were
    stolen (data at another site than the requesting cluster).
    """

    class TimedHeadScheduler(HeadScheduler):
        request_jobs = tracer.timed(
            "runtime.scheduler.request",
            HeadScheduler.request_jobs,
            lambda a, jobs: (
                len(jobs),
                sum(1 for j in jobs if j.location != a[1]),
            ),
        )

    return TimedHeadScheduler


def _nbytes(buf) -> int:
    return memoryview(buf).nbytes


@contextmanager
def patched(tracer: Tracer, specs: list) -> Iterator[None]:
    """Install every attribute wrapper; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []

    def patch(owner, name, layer, measure=None, fn=None):
        orig = fn if fn is not None else owner.__dict__[name]
        saved.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, tracer.timed(layer, orig, measure))

    transfer = repro.storage.transfer
    patch(transfer, "decode_chunk", "storage.codecs.decode",
          lambda a, r: (_nbytes(a[0]), _nbytes(r)))
    patch(ParallelFetcher, "fetch_chunk", "storage.transfer.fetch",
          lambda a, r: (a[1].wire_nbytes, 0.0))
    patch(ParallelFetcher, "fetch_into", "storage.transfer.fetch",
          lambda a, r: (a[3], 0.0))
    patch(PrefetchHandle, "result", "storage.transfer.wait")
    patch(repro.storage.erasure, "reassemble", "storage.erasure.reassemble")
    patch(repro.runtime.core, "serialize_robj", "core.serialization",
          lambda a, r: (len(r), 0.0))
    patch(repro.runtime.process_engine, "tree_global_reduction",
          "core.global_reduction")
    patch(ServiceMaster, "get_job", "service.master.get_job")
    patch(ServiceMaster, "complete", "service.master.complete")
    patch(LockMaster, "get_job", "service.master.get_job")
    patch(LockMaster, "complete", "service.master.complete")
    patch(MultiJobScheduler, "request_jobs", "service.multi.request")
    patch(multiprocessing.process.BaseProcess, "start",
          "runtime.process_engine.fork")
    patch(multiprocessing.queues.Queue, "get", "runtime.process_engine.recv")
    patch(SharedSegmentPool, "create", "runtime.process_engine.shm")
    patch(SharedSegmentPool, "release", "runtime.process_engine.shm")
    for spec in specs:
        # Instance attributes: ``supports_batch_fold`` and
        # ``uses_default_global_reduction`` look at the class, so the
        # program still picks the same paths.
        patch(spec, "local_reduction_batch", "apps.fold",
              lambda a, r: (a[1].nbytes, 0.0),
              fn=spec.local_reduction_batch)
        patch(spec, "global_reduction", "core.global_reduction",
              fn=spec.global_reduction)
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False
        for owner, name, orig in reversed(saved):
            if orig is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, orig)


_MISSING = object()
