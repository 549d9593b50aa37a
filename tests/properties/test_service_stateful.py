"""Stateful property tests over one :class:`BurstingService`.

Hypothesis drives interleavings of submissions (wordcount or kmeans,
for one of two tenants), cancellations and a final shutdown against a
service whose fleet may carry an injected worker crash and whose
replicated dataset may have one replica store hard-down.  Whatever the
interleaving:

* every handle is terminal once the service is shut down;
* a DONE run equals the sequential oracle -- bit-identical for
  wordcount, to accumulation-order tolerance for kmeans;
* a DONE run folded every chunk exactly once (``jobs_processed ==
  chunks``);
* no ``svc-*`` thread outlives the shutdown, and shutting down twice
  is harmless.
"""

import functools
import threading

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, replicate_dataset, write_dataset
from repro.data.generator import generate_points, generate_tokens
from repro.runtime import ClusterConfig
from repro.service import BurstingService, JobState, TenantConfig
from repro.storage.faults import FaultInjectingStore, FaultSpec
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy

CLUSTERS = [
    ClusterConfig("local", "local", 2, 2),
    ClusterConfig("cloud", "cloud", 2, 2),
]
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
#: Tenant "b" runs one job at a time, so its later submissions queue.
TENANTS = {"a": TenantConfig(weight=2.0), "b": TenantConfig(max_inflight=1)}


@functools.lru_cache(maxsize=1)
def datasets():
    """Both apps' data, split local/cloud and replicated on the other site."""
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    toks = generate_tokens(4000, 64, seed=81)
    wspec = WordCountSpec()
    pts = generate_points(1200, 4, n_clusters=3, spread=0.08, seed=82)
    kspec = KMeansSpec(pts[:3].copy())
    apps = {}
    for name, spec, units, ref in (
        ("wordcount", wspec, toks, wordcount_exact(toks)),
        ("kmeans", kspec, pts, lloyd_step(pts, pts[:3])),
    ):
        index = write_dataset(
            units, spec.fmt, stores["local"], n_files=4,
            chunk_units=max(1, len(units) // 8), key_prefix=name,
        )
        index = distribute_dataset(
            index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
        )
        apps[name] = (spec, replicate_dataset(index, stores, n_replicas=1), ref)
    return stores, apps


def matches_oracle(app, got, ref):
    if app == "wordcount":
        return got == ref
    return np.allclose(got.centroids, ref.centroids) and np.array_equal(
        got.counts, ref.counts
    )


class ServiceMachine(RuleBasedStateMachine):
    engine = "threaded"

    def __init__(self):
        super().__init__()
        self.service = None
        self.handles = []  # (app, handle)
        self.closed = False
        self._before = set(threading.enumerate())

    @initialize(
        crash=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["local-w0", "cloud-w1"]), st.integers(0, 3)
            ),
        ),
        dead=st.sampled_from([None, "local", "cloud"]),
    )
    def start(self, crash, dead):
        stores, _apps = datasets()
        stores = dict(stores)
        if dead is not None:
            stores[dead] = FaultInjectingStore(
                stores[dead], FaultSpec(permanent_keys=("part",))
            )
        self.service = BurstingService(
            CLUSTERS, stores, engine=self.engine, tenants=dict(TENANTS),
            batch_size=2, retry=FAST_RETRY, min_part_nbytes=0,
            crash_plan=dict([crash]) if crash else {},
        )

    @precondition(lambda self: not self.closed)
    @rule(app=st.sampled_from(["wordcount", "kmeans"]), tenant=st.sampled_from("ab"))
    def submit(self, app, tenant):
        spec, index, _ref = datasets()[1][app]
        self.handles.append((app, self.service.submit(spec, index, tenant=tenant)))

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        _app, handle = data.draw(st.sampled_from(self.handles))
        handle.cancel()

    @precondition(lambda self: self.handles)
    @rule()
    def shutdown(self):
        self.close()  # idempotent: a second shutdown re-checks the same state

    @invariant()
    def terminal_after_shutdown(self):
        if self.closed:
            for _app, h in self.handles:
                assert h.done() and h.status().terminal, h

    def close(self):
        self.service.shutdown(timeout=60)
        self.closed = True
        for app, h in self.handles:
            assert h.done(), f"{h.run_id} unresolved after shutdown"
            if h.status() is not JobState.DONE:
                continue
            rr = h.result()
            _spec, index, ref = datasets()[1][app]
            assert matches_oracle(app, rr.result, ref), f"{h.run_id} diverged"
            assert rr.stats.jobs_processed == len(index.chunks), (
                f"{h.run_id}: a chunk was folded twice or never"
            )
        leaked = [
            t.name for t in threading.enumerate()
            if t.name.startswith("svc-") and t not in self._before
        ]
        assert not leaked, f"threads outlived shutdown: {leaked}"

    def teardown(self):
        if self.service is not None and not self.closed:
            self.close()


SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ServiceMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=8, **SETTINGS
)
TestThreadedService = ServiceMachine.TestCase


class ProcessServiceMachine(ServiceMachine):
    engine = "process"


ProcessServiceMachine.TestCase.settings = settings(
    max_examples=4, stateful_step_count=5, **SETTINGS
)
TestProcessService = ProcessServiceMachine.TestCase
