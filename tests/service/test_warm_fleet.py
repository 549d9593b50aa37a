"""Warm-fleet equivalence: a long-lived service's later runs match fresh runs.

One-shot engines run every job on a fresh single-job service, so the
engine-equivalence matrix only ever sees a cold fleet.  A long-lived
:class:`BurstingService` serves each later run on slaves that already
hold fold contexts, fetchers and job counts from earlier runs.  Every
application, placement and fetch mode must still fold each chunk exactly
once into the right run and report per-run stats that match a fresh
:class:`ThreadedEngine` run of the same job.
"""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.knn import KnnSpec, knn_exact
from repro.apps.pagerank import PageRankSpec, out_degrees, pagerank_step
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.session import BurstingSession
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_edges, generate_points, generate_tokens
from repro.runtime import ClusterConfig, ThreadedEngine
from repro.service import BurstingService
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store

#: local_fraction -> placement label used in test ids.
PLACEMENTS = {"local-only": 1.0, "hybrid": 0.5, "cloud-only": 0.0}

CLUSTERS = [
    ClusterConfig("local", "local", 2, 2),
    ClusterConfig("cloud", "cloud", 2, 2),
]


def make_stores():
    return {
        "local": MemoryStore("local"),
        "cloud": SimulatedS3Store(profile=S3Profile.unthrottled()),
    }


def place(units, fmt, stores, local_fraction, key_prefix):
    index = write_dataset(
        units, fmt, stores["local"], n_files=4,
        chunk_units=max(1, len(units) // 12), key_prefix=key_prefix,
    )
    fractions = {}
    if local_fraction > 0:
        fractions["local"] = local_fraction
    if local_fraction < 1:
        fractions["cloud"] = 1.0 - local_fraction
    return distribute_dataset(index, stores, fractions, stores["local"])


def make_app(app):
    """(spec, units, oracle check) for one application."""
    if app == "wordcount":
        toks = generate_tokens(9000, 250, seed=91)
        ref = wordcount_exact(toks)

        def check(result):
            assert result == ref

        return WordCountSpec(), toks, check
    if app == "kmeans":
        pts = generate_points(2400, 4, n_clusters=3, spread=0.08, seed=92)
        centroids = pts[:3].copy()
        ref = lloyd_step(pts, centroids)

        def check(result):
            np.testing.assert_allclose(result.centroids, ref.centroids, rtol=1e-9)
            np.testing.assert_array_equal(result.counts, ref.counts)

        return KMeansSpec(centroids), pts, check
    if app == "knn":
        pts = generate_points(2400, 4, seed=93)
        query = np.zeros(4)
        ref = knn_exact(pts, query, 7)

        def check(result):
            np.testing.assert_allclose(
                [d for d, _ in result], [d for d, _ in ref], rtol=1e-12
            )

        return KnnSpec(query, 7), pts, check
    if app == "pagerank":
        n_pages = 200
        edges = generate_edges(n_pages, 4000, seed=94)
        outdeg = out_degrees(edges, n_pages)
        ranks = np.full(n_pages, 1.0 / n_pages)
        ref = pagerank_step(edges, ranks, outdeg)

        def check(result):
            np.testing.assert_allclose(result, ref, rtol=1e-9)

        return PageRankSpec(ranks, outdeg), edges, check
    raise AssertionError(app)


def assert_same_run(got, want):
    """Per-run stats of a warm-fleet run equal those of a fresh run."""
    assert got.stats.jobs_processed == want.stats.jobs_processed
    assert got.stats.bytes_wire == want.stats.bytes_wire
    assert got.stats.n_failed_workers == 0
    assert [c.n_workers for c in got.stats.clusters.values()] == [
        c.n_workers for c in want.stats.clusters.values()
    ]


@pytest.mark.parametrize("prefetch", [False, True], ids=["sync", "prefetch"])
@pytest.mark.parametrize("placement", PLACEMENTS, ids=PLACEMENTS.keys())
@pytest.mark.parametrize("app", ["wordcount", "kmeans", "knn", "pagerank"])
def test_warm_fleet_run_matches_fresh_run(app, placement, prefetch):
    stores = make_stores()
    spec, units, check = make_app(app)
    index = place(units, spec.fmt, stores, PLACEMENTS[placement], app)
    # A different job first, so the run under test lands on slaves that
    # already served (and hold contexts and fetchers for) another run.
    warm_toks = generate_tokens(3000, 80, seed=95)
    warm_spec = WordCountSpec()
    warm_index = place(warm_toks, warm_spec.fmt, stores, 0.5, "warmup")

    fresh = ThreadedEngine(
        CLUSTERS, stores, batch_size=2, prefetch=prefetch
    ).run(spec, index)
    service = BurstingService(CLUSTERS, stores, batch_size=2, prefetch=prefetch)
    try:
        warm = service.submit(warm_spec, warm_index).result(timeout=60)
        got = service.submit(spec, index).result(timeout=60)
    finally:
        service.shutdown()

    assert warm.result == wordcount_exact(warm_toks)
    check(fresh.result)
    check(got.result)
    assert got.stats.jobs_processed == len(index.chunks)
    assert_same_run(got, fresh)


class TestOneShotRunsStartFresh:
    """Each one-shot run gets its own service, so a crash plan's job
    counts restart with every run instead of carrying over."""

    @staticmethod
    def slow_env():
        # 10 ms per GET, so every worker claims a job before the others
        # can drain the pool and the planned crash (at a worker's first
        # job) always fires.
        stores = make_stores()
        spec, units, check = make_app("wordcount")
        index = place(units, spec.fmt, stores, 0.5, "wc")
        slow = {
            loc: SimulatedS3Store(store, S3Profile(request_latency_s=0.01), location=loc)
            for loc, store in stores.items()
        }
        return slow, spec, index, check

    def test_engine_crash_plan_fires_in_every_run(self):
        stores, spec, index, check = self.slow_env()
        engine = ThreadedEngine(
            CLUSTERS, stores, batch_size=2, crash_plan={"local-w0": 0}
        )
        for _ in range(2):
            rr = engine.run(spec, index)
            check(rr.result)
            assert rr.stats.n_failed_workers == 1
            assert rr.stats.jobs_processed == len(index.chunks)

    def test_session_crash_plan_fires_in_every_run(self):
        stores, spec, index, check = self.slow_env()
        session = BurstingSession(
            index, stores, batch_size=2, crash_plan={"cloud-w1": 0}
        )
        for _ in range(2):
            rr = session.run(spec)
            check(rr.result)
            assert rr.stats.n_failed_workers == 1
            assert rr.stats.jobs_processed == len(index.chunks)


@pytest.mark.parametrize("engine", ["threaded", "process"])
class TestServiceValidationParity:
    """The service validates its options exactly as the engines do."""

    def test_unknown_crash_target_rejected(self, engine):
        with pytest.raises(ValueError, match="crash_plan targets unknown"):
            BurstingService(
                CLUSTERS, make_stores(), engine=engine, crash_plan={"nope-w9": 1}
            )

    def test_duplicate_cluster_names_rejected(self, engine):
        dupes = [
            ClusterConfig("same", "local", 1),
            ClusterConfig("same", "cloud", 1),
        ]
        with pytest.raises(ValueError, match="unique"):
            BurstingService(dupes, make_stores(), engine=engine)

    def test_empty_clusters_rejected(self, engine):
        with pytest.raises(ValueError, match="at least one cluster"):
            BurstingService([], make_stores(), engine=engine)

    def test_bad_batch_size_rejected(self, engine):
        with pytest.raises(ValueError, match="batch_size"):
            BurstingService(CLUSTERS, make_stores(), engine=engine, batch_size=0)

    def test_missing_store_rejected_at_submit(self, engine):
        stores = make_stores()
        spec, units, _check = make_app("wordcount")
        index = place(units, spec.fmt, stores, 0.5, "wc")
        local_only = {"local": MemoryStore("local")}
        service = BurstingService(
            [ClusterConfig("local", "local", 1)], local_only, engine=engine
        )
        try:
            with pytest.raises(ValueError, match="unknown stores"):
                service.submit(spec, index)
        finally:
            service.shutdown()
