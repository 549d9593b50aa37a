"""Unit/integration tests for the threaded engine."""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.knn import KnnSpec, knn_exact
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import points_format, tokens_format
from repro.data.generator import generate_points, generate_tokens
from repro.runtime.engine import ClusterConfig, ThreadedEngine
from repro.runtime.scheduler import RandomScheduler
from repro.storage.local import MemoryStore


def split_dataset(units, fmt, stores, local_frac=0.5, n_files=6, chunk_units=200):
    idx = write_dataset(units, fmt, stores["local"], n_files=n_files, chunk_units=chunk_units)
    fractions = {}
    if local_frac > 0:
        fractions["local"] = local_frac
    if local_frac < 1:
        fractions["cloud"] = 1 - local_frac
    return distribute_dataset(idx, stores, fractions, stores["local"])


@pytest.fixture
def two_clusters():
    return [
        ClusterConfig("local", "local", n_workers=2),
        ClusterConfig("cloud", "cloud", n_workers=2),
    ]


class TestSingleCluster:
    def test_wordcount_single_worker(self, tokens, stores):
        idx = split_dataset(tokens, tokens_format(), stores, local_frac=1.0)
        engine = ThreadedEngine([ClusterConfig("local", "local", 1)], stores)
        rr = engine.run(WordCountSpec(), idx)
        assert rr.result == wordcount_exact(tokens)

    def test_wordcount_many_workers(self, tokens, stores):
        idx = split_dataset(tokens, tokens_format(), stores, local_frac=1.0)
        engine = ThreadedEngine([ClusterConfig("local", "local", 4)], stores)
        rr = engine.run(WordCountSpec(), idx)
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.jobs_processed == len(idx.chunks)


class TestBursting:
    def test_knn_split_data(self, points, stores, two_clusters):
        idx = split_dataset(points, points_format(4), stores)
        engine = ThreadedEngine(two_clusters, stores, batch_size=2)
        q = np.full(4, 0.25)
        rr = engine.run(KnnSpec(q, 8), idx)
        ref = knn_exact(points, q, 8)
        np.testing.assert_allclose([x[0] for x in rr.result], [r[0] for r in ref])

    def test_kmeans_split_data(self, points, stores, two_clusters):
        idx = split_dataset(points, points_format(4), stores, local_frac=1 / 3)
        cents = generate_points(4, 4, seed=77)
        engine = ThreadedEngine(two_clusters, stores, batch_size=2)
        rr = engine.run(KMeansSpec(cents), idx)
        ref = lloyd_step(points, cents)
        np.testing.assert_allclose(rr.result.centroids, ref.centroids)

    def test_all_jobs_processed_exactly_once(self, points, stores, two_clusters):
        idx = split_dataset(points, points_format(4), stores)
        engine = ThreadedEngine(two_clusters, stores)
        rr = engine.run(KnnSpec(np.zeros(4), 3), idx)
        assert rr.stats.jobs_processed == len(idx.chunks)

    def test_stats_have_both_clusters(self, points, stores, two_clusters):
        idx = split_dataset(points, points_format(4), stores)
        rr = ThreadedEngine(two_clusters, stores).run(KnnSpec(np.zeros(4), 3), idx)
        assert set(rr.stats.clusters) == {"local", "cloud"}
        for c in rr.stats.clusters.values():
            assert c.robj_nbytes > 0

    def test_stats_populated(self, points, stores):
        clusters = [
            ClusterConfig("local", "local", n_workers=2),
            ClusterConfig("cloud", "cloud", n_workers=2, link_latency_s=0.002),
        ]
        idx = split_dataset(points, points_format(4), stores)
        rr = ThreadedEngine(clusters, stores).run(KnnSpec(np.zeros(4), 3), idx)
        assert set(rr.stats.clusters) == {"local", "cloud"}
        for c in rr.stats.clusters.values():
            assert c.robj_nbytes > 0
            assert c.n_workers == 2
        assert rr.stats.total_s > 0

    def test_link_latency_slows_refills(self, points, stores):
        idx = split_dataset(points, points_format(4), stores, local_frac=1.0)
        fast = ThreadedEngine(
            [ClusterConfig("local", "local", 2)], stores, batch_size=1
        ).run(KnnSpec(np.zeros(4), 3), idx)
        slow = ThreadedEngine(
            [ClusterConfig("local", "local", 2, link_latency_s=0.01)],
            stores, batch_size=1,
        ).run(KnnSpec(np.zeros(4), 3), idx)
        assert slow.stats.total_s > fast.stats.total_s

    def test_extreme_skew_forces_stealing(self, points, stores):
        # All data in the cloud; the local cluster must steal everything
        # it processes.
        idx = split_dataset(points, points_format(4), stores, local_frac=0.0)
        clusters = [
            ClusterConfig("local", "local", 2),
            ClusterConfig("cloud", "cloud", 1),
        ]
        rr = ThreadedEngine(clusters, stores).run(KnnSpec(np.zeros(4), 3), idx)
        local = rr.stats.clusters["local"]
        assert local.jobs_stolen == local.jobs_processed

    def test_timers_populated(self, points, stores, two_clusters):
        idx = split_dataset(points, points_format(4), stores)
        rr = ThreadedEngine(two_clusters, stores).run(KMeansSpec(np.zeros((3, 4))), idx)
        assert rr.stats.total_s > 0
        # With in-memory stores a fast cluster may legitimately drain the
        # whole pool before the other cluster's workers start, so only
        # clusters that actually processed jobs must show processing time.
        assert sum(c.jobs_processed for c in rr.stats.clusters.values()) == len(
            idx.chunks
        )
        assert any(c.jobs_processed > 0 for c in rr.stats.clusters.values())
        for c in rr.stats.clusters.values():
            if c.jobs_processed:
                assert c.processing_s > 0
            assert c.retrieval_s >= 0


class TestEngineValidation:
    def test_requires_clusters(self, stores):
        with pytest.raises(ValueError):
            ThreadedEngine([], stores)

    def test_unique_cluster_names(self, stores):
        with pytest.raises(ValueError):
            ThreadedEngine(
                [ClusterConfig("x", "local", 1), ClusterConfig("x", "cloud", 1)], stores
            )

    def test_missing_store_rejected(self, points):
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        idx = split_dataset(points, points_format(4), stores, local_frac=0.5)
        engine = ThreadedEngine([ClusterConfig("local", "local", 1)], {"local": stores["local"]})
        with pytest.raises(ValueError):
            engine.run(KnnSpec(np.zeros(4), 3), idx)

    def test_custom_scheduler_factory(self, points, stores, two_clusters):
        idx = split_dataset(points, points_format(4), stores)
        engine = ThreadedEngine(
            two_clusters, stores, scheduler_factory=lambda jobs: RandomScheduler(jobs, seed=1)
        )
        rr = engine.run(KnnSpec(np.zeros(4), 4), idx)
        ref = knn_exact(points, np.zeros(4), 4)
        np.testing.assert_allclose([x[0] for x in rr.result], [r[0] for r in ref])

    def test_worker_error_propagates(self, points, stores, two_clusters):
        idx = split_dataset(points, points_format(4), stores)

        class BrokenSpec(KnnSpec):
            def local_reduction(self, robj, group):
                raise RuntimeError("boom")

        engine = ThreadedEngine(two_clusters, stores)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(BrokenSpec(np.zeros(4), 3), idx)
