"""ProcessEngine-specific behavior: shared-memory hygiene, crash
containment across a real process boundary, and IPC accounting.

Result equivalence with the other engines is covered by
``test_engine_equivalence.py``; these tests exercise what is unique to
running slaves as OS processes.
"""

import os

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_points, generate_tokens
from repro.runtime.engine import ClusterConfig
from repro.runtime.process_engine import ProcessEngine
from repro.storage.faults import TransientStorageError
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy
from repro.storage.s3 import S3Profile, SimulatedS3Store


def shm_entries() -> set[str]:
    """Names currently present under /dev/shm (POSIX shm segments)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def build_env(units, fmt, local_fraction=0.5, cloud_store=None):
    stores = {
        "local": MemoryStore("local"),
        "cloud": cloud_store
        or SimulatedS3Store(profile=S3Profile.unthrottled()),
    }
    index = write_dataset(
        units, fmt, stores["local"], n_files=4,
        chunk_units=max(1, len(units) // 12),
    )
    fractions = {}
    if local_fraction > 0:
        fractions["local"] = local_fraction
    if local_fraction < 1:
        fractions["cloud"] = 1.0 - local_fraction
    index = distribute_dataset(index, stores, fractions, stores["local"])
    clusters = [
        ClusterConfig("local", "local", 2, 2),
        ClusterConfig("cloud", "cloud", 2, 2),
    ]
    return stores, index, clusters


class TestSharedMemoryHygiene:
    def test_no_segments_leak_after_normal_run(self):
        toks = generate_tokens(8000, 200, seed=71)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        before = shm_entries()
        rr = ProcessEngine(clusters, stores).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert shm_entries() - before == set()

    def test_no_segments_leak_after_worker_crash(self):
        toks = generate_tokens(8000, 200, seed=72)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        before = shm_entries()
        rr = ProcessEngine(
            clusters, stores, crash_plan={"cloud-w0": 1}
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert shm_entries() - before == set()

    def test_no_segments_leak_after_run_error(self):
        class ExplodingSpec(WordCountSpec):
            def local_reduction(self, robj, unit_group):
                raise RuntimeError("boom")

        toks = generate_tokens(4000, 100, seed=73)
        spec = ExplodingSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        before = shm_entries()
        with pytest.raises(RuntimeError, match="boom"):
            ProcessEngine(clusters, stores).run(spec, index)
        assert shm_entries() - before == set()

    def test_chunk_bytes_accounted_through_shm(self):
        toks = generate_tokens(8000, 200, seed=74)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(clusters, stores).run(spec, index)
        total_chunk_bytes = sum(c.nbytes for c in index.chunks)
        # Every chunk crossed through shared memory at least once (robj
        # payload segments add on top).
        assert rr.stats.shm_nbytes >= total_chunk_bytes


class TestCrashContainment:
    def test_partial_robj_preserved_and_jobs_requeued(self):
        toks = generate_tokens(10000, 250, seed=75)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(
            clusters, stores, crash_plan={"local-w0": 2}
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 1
        assert rr.stats.n_requeued_jobs >= 1
        # Exactly-once: completions equal chunks despite the re-execution.
        assert rr.stats.jobs_processed == len(index.chunks)

    def test_crash_before_any_job(self):
        toks = generate_tokens(6000, 150, seed=76)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(
            clusters, stores, crash_plan={"cloud-w1": 0}
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 1

    def test_whole_cluster_dies_survivors_recover(self):
        toks = generate_tokens(8000, 200, seed=77)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(
            clusters, stores, crash_plan={"cloud-w0": 0, "cloud-w1": 1}
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 2
        assert rr.stats.jobs_processed == len(index.chunks)

    def test_retry_exhaustion_contained(self):
        """A fetch whose retries run dry kills only that worker: the
        failed job is requeued and re-fetched by a survivor."""

        class FlakyStore(MemoryStore):
            """Fails the first ``n`` gets with a transient error."""

            def __init__(self, name, n_failures):
                super().__init__(name)
                self.fails_left = n_failures

            def get(self, key, offset=0, nbytes=None):
                if self.fails_left > 0:
                    self.fails_left -= 1
                    raise TransientStorageError("injected transient")
                return super().get(key, offset, nbytes)

        toks = generate_tokens(8000, 200, seed=78)
        spec = WordCountSpec()
        cloud = FlakyStore("cloud", n_failures=1)
        stores, index, clusters = build_env(toks, spec.fmt, cloud_store=cloud)
        before = shm_entries()
        # max_attempts=1: the single injected failure exhausts one
        # fetch immediately and deterministically.
        rr = ProcessEngine(
            clusters, stores,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.001),
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 1
        assert rr.stats.n_requeued_jobs >= 1
        assert rr.stats.jobs_processed == len(index.chunks)
        assert shm_entries() - before == set()


class TestIpcAccounting:
    def test_ipc_rows_populated(self):
        pts = generate_points(2000, 4, n_clusters=3, seed=79)
        spec = KMeansSpec(generate_points(3, 4, seed=80))
        stores, index, clusters = build_env(pts, spec.fmt)
        rr = ProcessEngine(clusters, stores).run(spec, index)
        np.testing.assert_allclose(
            rr.result.centroids, lloyd_step(pts, spec.centroids).centroids
        )
        rows = rr.stats.ipc_rows()
        assert {r["cluster"] for r in rows} == {"local", "cloud"}
        assert all(r["shm_nbytes"] > 0 for r in rows)
        # ser_s includes the worker-side pickle of the robj; it must be
        # measured (kmeans robjs carry real numpy payloads).
        assert sum(r["ser_s"] for r in rows) > 0

    def test_breakdown_rows_include_ipc_columns(self):
        toks = generate_tokens(5000, 120, seed=81)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(clusters, stores).run(spec, index)
        for row in rr.stats.breakdown_rows():
            assert "ipc_s" in row and "ser_s" in row
            assert row["total_s"] >= row["ipc_s"] + row["ser_s"]


class TestConfiguration:
    def test_unknown_crash_plan_worker_rejected(self):
        stores = {"local": MemoryStore("local")}
        clusters = [ClusterConfig("local", "local", 1)]
        with pytest.raises(ValueError, match="unknown workers"):
            ProcessEngine(clusters, stores, crash_plan={"nope-w0": 1})

    def test_duplicate_cluster_names_rejected(self):
        stores = {"local": MemoryStore("local")}
        clusters = [
            ClusterConfig("x", "local", 1),
            ClusterConfig("x", "local", 1),
        ]
        with pytest.raises(ValueError, match="unique"):
            ProcessEngine(clusters, stores)

    def test_prefetch_disabled_still_correct(self):
        toks = generate_tokens(6000, 150, seed=82)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(clusters, stores, prefetch=False).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.jobs_processed == len(index.chunks)


class TestReplicaBreaker:
    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_open_breaker_stops_fetches_to_dead_replica(self, engine):
        # The cloud store dies after placement; every cloud chunk fails
        # over to its local replica.  Once the cloud breaker opens, no
        # transport may keep sending fetches there: the only failures
        # are the opening streak plus fetches already in flight.
        from repro.bursting.driver import run_threaded_bursting
        from repro.storage.faults import FaultInjectingStore, FaultSpec
        from repro.storage.health import BreakerPolicy

        toks = generate_tokens(20_000, 500, seed=45)
        stores = {
            "local": MemoryStore("local"),
            "cloud": FaultInjectingStore(
                MemoryStore("cloud"), FaultSpec(permanent_keys=("part",)),
                armed=False,
            ),
        }
        policy = BreakerPolicy(fail_threshold=2, recovery_s=60.0)
        rr = run_threaded_bursting(
            WordCountSpec(), toks, stores, engine=engine, n_files=6,
            replicas=1, breaker=policy,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0),
        )
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 0
        n_workers = sum(len(c.workers) for c in rr.stats.clusters.values())
        failures = rr.stats.breakers["cloud"]["n_failures"]
        assert policy.fail_threshold <= failures
        assert failures <= policy.fail_threshold + n_workers - 1
