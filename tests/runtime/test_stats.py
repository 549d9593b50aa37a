"""Unit tests for execution-time accounting."""

from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.core import account_fetch_info, rollup_fetcher_stats
from repro.runtime.stats import (
    COUNTERS,
    FETCHER_COUNTERS,
    ClusterStats,
    RunStats,
    WorkerStats,
)
from repro.storage.local import MemoryStore
from repro.storage.transfer import FetchInfo, ParallelFetcher


def make_cluster():
    c = ClusterStats("local", "local")
    c.workers.append(WorkerStats(processing_s=10.0, retrieval_s=4.0, sync_s=1.0,
                                 jobs_processed=3, jobs_stolen=1))
    c.workers.append(WorkerStats(processing_s=14.0, retrieval_s=6.0, sync_s=3.0,
                                 jobs_processed=5, jobs_stolen=0))
    return c


class TestClusterStats:
    def test_means_are_per_worker(self):
        c = make_cluster()
        assert c.processing_s == 12.0
        assert c.retrieval_s == 5.0
        assert c.sync_s == 2.0
        assert c.total_s == 19.0

    def test_job_counts_sum(self):
        c = make_cluster()
        assert c.jobs_processed == 8
        assert c.jobs_stolen == 1

    def test_empty_cluster_zeroes(self):
        c = ClusterStats("x", "local")
        assert c.processing_s == 0.0
        assert c.total_s == 0.0
        assert c.n_workers == 0

    def test_worker_busy(self):
        w = WorkerStats(processing_s=2.0, retrieval_s=3.0)
        assert w.busy_s == 5.0


class TestRunStats:
    def test_aggregates_across_clusters(self):
        rs = RunStats()
        rs.clusters["a"] = make_cluster()
        rs.clusters["b"] = make_cluster()
        assert rs.jobs_processed == 16
        assert rs.jobs_stolen == 2

    def test_breakdown_rows(self):
        rs = RunStats()
        rs.clusters["a"] = make_cluster()
        rows = rs.breakdown_rows()
        assert rows == [
            {
                "cluster": "local",
                "processing_s": 12.0,
                "retrieval_s": 5.0,
                "sync_s": 2.0,
                "ipc_s": 0.0,
                "ser_s": 0.0,
                "total_s": 19.0,
                "n_retries": 0,
                "n_errors": 0,
                "bytes_retried": 0,
            }
        ]

    def test_ipc_rows_and_aggregates(self):
        rs = RunStats()
        c = make_cluster()
        c.workers[0].ipc_s = 0.2
        c.workers[0].ser_s = 0.4
        c.workers[0].shm_nbytes = 1000
        c.workers[1].ipc_s = 0.6
        c.workers[1].ser_s = 0.0
        c.workers[1].shm_nbytes = 3000
        rs.clusters["a"] = c
        assert c.ipc_s == 0.4    # mean per worker, like the other bars
        assert c.ser_s == 0.2
        assert c.shm_nbytes == 4000
        assert rs.shm_nbytes == 4000
        assert c.total_s == 19.0 + 0.4 + 0.2
        assert rs.ipc_rows() == [
            {"cluster": "local", "ipc_s": 0.4, "ser_s": 0.2, "shm_nbytes": 4000}
        ]

    def test_fault_rows_and_aggregates(self):
        rs = RunStats()
        c = make_cluster()
        c.n_retries = 3
        c.n_errors = 1
        c.bytes_retried = 512
        c.workers[0].failed = True
        c.workers[1].jobs_recovered = 2
        c.workers[1].recovery_s = 1.5
        rs.clusters["a"] = c
        rs.n_requeued_jobs = 2
        assert rs.n_retries == 3
        assert rs.n_errors == 1
        assert rs.bytes_retried == 512
        assert rs.n_failed_workers == 1
        assert rs.jobs_recovered == 2
        assert rs.recovery_s == 1.5
        rows = rs.fault_rows()
        assert rows == [
            {
                "cluster": "local",
                "n_retries": 3,
                "n_errors": 1,
                "bytes_retried": 512,
                "workers_failed": 1,
                "jobs_recovered": 2,
                "recovery_s": 1.5,
                "n_failovers": 0,
                "n_hedges": 0,
                "hedge_wins": 0,
                "n_breaker_skips": 0,
                "n_abandoned": 0,
                "n_parity_decodes": 0,
                "wasted_frag_bytes": 0,
                "fetch_p95_ms": 0.0,
            }
        ]


# -- rollups derived from the WorkerStats declaration -------------------------
#
# The rollups each class defined by hand before the declaration drove
# them, written out so none can silently vanish.

#: Stacked-bar timers: a cluster reports the per-worker mean.
CLUSTER_MEANS = ["processing_s", "retrieval_s", "sync_s", "overlap_s", "ipc_s", "ser_s"]
#: Counters workers increment; a cluster reports the sum.
CLUSTER_WORKER_SUMS = [
    "jobs_processed", "jobs_stolen", "prefetch_hits", "prefetch_misses",
    "cache_hits", "cache_misses", "jobs_recovered", "recovery_s", "shm_nbytes",
    "bytes_wire", "bytes_logical", "decode_s", "fold_s", "bytes_folded",
    "n_fold_calls", "n_copies", "n_failovers", "n_hedges", "hedge_wins",
    "n_fragments", "n_parity_decodes",
]
#: Cluster counter <- fetcher attribute (wasted bytes also sum the workers).
CLUSTER_FETCHER_SUMS = {
    "n_retries": "n_retries", "n_errors": "n_giveups",
    "bytes_retried": "bytes_retried", "n_breaker_skips": "n_breaker_skips",
    "n_abandoned": "n_abandoned", "fragments_wasted_bytes": "fragments_wasted_bytes",
}
#: Counters a run sums over its clusters.
RUN_SUMS = [
    "jobs_processed", "jobs_stolen", "prefetch_hits", "cache_hits", "cache_misses",
    "n_retries", "n_errors", "bytes_retried", "n_failovers", "n_hedges",
    "hedge_wins", "n_breaker_skips", "n_abandoned", "n_fragments",
    "n_parity_decodes", "fragments_wasted_bytes", "jobs_recovered", "recovery_s",
    "shm_nbytes", "bytes_wire", "bytes_logical", "decode_s", "fold_s",
    "bytes_folded", "n_fold_calls", "n_copies",
]
WORKER_COUNTERS = CLUSTER_MEANS + CLUSTER_WORKER_SUMS + ["fragments_wasted_bytes"]


def _value(name):
    if name.endswith("_s"):
        return st.floats(0.0, 1e3, allow_nan=False)
    return st.integers(0, 1 << 40)


workers_st = st.lists(
    st.fixed_dictionaries(
        {n: _value(n) for n in WORKER_COUNTERS}, optional={"failed": st.booleans()}
    ),
    max_size=4,
)
fetchers_st = st.lists(
    st.fixed_dictionaries(
        {attr: st.integers(0, 1 << 30) for attr in CLUSTER_FETCHER_SUMS.values()}
        | {"fetch_latencies": st.lists(st.floats(0.0, 5.0), max_size=4)}
    ),
    max_size=3,
)


def _build(cluster_specs):
    rs = RunStats()
    for i, (workers, fetchers) in enumerate(cluster_specs):
        c = ClusterStats(f"c{i}", f"loc{i}")
        c.workers = [WorkerStats(**w) for w in workers]
        fakes = {
            f"f{j}": SimpleNamespace(**f, autotune=None) for j, f in enumerate(fetchers)
        }
        rollup_fetcher_stats(c, fakes, close=False)
        rs.clusters[c.name] = c
    return rs


def _ratio(num, den, empty):
    return num / den if den else empty


class TestDeclaredRollups:
    @given(st.lists(st.tuples(workers_st, fetchers_st), max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_rollups_equal_explicit_means_and_sums(self, cluster_specs):
        rs = _build(cluster_specs)
        expected_run = dict.fromkeys(RUN_SUMS, 0)
        for c, (workers, fetchers) in zip(rs.clusters.values(), cluster_specs):
            want = {}
            for n in CLUSTER_MEANS:
                vals = [w[n] for w in workers]
                want[n] = sum(vals) / len(vals) if vals else 0.0
            for n in CLUSTER_WORKER_SUMS:
                want[n] = sum(w[n] for w in workers)
            for n, attr in CLUSTER_FETCHER_SUMS.items():
                want[n] = sum(w.get(n, 0) for w in workers) + sum(
                    f[attr] for f in fetchers
                )
            for n, v in want.items():
                assert getattr(c, n) == v, n
            assert c.n_workers == len(workers)
            assert c.workers_failed == sum(w.get("failed", False) for w in workers)
            assert c.total_s == (
                want["processing_s"] + want["retrieval_s"] + want["sync_s"]
                + want["ipc_s"] + want["ser_s"]
            )
            assert c.cache_hit_rate == _ratio(
                want["cache_hits"], want["cache_hits"] + want["cache_misses"], 0.0
            )
            assert c.compress_ratio == _ratio(
                want["bytes_wire"], want["bytes_logical"], 1.0
            )
            assert c.fold_ns_per_byte == _ratio(
                want["fold_s"] * 1e9, want["bytes_folded"], 0.0
            )
            assert c.fetch_latencies == [
                t for f in fetchers for t in f["fetch_latencies"]
            ]
            for n in RUN_SUMS:
                expected_run[n] += want[n]
        for n, v in expected_run.items():
            assert getattr(rs, n) == v, n
        assert rs.n_failed_workers == sum(
            c.workers_failed for c in rs.clusters.values()
        )
        assert rs.cache_hit_rate == _ratio(
            expected_run["cache_hits"],
            expected_run["cache_hits"] + expected_run["cache_misses"],
            0.0,
        )
        assert rs.compress_ratio == _ratio(
            expected_run["bytes_wire"], expected_run["bytes_logical"], 1.0
        )
        assert rs.fold_ns_per_byte == _ratio(
            expected_run["fold_s"] * 1e9, expected_run["bytes_folded"], 0.0
        )

    def test_fetcher_counters_name_real_fetcher_attributes(self):
        fetcher = ParallelFetcher(MemoryStore(), 1)
        try:
            for attr in FETCHER_COUNTERS.values():
                assert getattr(fetcher, attr) == 0, attr
        finally:
            fetcher.close()

    @pytest.mark.parametrize(
        "obj, name",
        [
            (ClusterStats("x", "local"), "n_bogus"),
            (ClusterStats("x", "local"), "wasted_fragment_bytes"),
            (ClusterStats("x", "local"), "failed"),
            (RunStats(), "n_bogus"),
            (RunStats(), "processing_s"),
            (RunStats(), "failed"),
        ],
    )
    def test_undeclared_names_raise(self, obj, name):
        with pytest.raises(AttributeError, match=name):
            getattr(obj, name)
        assert not hasattr(obj, name)

    def test_account_fetch_info_carries_every_fetch_counter(self):
        info = FetchInfo()
        for i, f in enumerate(fields(FetchInfo)):
            if f.name != "cache_hit":
                setattr(info, f.name, type(f.default)(i + 1))
        w = WorkerStats()
        account_fetch_info(w, info)
        carried = [f.name for f in fields(FetchInfo) if f.name in COUNTERS]
        assert {f.name for f in fields(FetchInfo)} - set(carried) == {
            "cache_hit", "fetch_s",
        }
        for name in carried:
            assert getattr(w, name) == getattr(info, name), name
        assert (w.cache_hits, w.cache_misses) == (0, 1)
        info.cache_hit = True
        account_fetch_info(w, info)
        assert (w.cache_hits, w.cache_misses) == (1, 1)
        assert w.n_hedges == 2 * info.n_hedges
