"""Erasure-coded striping survives store outages on every engine.

The acceptance bar for the striping layer: with (k=4, m=2) and m entire
stores dead, every engine completes with zero failed workers and a
bit-identical result, decoding parity only where a dead store held a
data fragment.
"""

import numpy as np
import pytest

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.driver import run_threaded_bursting
from repro.data.generator import generate_tokens
from repro.storage.faults import FaultInjectingStore, FaultSpec
from repro.storage.health import BreakerPolicy, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy

ENGINES = ("threaded", "process", "actor")
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)


def make_stores(dead=()):
    stores = {}
    for name in ("local", "cloud", "s1", "s2", "s3", "s4"):
        store = MemoryStore(name)
        if name in dead:
            store = FaultInjectingStore(
                store, FaultSpec(permanent_keys=("part",)), armed=False
            )
        stores[name] = store
    return stores


def run(engine, stores, **kwargs):
    tokens = generate_tokens(20_000, 500, seed=45)
    rr = run_threaded_bursting(
        WordCountSpec(), tokens, stores, engine=engine,
        n_files=6, stripe=(4, 2), retry=FAST_RETRY, **kwargs,
    )
    return tokens, rr


class TestStripedEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_clean_run_bit_identical(self, engine):
        tokens, rr = run(engine, make_stores())
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.n_fragments == rr.stats.jobs_processed * 4
        assert rr.stats.n_parity_decodes == 0
        assert rr.stats.fragments_wasted_bytes == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_m_store_outage_completes(self, engine):
        stores = make_stores(dead=("s1", "s2"))
        tokens, rr = run(
            engine, stores,
            breaker=BreakerPolicy(fail_threshold=2, recovery_s=60.0),
            hedge=HedgePolicy(multiplier=3.0, min_threshold_s=0.005),
        )
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.n_failed_workers == 0
        assert rr.stats.n_parity_decodes > 0
        assert rr.stats.n_failovers > 0

    def test_replicas_and_stripe_mutually_exclusive(self):
        stores = make_stores()
        tokens = generate_tokens(1_000, 50, seed=1)
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_threaded_bursting(
                WordCountSpec(), tokens, stores,
                replicas=1, stripe=(2, 1),
            )

    def test_engines_agree_under_outage(self):
        results = []
        for engine in ENGINES:
            stores = make_stores(dead=("s1", "s2"))
            _, rr = run(
                engine, stores,
                breaker=BreakerPolicy(fail_threshold=2, recovery_s=60.0),
            )
            results.append(rr.result)
        assert results[0] == results[1] == results[2]


class TestStripedPipelineStats:
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_reassembly_copy_surfaces_in_pipeline_rows(self, prefetch):
        tokens, rr = run("threaded", make_stores(), prefetch=prefetch)
        rows = rr.stats.pipeline_rows()
        # Identity codec: the only copy per chunk is the reassembly.
        assert sum(r["n_copies"] for r in rows) == rr.stats.jobs_processed

    def test_fault_rows_carry_erasure_columns(self):
        stores = make_stores(dead=("s1", "s2"))
        _, rr = run(
            "threaded", stores,
            breaker=BreakerPolicy(fail_threshold=2, recovery_s=60.0),
        )
        for row in rr.stats.fault_rows():
            assert "n_parity_decodes" in row
            assert "wasted_frag_bytes" in row


def test_numpy_token_dtype_guard():
    # generate_tokens must stay uint-compatible with the byte format the
    # striping tests assume; a dtype drift would silently change frame
    # sizes and mask padding bugs.
    tokens = generate_tokens(100, 50, seed=0)
    assert np.issubdtype(tokens.dtype, np.integer)
