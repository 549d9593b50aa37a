"""Property-based tests for k-of-n chunk retrieval through ``fetch_chunk``.

Every redundancy shape is one race over legs: a replica set is k=1
over whole copies, a stripe is k of k+m fragments.  For drawn shapes,
per-store outcomes (healthy / permanently dead / seeded stall), codecs
and hedge policies the invariants are:

* the fetched bytes equal the written units whenever k legs can win;
* otherwise the last failover error surfaces (``ErasureError`` when no
  leg failed, i.e. too few fragments were recorded);
* the race launches at most ``k + failures + max_hedges`` legs;
* a hedge win is only ever credited to a hedge-launched leg;
* closing the fetchers leaves no hedge/fetch/prefetch thread running.

Chaos is the seeded fault injector; stalls are a few milliseconds.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.dataset import replicate_dataset, stripe_dataset, write_dataset
from repro.data.formats import RecordFormat
from repro.runtime.core import ClusterConfig, make_cluster_fetchers
from repro.storage.erasure import ErasureError
from repro.storage.faults import (
    FaultInjectingStore,
    FaultSpec,
    PermanentStorageError,
)
from repro.storage.health import BreakerPolicy, HealthRegistry, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy

FMT = RecordFormat("bytes", np.uint8, ())
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0)
OUTCOMES = {
    "ok": FaultSpec(),
    "dead": FaultSpec(permanent_keys=("part",)),
    "stall": FaultSpec(stall_p=1.0, stall_s=0.02, seed=3),
}
POOL_THREADS = ("hedge", "fetch", "prefetch")


@st.composite
def races(draw):
    """(stripe?, k, n, outcome per leg, codec, hedge, breaker?, drop)."""
    stripe = draw(st.booleans())
    if not stripe:
        k, n = 1, draw(st.integers(1, 3))  # a replica set: k=1 of n copies
        drop = 0
    else:
        k = draw(st.integers(1, 3))
        n = k + draw(st.integers(1, 2))  # a (k, k+m) stripe
        # Sometimes record only k-1 fragments (k >= 2 keeps the chunk
        # striped): no leg can fail, the race is short from the start.
        drop = draw(st.sampled_from([0, 0, 0, n - k + 1])) if k > 1 else 0
    outcomes = draw(st.lists(st.sampled_from(sorted(OUTCOMES)), min_size=n,
                             max_size=n))
    codec = draw(st.sampled_from([None, "zlib"]))
    hedge = draw(st.one_of(st.none(), st.builds(
        HedgePolicy, multiplier=st.just(3.0), min_threshold_s=st.just(0.002),
        max_hedges=st.integers(1, 2),
    )))
    breaker = draw(st.booleans())
    return stripe, k, n, outcomes, codec, hedge, breaker, drop


def build(k, n, outcomes, codec, *, stripe):
    """Two 20-byte chunks whose legs live one per store, stores armed."""
    stores = {
        f"s{i}": FaultInjectingStore(MemoryStore(f"s{i}"), OUTCOMES[o],
                                     armed=False)
        for i, o in enumerate(outcomes)
    }
    units = np.arange(40, dtype=np.uint8)
    index = write_dataset(units, FMT, stores["s0"], n_files=1, chunk_units=20,
                          codec=codec)
    if stripe:
        index = stripe_dataset(index, stores, k=k, m=n - k)
    elif n > 1:
        index = replicate_dataset(index, stores, n_replicas=n - 1)
    for s in stores.values():
        s.arm()
    return units, index, stores


def make_fetchers(stores, hedge, health=None):
    cluster = ClusterConfig("s0", "s0", n_workers=1, retrieval_threads=2)
    if health is None and hedge is not None:
        health = HealthRegistry()
    return make_cluster_fetchers(
        stores, cluster, retry=FAST_RETRY, health=health, hedge=hedge
    )


def store_calls(stores):
    """``get`` calls that reached each armed store (answered or refused)."""
    return sum(s.inner.stats.n_gets + s.n_permanent for s in stores.values())


def pool_threads(exclude):
    return [
        t for t in threading.enumerate()
        if t not in exclude and t.is_alive() and t.name.startswith(POOL_THREADS)
    ]


@given(race=races(), prefetch=st.booleans())
# A failover win under an armed hedge policy is not a hedge win.
@example(race=(False, 1, 2, ["dead", "ok"], None, HedgePolicy(), False, 0),
         prefetch=False)
@settings(max_examples=60, deadline=None)
def test_fetch_chunk_race_invariants(race, prefetch):
    stripe, k, n, outcomes, codec, hedge, breaker, drop = race
    before = set(threading.enumerate())
    units, index, stores = build(k, n, outcomes, codec, stripe=stripe)
    chunks = [replace(c, fragments=c.fragments[drop:]) for c in index.chunks]
    locs = [f.location for f in chunks[0].fragments] or [
        s.location for s in chunks[0].sources
    ]
    n_ok = sum(outcomes[int(loc[1:])] != "dead" for loc in locs)
    calls0 = store_calls(stores)
    # A one-failure breaker opens on the first dead leg, so later legs
    # bound for that store are refused as they start and replaced.
    health = HealthRegistry(BreakerPolicy(fail_threshold=1, recovery_s=60.0))
    fetchers = make_fetchers(stores, hedge, health if breaker else None)
    infos = []
    try:
        if n_ok < k:
            expected = ErasureError if len(locs) < k else PermanentStorageError
            with pytest.raises(expected):
                fetchers[chunks[0].location].fetch_chunk(chunks[0])
        else:
            got = []
            for c in chunks:
                f = fetchers[c.location]
                if prefetch:
                    got.append(bytes(f.fetch_chunk_async(c).result()))
                else:
                    data, info = f.fetch_chunk(c)
                    got.append(bytes(data))
                    infos.append(info)
            assert b"".join(got) == units.tobytes()
    finally:
        for f in fetchers.values():
            f.close()
    max_hedges = hedge.max_hedges if hedge is not None else 0
    for info in infos:
        assert info.n_hedges <= max_hedges
        assert info.hedge_wins <= info.n_hedges
    if infos:
        launched = store_calls(stores) - calls0
        assert launched <= sum(k + i.n_failovers + max_hedges for i in infos)
    assert pool_threads(before) == []
