"""DES model of erasure-coded fastest-k-of-n retrieval.

The simulator must agree with the live engines on the shape of the
win: k-of-n completion masks a stalled leg (order statistics), parity
decodes happen exactly when a data leg stalls, and a clean run pays no
waste at all.
"""

import pytest

from repro.bursting.config import paper_environments
from repro.bursting.driver import paper_index
from repro.sim.calibration import APP_PROFILES, ResourceParams
from repro.sim.simrun import simulate_run
from repro.storage.faults import FaultSpec

PROFILE = APP_PROFILES["kmeans"]
PARAMS = ResourceParams()


def setup():
    env_cfg = paper_environments(PROFILE)[0]
    index = paper_index(PROFILE, env_cfg)
    return index, env_cfg.clusters(PARAMS)


STALLS = {
    loc: FaultSpec(stall_p=0.3, stall_s=5.0, seed=7)
    for loc in ("local", "cloud")
}


class TestStripedSim:
    def test_clean_run_counts_fragments_only(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2))
        assert res.stats.n_fragments == 4 * res.stats.jobs_processed
        assert res.stats.n_parity_decodes == 0
        assert res.stats.fragments_wasted_bytes == 0

    def test_stalls_trigger_parity_and_waste(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2), store_stalls=STALLS)
        assert res.stats.n_parity_decodes > 0
        assert res.stats.fragments_wasted_bytes > 0

    def test_wasted_bytes_mean_the_same_total_at_every_level(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2), store_stalls=STALLS)
        per_cluster = [c.fragments_wasted_bytes for c in res.stats.clusters.values()]
        assert sum(per_cluster) == res.stats.fragments_wasted_bytes > 0
        rows = res.stats.fault_rows()
        assert [r["wasted_frag_bytes"] for r in rows] == per_cluster

    def test_striping_masks_stalls(self):
        index, clusters = setup()
        base = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                            store_stalls=STALLS)
        striped = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                               stripe=(4, 2), store_stalls=STALLS)
        assert striped.total_s < base.total_s

    def test_prefetch_composes_with_striping(self):
        index, clusters = setup()
        res = simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                           stripe=(4, 2), store_stalls=STALLS, prefetch=True)
        assert res.stats.n_parity_decodes > 0
        assert res.stats.jobs_processed > 0

    def test_deterministic(self):
        index, clusters = setup()
        runs = [
            simulate_run(index, clusters, PROFILE, PARAMS, seed=1,
                         stripe=(4, 2), store_stalls=STALLS).total_s
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0), (4,), (-2, 3)])
    def test_invalid_stripe_rejected(self, bad):
        index, clusters = setup()
        with pytest.raises(ValueError):
            simulate_run(index, clusters, PROFILE, PARAMS, stripe=bad)
