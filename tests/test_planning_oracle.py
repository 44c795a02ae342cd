"""Differential tests for the table-driven, buffered-draw path planners.

The production planners (VAL, UGAL-L/G, DF-UGAL) walk precomputed
candidate rows and take their random draws from a
:class:`repro.util.rng.DrawBuffer`.  The oracle here is the scalar
implementation they replaced, kept verbatim: candidates from a list
comprehension over the distance matrix, one ``Generator.integers``
call per draw, and UGAL's ``min`` over the float path costs.  Paths
must be identical, and after ``sync_rng`` the generator state must be
too.
"""

import numpy as np
import pytest

from repro.routing import (
    DragonflyMinimal,
    DragonflyUGAL,
    RoutingTables,
    UGALRouting,
    ValiantRouting,
)
from repro.routing.base import RoutingAlgorithm
from repro.routing.valiant import stitch
from repro.sim.config import SimConfig
from repro.sim.network import QueueSnapshot, SimNetwork
from repro.topologies import Dragonfly
from repro.util.rng import DrawBuffer, make_rng

# -- the scalar oracle ------------------------------------------------------


def scalar_candidates(tables, at, dst):
    if at == dst:
        return []
    dist = tables.dist.tolist()
    target = dist[at][dst] - 1
    return [v for v in tables.adjacency[at] if dist[v][dst] == target]


def scalar_sample_min_path(tables, src, dst, rng):
    path = [src]
    at = src
    while at != dst:
        cands = scalar_candidates(tables, at, dst)
        at = cands[int(rng.integers(len(cands)))] if len(cands) > 1 else cands[0]
        path.append(at)
    return path


def scalar_cheapest(cands, network, local):
    cost = (
        RoutingAlgorithm.path_cost_local
        if local
        else RoutingAlgorithm.path_cost_global
    )
    return min(cands, key=lambda p: (cost(p, network), len(p)))


class ScalarValiant:
    def __init__(self, tables, seed, max_hops=None, max_resample=32):
        self.tables = tables
        self.rng = make_rng(seed)
        self.max_hops = max_hops
        self.max_resample = max_resample

    def random_intermediate(self, src, dst):
        n = self.tables.num_routers
        while True:
            r = int(self.rng.integers(n))
            if r != src and r != dst:
                return r

    def plan(self, src, dst, network=None):
        if src == dst:
            return [src]
        for _ in range(self.max_resample):
            mid = self.random_intermediate(src, dst)
            path = stitch(
                scalar_sample_min_path(self.tables, src, mid, self.rng),
                scalar_sample_min_path(self.tables, mid, dst, self.rng),
            )
            if self.max_hops is None or len(path) - 1 <= self.max_hops:
                return path
        return path


class ScalarUGAL:
    def __init__(self, tables, mode, seed, num_candidates=4):
        self.tables = tables
        self.local = mode == "local"
        self.num_candidates = num_candidates
        self.rng = make_rng(seed)
        self.valiant = ScalarValiant(tables, self.rng)

    def plan(self, src, dst, network=None):
        if src == dst:
            return [src]
        cands = [self.tables.min_path(src, dst)]
        for _ in range(self.num_candidates):
            cands.append(self.valiant.plan(src, dst))
        if network is None:
            return cands[0]
        return scalar_cheapest(cands, network, self.local)


class ScalarDragonflyUGAL:
    def __init__(self, topology, tables, mode, seed, num_candidates=4):
        self.topology = topology
        self.tables = tables
        self.local = mode == "local"
        self.num_candidates = num_candidates
        self.rng = make_rng(seed)
        self._minimal = DragonflyMinimal(topology, tables)

    def _valiant_group_path(self, src, dst):
        topo = self.topology
        g_src, g_dst = topo.group_of(src), topo.group_of(dst)
        choices = [g for g in range(topo.g) if g not in (g_src, g_dst)]
        if not choices:
            return scalar_sample_min_path(self.tables, src, dst, self.rng)
        mid_group = choices[int(self.rng.integers(len(choices)))]
        routers = topo.routers_of_group(mid_group)
        mid = routers[int(self.rng.integers(len(routers)))]
        return stitch(
            self._minimal.canonical_path(src, mid),
            self._minimal.canonical_path(mid, dst),
        )

    def plan(self, src, dst, network=None):
        if src == dst:
            return [src]
        cands = [self._minimal.canonical_path(src, dst)]
        for _ in range(self.num_candidates):
            cands.append(self._valiant_group_path(src, dst))
        if network is None:
            return cands[0]
        return scalar_cheapest(cands, network, self.local)


class FakeQueues:
    """A fixed queue view: small lengths, so cost ties are common."""

    def __init__(self, adjacency, seed):
        rng = np.random.default_rng(seed)
        self.lengths = {
            (u, v): int(rng.integers(0, 4))
            for u, nbrs in enumerate(adjacency)
            for v in nbrs
        }

    def queue_length(self, u, v):
        return self.lengths[(u, v)]


# -- DrawBuffer vs Generator.integers ---------------------------------------

#: Bounds with heavy Lemire rejection (2**32 % k close to k) next to
#: ordinary ones, and k == 1 (numpy draws nothing for it).
BOUNDS = [1, 2, 3, 7, 50, 97, 3 * 2**30 + 1, 2**31 + 1, 2**32 - 1, 1000003]


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


class TestDrawBuffer:
    @pytest.mark.parametrize("block", [1, 2, 7, 512])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_generator_integers(self, block, seed):
        scalar = np.random.default_rng(seed)
        draws = DrawBuffer(np.random.default_rng(seed))
        draws.block = block
        pick = np.random.default_rng(100 + seed)
        for _ in range(3000):
            k = BOUNDS[int(pick.integers(len(BOUNDS)))]
            assert draws.below(k) == int(scalar.integers(k))
        draws.sync()
        assert _same_state(draws.rng, scalar)

    def test_rejection_heavy_bound(self):
        # 3*2**30+1 rejects about a quarter of raw words.
        k = 3 * 2**30 + 1
        scalar = np.random.default_rng(5)
        draws = DrawBuffer(np.random.default_rng(5))
        draws.block = 3
        assert [draws.below(k) for _ in range(2000)] == [
            int(scalar.integers(k)) for _ in range(2000)
        ]
        draws.sync()
        assert _same_state(draws.rng, scalar)

    def test_refill_inside_a_rejection(self):
        """A block of one word makes every rejection retry refill."""
        k = 3 * 2**30 + 1
        threshold = 2**32 % k
        probe = np.random.default_rng(11)
        words = probe.integers(0, 2**32, size=400, dtype=np.uint64).tolist()
        rejected = [w for w in words if (w * k) & 0xFFFFFFFF < threshold]
        assert rejected, "seed must hit the rejection loop"
        scalar = np.random.default_rng(11)
        draws = DrawBuffer(np.random.default_rng(11))
        draws.block = 1
        for _ in range(300):
            assert draws.below(k) == int(scalar.integers(k))
        draws.sync()
        assert _same_state(draws.rng, scalar)

    @pytest.mark.parametrize("count", [0, 1, 2, 5, 6, 513, 1024])
    def test_sync_after_odd_and_even_counts(self, count):
        """PCG64 hands out 32-bit words in pairs: an odd count leaves
        half a word buffered in the state, which sync must reproduce."""
        scalar = np.random.default_rng(3)
        draws = DrawBuffer(np.random.default_rng(3))
        for i in range(count):
            assert draws.below(5 + i % 3) == int(scalar.integers(5 + i % 3))
        draws.sync()
        assert _same_state(draws.rng, scalar)
        # The synced generator continues the scalar stream.
        assert draws.rng.random() == scalar.random()

    def test_interleaved_syncs_continue_the_stream(self):
        scalar = np.random.default_rng(9)
        draws = DrawBuffer(np.random.default_rng(9))
        draws.block = 16
        pick = np.random.default_rng(4)
        for batch in range(40):
            for _ in range(int(pick.integers(0, 40))):
                k = BOUNDS[int(pick.integers(len(BOUNDS)))]
                assert draws.below(k) == int(scalar.integers(k))
            draws.sync()
            assert _same_state(draws.rng, scalar), batch


# -- candidate rows ------------------------------------------------------------


class TestCandidateRows:
    def test_rows_match_the_distance_scan(self, sf5_tables):
        t = RoutingTables(sf5_tables.adjacency)
        for at in range(t.num_routers):
            row = t.candidate_row(at)
            for dst in range(t.num_routers):
                assert list(row[dst]) == scalar_candidates(t, at, dst)
                assert t.next_hop_candidates(at, dst) == scalar_candidates(t, at, dst)

    def test_rows_are_built_lazily(self, sf5_tables):
        t = RoutingTables(sf5_tables.adjacency)
        assert all(r is None for r in t.candidate_rows())
        t.sample_min_path(0, 7, 1)
        built = [u for u, r in enumerate(t.candidate_rows()) if r is not None]
        assert 0 in built and len(built) <= t.diameter()

    def test_dragonfly_rows(self, df3):
        t = RoutingTables(df3.adjacency)
        for at in range(0, df3.num_routers, 5):
            for dst in range(0, df3.num_routers, 3):
                assert list(t.candidate_row(at)[dst]) == scalar_candidates(t, at, dst)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_sample_min_path_generator_and_buffer(self, sf5_tables, seed):
        t = sf5_tables
        scalar = np.random.default_rng(seed)
        fast = np.random.default_rng(seed)
        draws = DrawBuffer(np.random.default_rng(seed))
        for src in range(0, 50, 3):
            for dst in range(0, 50, 7):
                want = scalar_sample_min_path(t, src, dst, scalar)
                assert t.sample_min_path(src, dst, fast) == want
        scalar = np.random.default_rng(seed)
        for src in range(0, 50, 3):
            for dst in range(0, 50, 7):
                want = scalar_sample_min_path(t, src, dst, scalar)
                assert t.sample_min_path(src, dst, draws) == want
        draws.sync()
        assert _same_state(draws.rng, scalar)

    def test_count_min_paths_unchanged(self, df3):
        t = RoutingTables(df3.adjacency)

        def count(u, dst):
            if u == dst:
                return 1
            return sum(count(v, dst) for v in scalar_candidates(t, u, dst))

        for src, dst in [(0, 113), (5, 60), (17, 18), (40, 41)]:
            assert t.count_min_paths(src, dst) == count(src, dst)


# -- planner differential ---------------------------------------------------

CALLS = 2000
SYNC_EVERY = 97


def _pairs(n, seed):
    rng = np.random.default_rng(1000 + seed)
    pairs = rng.integers(0, n, size=(CALLS, 2)).tolist()
    # A few src == dst calls: planners return [src] without drawing.
    for i in range(0, CALLS, 251):
        pairs[i][1] = pairs[i][0]
    return pairs


def _run_differential(fast, oracle, num_routers, network, seed):
    for i, (src, dst) in enumerate(_pairs(num_routers, seed)):
        assert fast.plan(src, dst, network) == oracle.plan(src, dst, network), i
        if i % SYNC_EVERY == SYNC_EVERY - 1:
            fast.sync_rng()
            assert _same_state(fast.rng, oracle.rng), i
    fast.sync_rng()
    assert _same_state(fast.rng, oracle.rng)


SEEDS = [0, 3, 17]


class TestPlannerDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("max_hops", [None, 3])
    def test_valiant(self, sf5_tables, seed, max_hops):
        _run_differential(
            ValiantRouting(sf5_tables, seed=seed, max_hops=max_hops),
            ScalarValiant(sf5_tables, seed, max_hops=max_hops),
            sf5_tables.num_routers, None, seed,
        )

    def test_valiant_counts_each_intermediate_draw(self, sf5_tables):
        """The resample loop calls random_intermediate once per try."""
        fast = ValiantRouting(sf5_tables, seed=2, max_hops=2)
        calls = []
        original = fast.random_intermediate
        fast.random_intermediate = lambda s, d: calls.append(1) or original(s, d)
        oracle = ScalarValiant(sf5_tables, 2, max_hops=2)
        tries = []
        scalar_original = oracle.random_intermediate
        oracle.random_intermediate = (
            lambda s, d: tries.append(1) or scalar_original(s, d)
        )
        for src, dst in _pairs(50, 2)[:300]:
            assert fast.plan(src, dst) == oracle.plan(src, dst)
        assert len(calls) == len(tries) > 300

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_ugal(self, sf5_tables, seed, mode):
        _run_differential(
            UGALRouting(sf5_tables, mode, seed=seed),
            ScalarUGAL(sf5_tables, mode, seed),
            sf5_tables.num_routers,
            FakeQueues(sf5_tables.adjacency, seed), seed,
        )

    def test_ugal_without_network(self, sf5_tables):
        _run_differential(
            UGALRouting(sf5_tables, "local", seed=5),
            ScalarUGAL(sf5_tables, "local", 5),
            sf5_tables.num_routers, None, 5,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_dragonfly_ugal(self, df3, seed, mode):
        tables = RoutingTables(df3.adjacency)
        _run_differential(
            DragonflyUGAL(df3, tables, mode=mode, seed=seed),
            ScalarDragonflyUGAL(df3, tables, mode, seed),
            df3.num_routers, FakeQueues(df3.adjacency, seed), seed,
        )

    @pytest.mark.parametrize("groups", [2, 3])
    def test_dragonfly_ugal_few_groups(self, groups):
        """Two groups leave no intermediate group between distinct
        groups (the sampled-minimal fallback); three leave one (a draw
        of integers(1), which consumes nothing)."""
        df = Dragonfly(2, 1, 1, num_groups=groups)
        tables = RoutingTables(df.adjacency)
        _run_differential(
            DragonflyUGAL(df, tables, seed=1),
            ScalarDragonflyUGAL(df, tables, "local", 1),
            df.num_routers, FakeQueues(df.adjacency, 1), 1,
        )


# -- the per-phase queue snapshot --------------------------------------------


def test_queue_snapshot_matches_live_view(sf5):
    cfg = SimConfig(num_vcs=3, buffer_per_port=12)
    net = SimNetwork(sf5, cfg)
    rng = np.random.default_rng(0)
    for c in range(net.num_channels):
        for _ in range(int(rng.integers(0, 3))):
            net.out_stage[c].append(object())
    cap = cfg.buffer_per_vc
    net.credits_flat[:] = rng.integers(0, cap + 1, size=len(net.credits_flat)).tolist()
    snap = QueueSnapshot(net.port_base_list, net.port_index, net.queue_lengths)
    for u, nbrs in enumerate(sf5.adjacency):
        for v in nbrs:
            assert snap.queue_length(u, v) == net.queue_length(u, v)
    # Frozen until invalidated.
    net.out_stage[0].append(object())
    u, v = 0, sf5.adjacency[0][0]
    assert snap.queue_length(u, v) == net.queue_length(u, v) - 1
    snap.invalidate()
    assert snap.queue_length(u, v) == net.queue_length(u, v)
