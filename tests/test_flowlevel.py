"""Flow-level backend: demand model, water-filling, backend registry."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.routing import MinimalRouting, RoutingTables
from repro.routing.fattree_routing import ANCARouting
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import ValiantRouting
from repro.scenarios.spec import canonical_json
from repro.sim import LoadPoint, SimConfig, simulate_workload, vec_simulate_workload
from repro.sim.backends import (
    BACKEND_KINDS,
    ENGINE_BACKENDS,
    get_backend,
)
from repro.sim.flowlevel import (
    FlowModel,
    flow_simulate,
    flow_sweep,
    router_demands,
    waterfill,
)
from repro.sim.parallel import parallel_latency_vs_load
from repro.topologies import FatTree3, SlimFly
from repro.traffic import UniformRandom
from repro.traffic.adversarial import worst_case_for
from repro.traffic.permutations import BitReversalPattern, ShiftPattern
from repro.traffic.patterns import FixedPermutation
from repro.workloads.registry import make_placed_workload

CFG = SimConfig(warmup_cycles=50, measure_cycles=100, drain_cycles=400)


@pytest.fixture(scope="module")
def sf():
    return SlimFly.from_q(5)


@pytest.fixture(scope="module")
def tables(sf):
    return RoutingTables(sf.adjacency)


class TestRouterDemands:
    def test_uniform_mass_and_symmetry(self, sf):
        D, intra, n_active = router_demands(
            UniformRandom(sf.num_endpoints), sf
        )
        # Every endpoint offers exactly 1 flit/cycle in total.
        assert math.isclose(D.sum() + intra, sf.num_endpoints)
        assert n_active == sf.num_endpoints
        assert np.allclose(D, D.T)  # uniform is symmetric
        assert np.all(np.diag(D) == 0)

    def test_permutation_demand(self, sf):
        pat = FixedPermutation({0: 7, 7: 0, 1: 9}, name="toy")
        D, intra, n_active = router_demands(pat, sf)
        assert n_active == 3
        assert math.isclose(D.sum() + intra, 3.0)
        emap = sf.endpoint_map
        assert D[emap[0], emap[7]] >= 1.0

    def test_shift_splits_half_rate(self, sf):
        D, intra, n_active = router_demands(
            ShiftPattern(sf.num_endpoints), sf
        )
        size = ShiftPattern(sf.num_endpoints).size
        assert n_active == size
        # Every source has a self-directed outcome on one of its two
        # coin sides, so exactly half the offered mass enters the
        # pattern (the other half idles, as in the cycle engine).
        assert math.isclose(D.sum() + intra, size / 2)

    def test_bit_pattern_drops_fixed_points(self, sf):
        pat = BitReversalPattern(sf.num_endpoints)
        D, intra, n_active = router_demands(pat, sf)
        fixed = sum(1 for s in range(pat.size) if pat._map(s) == s)
        assert math.isclose(D.sum() + intra, pat.size - fixed)

    def test_unsupported_pattern_rejected(self, sf):
        class Mystery:
            pass

        with pytest.raises(ValueError, match="no demand model"):
            router_demands(Mystery(), sf)


class TestWaterfill:
    def _fill(self, demands, paths, channels):
        ent_flow = np.asarray(
            [f for f, chans in enumerate(paths) for _ in chans]
        )
        ent_chan = np.asarray([c for chans in paths for c in chans])
        return waterfill(np.asarray(demands, float), ent_flow, ent_chan, channels)

    def test_shared_bottleneck_splits_fairly(self):
        rates = self._fill([1.0, 1.0], [[0], [0]], 1)
        assert np.allclose(rates, [0.5, 0.5])

    def test_demand_cap_frees_capacity(self):
        # Flow 0 wants only 0.2; flow 1 takes the rest of the channel.
        rates = self._fill([0.2, 1.0], [[0], [0]], 1)
        assert np.allclose(rates, [0.2, 0.8])

    def test_disjoint_flows_meet_demand(self):
        rates = self._fill([0.7, 0.4], [[0], [1]], 2)
        assert np.allclose(rates, [0.7, 0.4])

    def test_multi_hop_bottleneck(self):
        # Flow 0 crosses both channels; flow 1 only the second.  The
        # second channel is the bottleneck; max-min gives 0.5 each.
        rates = self._fill([1.0, 1.0], [[0, 1], [1]], 2)
        assert np.allclose(rates, [0.5, 0.5])

    def test_max_min_dominates_proportional(self):
        # Classic 3-flow line network: the long flow shares both
        # links; max-min gives the short flows the freed headroom.
        rates = self._fill([1.0, 1.0, 1.0], [[0, 1], [0], [1]], 2)
        assert np.allclose(rates, [0.5, 0.5, 0.5])

    def test_never_exceeds_capacity(self, sf, tables):
        model = FlowModel(
            sf, MinimalRouting(tables), UniformRandom(sf.num_endpoints)
        )
        demands = 2.0 * model.flow_demand  # far past saturation
        rates = waterfill(
            demands, model.ent_flow, model.ent_chan, model.cmap.num_channels
        )
        loads = np.bincount(
            model.ent_chan,
            weights=rates[model.ent_flow],
            minlength=model.cmap.num_channels,
        )
        assert loads.max() <= 1.0 + 1e-9
        assert np.all(rates <= demands + 1e-12)


class TestFlowModel:
    def test_model_kind_per_routing(self, sf, tables):
        uni = UniformRandom(sf.num_endpoints)
        assert FlowModel(sf, MinimalRouting(tables), uni).kind == "min"
        assert FlowModel(sf, ValiantRouting(tables, seed=0), uni).kind == "val"
        assert (
            FlowModel(sf, UGALRouting(tables, "local", seed=0), uni).kind
            == "ugal"
        )
        ft = FatTree3(4)
        assert (
            FlowModel(ft, ANCARouting(ft, seed=0), UniformRandom(
                ft.num_endpoints)).kind
            == "spread"
        )

    def test_unsupported_routing_rejected(self, sf):
        class Teleport:
            pass

        with pytest.raises(ValueError, match="no path-set model"):
            FlowModel(sf, Teleport(), UniformRandom(sf.num_endpoints))

    def test_ecmp_matches_analysis_fluid_model(self, sf, tables):
        """The vectorised ECMP spread equals the dict-based reference
        fluid model in repro.analysis.channel_load."""
        from repro.analysis.channel_load import channel_loads, uniform_demands

        model = FlowModel(
            sf, MinimalRouting(tables), UniformRandom(sf.num_endpoints)
        )
        loads = model._ecmp_loads(model.D)
        reference = channel_loads(sf, uniform_demands(sf), tables=tables)
        for (u, v), value in reference.items():
            c = model.cmap.chan_of[u, v]
            assert math.isclose(loads[c], value, rel_tol=1e-9)
        assert math.isclose(loads.sum(), sum(reference.values()), rel_tol=1e-9)

    def test_min_collapses_on_worstcase(self, sf, tables):
        """The Fig 6d structure: MIN collapses near 1/(2p) offered load
        while VAL sustains several times more."""
        wc = worst_case_for(sf, tables=tables, seed=0)
        loads = [round(0.05 * i, 4) for i in range(1, 20)]
        min_sat = FlowModel(sf, MinimalRouting(tables), wc).saturation_load(loads)
        val_sat = FlowModel(
            sf, ValiantRouting(tables, seed=0), wc
        ).saturation_load(loads)
        assert min_sat is not None and min_sat <= 0.3
        assert val_sat is None or val_sat >= 2 * min_sat

    def test_latency_monotone_below_saturation(self, sf, tables):
        model = FlowModel(
            sf, MinimalRouting(tables), UniformRandom(sf.num_endpoints)
        )
        lats = []
        for load in (0.1, 0.3, 0.5, 0.7):
            res = model.simulate(load, CFG)
            assert not res.saturated
            lats.append(res.avg_latency)
            assert res.p99_latency >= res.avg_latency
        assert lats == sorted(lats)

    def test_saturated_point_contract(self, sf, tables):
        wc = worst_case_for(sf, tables=tables, seed=0)
        res = FlowModel(sf, MinimalRouting(tables), wc).simulate(0.9, CFG)
        assert res.saturated
        assert res.delivered == 0  # the sweep layer nulls the latency
        assert math.isnan(res.avg_latency)
        assert 0 < res.accepted_load < 0.9

    def test_sweep_marks_past_saturation(self, sf, tables):
        wc = worst_case_for(sf, tables=tables, seed=0)
        points = flow_sweep(
            sf, lambda: MinimalRouting(tables), wc,
            [0.1, 0.3, 0.5, 0.7, 0.9], CFG,
        )
        saturated = [p.saturated for p in points]
        first = saturated.index(True)
        assert all(saturated[first:])
        # Fill rows carry the plateau accepted value, latency None.
        assert points[-1].latency is None
        assert points[-1].accepted == points[first].accepted

    def test_deterministic_across_runs(self, sf, tables):
        def rows():
            pts = flow_sweep(
                sf,
                lambda: UGALRouting(tables, "local", seed=0),
                UniformRandom(sf.num_endpoints),
                [0.2, 0.5, 0.8],
                CFG,
            )
            return canonical_json([
                [p.load, p.latency, p.accepted, p.saturated] for p in pts
            ])

        assert rows() == rows()


class TestBackendRegistry:
    def test_registry_contents(self):
        assert BACKEND_KINDS == ("cycle", "cycle-vec", "flow")
        assert ENGINE_BACKENDS["cycle"].supports_closed_loop
        assert ENGINE_BACKENDS["cycle-vec"].supports_closed_loop
        assert not ENGINE_BACKENDS["flow"].supports_closed_loop
        for backend in ENGINE_BACKENDS.values():
            assert backend.fidelity and backend.determinism

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown engine backend"):
            get_backend("warp")

    def test_unknown_backend_error_lists_choices(self):
        """The error text enumerates every registered backend."""
        with pytest.raises(KeyError) as exc:
            get_backend("warp")
        message = str(exc.value)
        for name in ("cycle", "cycle-vec", "flow"):
            assert name in message

    def test_cycle_vec_backend_matches_cycle(self, sf, tables):
        from repro.sim.engine import simulate

        uni = UniformRandom(sf.num_endpoints)
        direct = simulate(sf, MinimalRouting(tables), uni, 0.4, CFG)
        via = get_backend("cycle-vec").simulate(
            sf, MinimalRouting(tables), uni, 0.4, CFG
        )
        assert direct == via

    def test_cycle_backend_matches_direct_engine(self, sf, tables):
        from repro.sim.engine import simulate

        uni = UniformRandom(sf.num_endpoints)
        direct = simulate(sf, MinimalRouting(tables), uni, 0.4, CFG)
        via = get_backend("cycle").simulate(
            sf, MinimalRouting(tables), uni, 0.4, CFG
        )
        assert direct == via

    def test_flow_backend_matches_direct_solver(self, sf, tables):
        uni = UniformRandom(sf.num_endpoints)
        direct = flow_simulate(sf, MinimalRouting(tables), uni, 0.4, CFG)
        via = get_backend("flow").simulate(
            sf, MinimalRouting(tables), uni, 0.4, CFG
        )
        assert direct == via

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_dispatch_worker_independent(self, sf, tables, workers):
        """parallel_latency_vs_load(backend='flow') yields identical
        rows at any worker count (the flow determinism contract)."""
        uni = UniformRandom(sf.num_endpoints)
        points = parallel_latency_vs_load(
            sf,
            lambda: MinimalRouting(tables),
            uni,
            loads=[0.2, 0.5, 0.8],
            config=CFG,
            workers=workers,
            backend="flow",
        )
        expected = flow_sweep(
            sf, lambda: MinimalRouting(tables), uni, [0.2, 0.5, 0.8], CFG
        )
        assert points == expected

    def test_parallel_dispatch_unknown_backend(self, sf, tables):
        with pytest.raises(KeyError, match="unknown engine backend"):
            parallel_latency_vs_load(
                sf,
                lambda: MinimalRouting(tables),
                UniformRandom(sf.num_endpoints),
                loads=[0.2],
                backend="warp",
            )

    @pytest.mark.parametrize(
        "name, direct",
        [("cycle", simulate_workload), ("cycle-vec", vec_simulate_workload)],
    )
    def test_closed_loop_dispatch_matches_direct_engine(
        self, sf, tables, name, direct
    ):
        wl = make_placed_workload(
            "halo2d", sf, 16, size_flits=4, iterations=1, placement="spread"
        )
        cfg = SimConfig(seed=11)
        expected = direct(sf, MinimalRouting(tables), wl, cfg)
        via = get_backend(name).simulate_workload(
            sf, MinimalRouting(tables), wl, cfg
        )
        assert via.message_completions == expected.message_completions
        assert via == expected

    def test_flow_backend_refuses_closed_loop(self, sf, tables):
        wl = make_placed_workload("halo2d", sf, 16, size_flits=4, iterations=1)
        with pytest.raises(ValueError, match="cannot run closed-loop"):
            get_backend("flow").simulate_workload(sf, MinimalRouting(tables), wl)


def _serial_flow_rows(model, loads, stop_after_saturation):
    """Rows of the serial walk, from one FlowModel.simulate per load.

    Returns ``(rows, filled)``: fill rows carry the last solved
    accepted load once ``stop_after_saturation`` consecutive solved
    points saturated; ``filled`` counts them.
    """
    rows, run, last, filled = [], 0, None, 0
    for load in loads:
        if run >= stop_after_saturation:
            rows.append(
                LoadPoint(load=load, latency=None, accepted=last, saturated=True)
            )
            filled += 1
            continue
        r = model.simulate(load, CFG)
        latency = None if r.saturated and r.delivered == 0 else r.avg_latency
        rows.append(
            LoadPoint(
                load=load, latency=latency, accepted=r.accepted_load,
                saturated=r.saturated,
            )
        )
        run = run + 1 if r.saturated else 0
        last = r.accepted_load
    return rows, filled


class TestFlowSweepOracle:
    """The flow sweep against an inline serial walk: the oracle for
    the shared wave loop's cutoff and fill rows on the flow backend."""

    LOADS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    @pytest.mark.parametrize("stop", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worst_case_min_matches_serial_walk(self, sf, tables, stop, workers):
        wc = worst_case_for(sf, tables=tables, seed=0)
        expected, filled = _serial_flow_rows(
            FlowModel(sf, MinimalRouting(tables), wc), self.LOADS, stop
        )
        assert filled > 0, "the schedule must reach the fill rows"
        assert any(not p.saturated for p in expected)
        rows = parallel_latency_vs_load(
            sf, lambda: MinimalRouting(tables), wc, loads=self.LOADS,
            config=CFG, workers=workers, stop_after_saturation=stop,
            backend="flow",
        )
        assert rows == expected
        assert flow_sweep(
            sf, lambda: MinimalRouting(tables), wc, self.LOADS, CFG,
            stop_after_saturation=stop,
        ) == expected
