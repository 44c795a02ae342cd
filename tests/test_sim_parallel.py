"""Tests for the parallel sweep orchestrator (repro.sim.parallel).

Covers the sweep-behavior checklist: serial-vs-parallel row equality,
seed determinism across worker counts, the saturation short-circuit,
and replica aggregation.
"""

import pytest

from repro.routing import MinimalRouting, ValiantRouting
from repro.sim import (
    SimConfig,
    TelemetrySpec,
    latency_vs_load,
    parallel_latency_vs_load,
    replica_seed,
)
from repro.sim import parallel
from repro.sim.parallel import resolve_workers, simulations_started
from repro.traffic import UniformRandom

CFG = SimConfig(warmup_cycles=100, measure_cycles=250, drain_cycles=1200, seed=5)
LOADS = [0.1, 0.35, 0.6, 0.85]


@pytest.fixture
def uniform(sf5):
    return UniformRandom(sf5.num_endpoints)


class TestSerialParallelEquivalence:
    def test_rows_identical_to_serial_sweep(self, sf5, sf5_tables, uniform):
        serial = latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS, config=CFG
        )
        parallel = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
            config=CFG, workers=3,
        )
        assert serial == parallel

    def test_deterministic_across_worker_counts(self, sf5, sf5_tables, uniform):
        curves = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
                config=CFG, workers=w,
            )
            for w in (1, 2, 4)
        ]
        assert curves[0] == curves[1] == curves[2]

    def test_unpicklable_routing_factory_is_fine(self, sf5, sf5_tables, uniform):
        """Closures fan out via fork inheritance, not pickling."""
        tables = sf5_tables
        factory = lambda: MinimalRouting(tables)  # noqa: E731 - the point
        points = parallel_latency_vs_load(
            sf5, factory, uniform, loads=[0.2, 0.5], config=CFG, workers=2
        )
        assert len(points) == 2
        assert not points[0].saturated


class TestCycleVecDispatch:
    """backend='cycle-vec' rides the same fork pool as 'cycle': rows
    must be identical across worker counts and equal to the cycle rows
    (the vectorised engine's bit-exactness carried to sweep level)."""

    def test_rows_identical_across_worker_counts(self, sf5, sf5_tables, uniform):
        rows = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
                config=CFG, workers=w, backend="cycle-vec",
            )
            for w in (1, 2, 4)
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_rows_equal_cycle_backend(self, sf5, sf5_tables, uniform):
        vec = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
            config=CFG, workers=2, backend="cycle-vec",
        )
        cyc = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
            config=CFG, workers=2, backend="cycle",
        )
        assert vec == cyc

    def test_replicated_rows_deterministic(self, sf5, sf5_tables, uniform):
        rows = [
            parallel_latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=3), uniform,
                loads=[0.2, 0.5], config=CFG, workers=w, replicas=2,
                backend="cycle-vec",
            )
            for w in (1, 4)
        ]
        assert rows[0] == rows[1]


class TestSaturationShortCircuit:
    def test_tail_marked_not_simulated(self, sf5, sf5_tables, uniform):
        """VAL saturates near 0.5; later loads must come back marked
        (latency None) exactly as the serial sweep reports them."""
        loads = [0.3, 0.55, 0.7, 0.85, 0.95]
        serial = latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
            loads=loads, config=CFG, stop_after_saturation=1,
        )
        parallel = parallel_latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
            loads=loads, config=CFG, workers=2, stop_after_saturation=1,
        )
        assert serial == parallel
        marked = [pt for pt in parallel if pt.latency is None and pt.saturated]
        assert marked, "expected short-circuited tail points"

    def test_stop_after_two(self, sf5, sf5_tables, uniform):
        loads = [0.55, 0.7, 0.85, 0.95]
        serial = latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
            loads=loads, config=CFG, stop_after_saturation=2,
        )
        parallel = parallel_latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
            loads=loads, config=CFG, workers=4, stop_after_saturation=2,
        )
        assert serial == parallel

    def test_fill_rows_carry_last_accepted(self, sf5, sf5_tables, uniform):
        """Short-circuited rows report the last measured accepted
        throughput (the plateau) instead of a hole: fig6/fig8 tables
        render a complete accepted column past the cutoff."""
        loads = [0.3, 0.55, 0.7, 0.85, 0.95]
        for sweep in (
            latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
                loads=loads, config=CFG, stop_after_saturation=1,
            ),
            parallel_latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
                loads=loads, config=CFG, workers=2, stop_after_saturation=1,
            ),
        ):
            # stop_after_saturation=1: the first saturated point is the
            # last one simulated; every later row is a fill.
            first_sat = next(i for i, pt in enumerate(sweep) if pt.saturated)
            fills = sweep[first_sat + 1 :]
            assert fills, "expected short-circuited tail points"
            assert sweep[first_sat].accepted is not None
            for pt in fills:
                assert pt.saturated and pt.latency is None
                assert pt.accepted == sweep[first_sat].accepted


class TestForklessFallback:
    def test_rows_and_sim_count_match_the_pool(
        self, sf5, sf5_tables, uniform, monkeypatch
    ):
        """Without fork, workers > 1 runs the same wave loop in process,
        one load per wave: same rows, and exactly the unmarked rows'
        replicas get simulated."""
        loads = [0.3, 0.55, 0.7, 0.85, 0.95]
        kwargs = dict(
            loads=loads, config=CFG, workers=2, replicas=2,
            stop_after_saturation=2,
        )

        def sweep():
            return parallel_latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
                **kwargs,
            )

        pooled = sweep()
        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        before = simulations_started()
        fallback = sweep()
        sims = simulations_started() - before
        assert fallback == pooled
        unmarked, run = 0, 0
        for pt in fallback:
            if run >= 2:
                break
            unmarked += 1
            run = run + 1 if pt.saturated else 0
        assert unmarked < len(loads), "expected a short-circuited tail"
        assert sims == unmarked * 2


class TestReplicas:
    def test_replica_seeds_are_stable_and_distinct(self):
        seeds = [replica_seed(5, r) for r in range(4)]
        assert seeds[0] == 5  # replica 0 keeps the config seed
        assert len(set(seeds)) == 4
        assert seeds == [replica_seed(5, r) for r in range(4)]

    def test_replicated_rows_deterministic_across_workers(
        self, sf5, sf5_tables, uniform
    ):
        curves = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2, 0.5], config=CFG, workers=w, replicas=3,
            )
            for w in (1, 3)
        ]
        assert curves[0] == curves[1]

    def test_replica_mean_close_to_single_seed(self, sf5, sf5_tables, uniform):
        single = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=[0.3], config=CFG, workers=1,
        )[0]
        averaged = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=[0.3], config=CFG, workers=1, replicas=3,
        )[0]
        assert averaged.latency == pytest.approx(single.latency, rel=0.2)
        assert averaged.accepted == pytest.approx(single.accepted, rel=0.1)
        assert not averaged.saturated

    def test_replicas_must_be_positive(self, sf5, sf5_tables, uniform):
        with pytest.raises(ValueError):
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2], config=CFG, replicas=0,
            )


class TestTelemetrySweeps:
    """Telemetry attachments through the fork pool: LoadPoints must
    carry identical probe payloads at any worker count, on both
    batched backends, and replica merging must be deterministic."""

    TELE = TelemetrySpec.full()

    @staticmethod
    def _payload(points):
        return [
            (
                tuple(pt.telemetry.latency_hist),
                tuple(pt.telemetry.channel_flits),
                tuple(pt.telemetry.max_queue),
                pt.telemetry.route_packets,
                pt.telemetry.route_diverted,
            )
            for pt in points
        ]

    @pytest.mark.parametrize("backend", ["cycle", "cycle-vec"])
    def test_identical_across_worker_counts(self, sf5, sf5_tables, uniform,
                                            backend):
        sweeps = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2, 0.5], config=CFG, workers=w, backend=backend,
                telemetry=self.TELE,
            )
            for w in (1, 4)
        ]
        assert sweeps[0] == sweeps[1]
        assert self._payload(sweeps[0]) == self._payload(sweeps[1])

    def test_cycle_and_vec_payloads_equal(self, sf5, sf5_tables, uniform):
        cyc, vec = (
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2, 0.5], config=CFG, workers=2, backend=b,
                telemetry=self.TELE,
            )
            for b in ("cycle", "cycle-vec")
        )
        assert self._payload(cyc) == self._payload(vec)

    def test_replica_merge_deterministic(self, sf5, sf5_tables, uniform):
        sweeps = [
            parallel_latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=3), uniform,
                loads=[0.2], config=CFG, workers=w, replicas=2,
                telemetry=self.TELE,
            )
            for w in (1, 4)
        ]
        assert self._payload(sweeps[0]) == self._payload(sweeps[1])
        merged = sweeps[0][0].telemetry
        # Two replicas merged: histogram counts every delivery of both.
        assert sum(merged.latency_hist) > 0
        assert merged.cycles > 0

    def test_off_mode_rows_unchanged_and_unattached(self, sf5, sf5_tables,
                                                    uniform):
        plain = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=LOADS, config=CFG, workers=2,
        )
        off = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=LOADS, config=CFG, workers=2, telemetry=TelemetrySpec(),
        )
        assert plain == off
        assert all(pt.telemetry is None for pt in off)

    def test_short_circuit_fills_carry_no_telemetry(self, sf5, sf5_tables,
                                                    uniform):
        sweep = parallel_latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
            loads=[0.3, 0.55, 0.7, 0.85, 0.95], config=CFG, workers=2,
            stop_after_saturation=1, telemetry=self.TELE,
        )
        fills = [pt for pt in sweep if pt.latency is None and pt.saturated]
        assert fills, "expected short-circuited tail points"
        assert all(pt.telemetry is None for pt in fills)
        simulated = [pt for pt in sweep if pt.latency is not None]
        assert all(pt.telemetry is not None for pt in simulated)


class TestWorkerResolution:
    def test_auto_sizing(self):
        assert resolve_workers(None, 100) >= 1
        assert resolve_workers(0, 100) >= 1
        assert resolve_workers(8, 3) == 3  # bounded by task count
        assert resolve_workers(2, 100) == 2
