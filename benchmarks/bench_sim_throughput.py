"""Simulator throughput microbenchmark + the cross-PR perf trajectory.

Fixed configuration — MMS(q=5) Slim Fly, uniform random traffic,
minimal routing at offered load 0.6 with the Fig 6 quick-scale run
lengths — simulated by all three cycle-accurate implementations:

- the **flat engine** (:mod:`repro.sim.engine`): struct-of-arrays
  state, ring-buffer event wheels, batched injection, table-driven MIN;
- the **vectorised engine** (:mod:`repro.sim.engine_vec`, backend
  ``cycle-vec``): every tick phase as batched numpy over preallocated
  arrays — its advantage *grows with scale* (numpy per-call dispatch
  amortises over wider batches), so the speedup gate runs at MMS(q=11)
  where the batch width is paper-relevant;
- the **seed baseline** (:mod:`repro.sim.reference`): the frozen
  per-packet dict-of-deque implementation this repository started
  from, paired with the seed's per-packet MIN planner.

All must produce identical results (asserted here; the full
differential matrices live in ``tests/test_sim_reference_equivalence``
and ``tests/test_vec_equivalence``), the flat engine must deliver
>= 3x the seed's flits/sec, and the vectorised engine >= 5x the flat
engine's at q=11 — each floor tracked via pytest-benchmark.

``test_telemetry_overhead_gates`` holds the probe plane
(:mod:`repro.sim.telemetry`) to its overhead contract at the same
q=11 cycle-vec point: an all-off ``TelemetrySpec`` must cost < 3%
(it normalises to no probes at all), and the full probe set < 25%,
with results unperturbed either way.

``test_adaptive_planning_gate`` covers the routings the paper's Fig 6
actually uses: VAL, UGAL-L and UGAL-G plan a path per packet at
injection, so at MMS(q=11) on ``cycle-vec`` their cost is planning,
not the tick loop.  The gate holds UGAL-L to at most 20 MIN runs
(median of 7 interleaved CPU-time pairs on a short run).

``test_bench_trajectory_json`` additionally times the **flow-level
backend** (a full paper-scale-shaped sweep at MMS(q=11)) and writes
``BENCH_sim.json`` at the repository root — flits/sec for ``cycle``
and ``cycle-vec`` (with speedup ratios, at q=5 and q=11), sweep
rows/sec for ``flow``, telemetry overhead ratios, the adaptive cells'
seconds at q=11 and cycle vs cycle-vec per routing at q=5, plus an
append-only ``history`` list — so the performance trajectory of every
fidelity is tracked across PRs.

Run standalone with ``--profile`` for a cProfile top-20 of both cycle
tick loops::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --profile
"""

import json
import subprocess
import time
from pathlib import Path

from repro.routing import (
    MinimalRouting,
    RoutingTables,
    UGALRouting,
    ValiantRouting,
)
from repro.sim import SimConfig, TelemetrySpec, flow_sweep, simulate, vec_simulate
from repro.sim.reference import ReferenceMinimalRouting, reference_simulate
from repro.topologies import SlimFly
from repro.traffic import UniformRandom

#: The fixed benchmark point: Fig 6 quick-scale cycles, near-peak load.
LOAD = 0.6
CONFIG = SimConfig(warmup_cycles=150, measure_cycles=350, drain_cycles=1200, seed=1)
SPEEDUP_FLOOR = 3.0
#: cycle-vec vs cycle, measured where the batch width is representative
#: (MMS(q=11), 1,452 endpoints).  Locally measured ~7x (and >10x by
#: q=17); the CI floor leaves margin for noisy shared runners.
VEC_SPEEDUP_FLOOR = 5.0
VEC_Q = 11
#: Telemetry overhead ceilings, measured at the q=11 cycle-vec point
#: campaigns actually run.  Off-mode is free by construction (an
#: all-off spec normalises to ``None`` before the tick loop starts),
#: so its ceiling is pure measurement-noise margin; the full probe set
#: adds per-delivery histogram updates and per-tick channel counters.
TELEMETRY_OFF_CEILING = 1.03
TELEMETRY_ON_CEILING = 1.25
#: Flow-backend benchmark: one 10-point sweep, MMS(q=11) = 1,452
#: endpoints (cycle-prohibitive territory), model build included.
FLOW_Q = 11
FLOW_LOADS = [round(0.1 * i, 4) for i in range(1, 11)]
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
#: Adaptive-routing cells: the Fig 6 routings, whose per-packet path
#: planning dominates.  A short run keeps 7 gate pairs at q=11 under a
#: minute.
ADAPTIVE_LOAD = 0.5
ADAPTIVE_CONFIG = SimConfig(
    warmup_cycles=40, measure_cycles=80, drain_cycles=400, seed=1
)
ADAPTIVE_ROUTINGS = {
    "MIN": MinimalRouting,
    "VAL": lambda tables: ValiantRouting(tables, seed=1),
    "UGAL-L": lambda tables: UGALRouting(tables, "local", seed=1),
    "UGAL-G": lambda tables: UGALRouting(tables, "global", seed=1),
}
#: UGAL-L may cost at most this many MIN runs at q=11 on cycle-vec
#: (median pair ratio).  Per-call scalar planning measured about 50.
UGAL_L_OVER_MIN_CEILING = 20.0


def _git_commit() -> str:
    """Short hash of the benched revision (``"unknown"`` off-repo),
    suffixed ``-dirty`` when tracked files differ from it."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7",
             "--exclude=*"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _setup():
    sf = SlimFly.from_q(5)
    tables = RoutingTables(sf.adjacency)
    tables.next_hop_matrix()  # warm the shared table cache
    return sf, tables, UniformRandom(sf.num_endpoints)


def _scale_setup(q):
    sf = SlimFly.from_q(q)
    tables = RoutingTables(sf.adjacency)
    tables.next_hop_matrix()
    return sf, tables, UniformRandom(sf.num_endpoints)


def _median_pair_ratio(run_a, run_b, pairs=7):
    """Median of per-pair CPU-time ratios run_b/run_a.

    Each pair times the two candidates back to back with
    ``time.process_time`` (immune to preemption by neighbours), so a
    slow machine phase hits both sides of a ratio; the median across
    pairs then discards the odd pair that straddled a frequency or
    cache transition.  Far more stable than comparing two independent
    best-of-N wall times on shared CI hardware.
    """
    ratios = []
    times_a = []
    res_a = res_b = None
    for _ in range(pairs):
        t0 = time.process_time()
        res_a = run_a()
        ta = time.process_time() - t0
        t0 = time.process_time()
        res_b = run_b()
        tb = time.process_time() - t0
        ratios.append(tb / ta)
        times_a.append(ta)
    ratios.sort()
    rate_a = res_a.delivered * CONFIG.packet_length / min(times_a)
    return ratios[len(ratios) // 2], rate_a, res_a, res_b


def test_flat_engine_throughput(benchmark):
    sf, tables, traffic = _setup()
    result = benchmark(
        lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG)
    )
    assert result.delivered == result.injected
    assert not result.saturated


def test_reference_engine_throughput(benchmark):
    sf, tables, traffic = _setup()
    result = benchmark(
        lambda: reference_simulate(
            sf, ReferenceMinimalRouting(tables), traffic, LOAD, CONFIG
        )
    )
    assert result.delivered == result.injected


def test_speedup_over_seed_engine():
    """The acceptance bar: >= 3x flits/sec, identical results."""
    sf, tables, traffic = _setup()
    speedup, flat_rate, flat_res, ref_res = _median_pair_ratio(
        lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        lambda: reference_simulate(
            sf, ReferenceMinimalRouting(tables), traffic, LOAD, CONFIG
        ),
    )
    assert flat_res == ref_res, "engines diverged: speedup would be meaningless"
    print(
        f"\nflat engine {flat_rate / 1e3:.1f} kflit/s, "
        f"median speedup over the seed engine {speedup:.2f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"flat engine is only {speedup:.2f}x the seed baseline "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_vec_engine_throughput(benchmark):
    sf, tables, traffic = _setup()
    result = benchmark(
        lambda: vec_simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG)
    )
    assert result.delivered == result.injected
    assert not result.saturated


def test_vec_speedup_over_cycle_at_scale():
    """The cycle-vec acceptance gate, at the scale it is built for.

    At q=5 the batch per numpy call is ~600 elements and per-call
    dispatch overhead caps the win near 2x; at q=11 (1,452 endpoints,
    3,872 channels) the same code runs ~7x the flat engine.  The gate
    asserts >= 5x at q=11 with bit-identical results.
    """
    sf, tables, traffic = _scale_setup(VEC_Q)
    speedup, vec_rate, vec_res, cycle_res = _median_pair_ratio(
        lambda: vec_simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        pairs=3,
    )
    assert vec_res == cycle_res, "engines diverged: speedup would be meaningless"
    print(
        f"\ncycle-vec {vec_rate / 1e3:.1f} kflit/s at q={VEC_Q}, "
        f"median speedup over the flat engine {speedup:.2f}x"
    )
    assert speedup >= VEC_SPEEDUP_FLOOR, (
        f"cycle-vec is only {speedup:.2f}x the flat engine at q={VEC_Q} "
        f"(floor {VEC_SPEEDUP_FLOOR}x)"
    )


def _adaptive_run(engine, setup, routing):
    sf, tables, traffic = setup
    build = ADAPTIVE_ROUTINGS[routing]
    return lambda: engine(sf, build(tables), traffic, ADAPTIVE_LOAD, ADAPTIVE_CONFIG)


def _ugal_l_over_min(setup, pairs=7):
    """Median pair ratio of UGAL-L to MIN CPU time on cycle-vec."""
    ratio, _, _, _ = _median_pair_ratio(
        _adaptive_run(vec_simulate, setup, "MIN"),
        _adaptive_run(vec_simulate, setup, "UGAL-L"),
        pairs=pairs,
    )
    return ratio


def test_adaptive_planning_gate():
    """UGAL-L within UGAL_L_OVER_MIN_CEILING x MIN at q=11 on cycle-vec."""
    ratio = _ugal_l_over_min(_scale_setup(VEC_Q))
    print(f"\nUGAL-L / MIN at q={VEC_Q} on cycle-vec: {ratio:.2f}x (median of 7)")
    assert ratio <= UGAL_L_OVER_MIN_CEILING, (
        f"UGAL-L costs {ratio:.2f}x MIN at q={VEC_Q} "
        f"(ceiling {UGAL_L_OVER_MIN_CEILING}x)"
    )


def _adaptive_cells(setup_q11, setup_q5):
    """Per-routing seconds at q=11 (cycle-vec), and cycle vs cycle-vec
    per routing at q=5 (bit-identical results asserted)."""
    q11 = {}
    for routing in ADAPTIVE_ROUTINGS:
        _, best = _best_of(_adaptive_run(vec_simulate, setup_q11, routing), 2)
        q11[routing] = round(best, 3)
    q5 = {}
    for routing in ADAPTIVE_ROUTINGS:
        speedup, _, vec_res, cycle_res = _median_pair_ratio(
            _adaptive_run(vec_simulate, setup_q5, routing),
            _adaptive_run(simulate, setup_q5, routing),
            pairs=3,
        )
        assert vec_res == cycle_res, f"cycle-vec diverged from cycle ({routing})"
        _, vec_s = _best_of(_adaptive_run(vec_simulate, setup_q5, routing), 1)
        q5[routing] = {
            "cycle_vec_s": round(vec_s, 3),
            "cycle_over_cycle_vec": round(speedup, 2),
        }
    return q11, q5


def _telemetry_overheads(pairs=3):
    """Off- and full-probe overhead ratios at the q=11 cycle-vec point.

    Each ratio is probed-time / plain-time (``_median_pair_ratio`` with
    the plain run as ``run_a``), so 1.0 means the probes were free.
    Returns ``(off_ratio, on_ratio)`` after asserting the
    zero-perturbation contract on both modes.
    """
    sf, tables, traffic = _scale_setup(VEC_Q)
    plain = lambda: vec_simulate(  # noqa: E731
        sf, MinimalRouting(tables), traffic, LOAD, CONFIG
    )
    off_ratio, _, plain_res, off_res = _median_pair_ratio(
        plain,
        lambda: vec_simulate(
            sf, MinimalRouting(tables), traffic, LOAD, CONFIG,
            telemetry=TelemetrySpec(),
        ),
        pairs=pairs,
    )
    assert off_res == plain_res, "all-off telemetry perturbed the results"
    assert off_res.telemetry is None
    on_ratio, _, plain_res, on_res = _median_pair_ratio(
        plain,
        lambda: vec_simulate(
            sf, MinimalRouting(tables), traffic, LOAD, CONFIG,
            telemetry=TelemetrySpec.full(),
        ),
        pairs=pairs,
    )
    assert on_res.telemetry is not None
    assert on_res.avg_latency == plain_res.avg_latency
    assert on_res.delivered == plain_res.delivered
    assert on_res.accepted_load == plain_res.accepted_load
    return off_ratio, on_ratio


def test_telemetry_overhead_gates():
    """The probe plane's overhead contract (DESIGN.md, telemetry)."""
    off_ratio, on_ratio = _telemetry_overheads()
    print(
        f"\ntelemetry overhead at q={VEC_Q} cycle-vec: "
        f"off {off_ratio:.3f}x (ceiling {TELEMETRY_OFF_CEILING}x), "
        f"full probes {on_ratio:.3f}x (ceiling {TELEMETRY_ON_CEILING}x)"
    )
    assert off_ratio < TELEMETRY_OFF_CEILING, (
        f"telemetry-off costs {off_ratio:.3f}x "
        f"(ceiling {TELEMETRY_OFF_CEILING}x): the off path must be free"
    )
    assert on_ratio < TELEMETRY_ON_CEILING, (
        f"full probe set costs {on_ratio:.3f}x "
        f"(ceiling {TELEMETRY_ON_CEILING}x)"
    )


def _flow_setup():
    return _scale_setup(FLOW_Q)


def _best_of(fn, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.process_time()
        result = fn()
        elapsed = time.process_time() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_flow_backend_sweep(benchmark):
    sf, tables, traffic = _flow_setup()
    points = benchmark(
        lambda: flow_sweep(
            sf, lambda: MinimalRouting(tables), traffic, FLOW_LOADS, CONFIG
        )
    )
    assert len(points) == len(FLOW_LOADS)
    assert any(p.latency is not None for p in points)


def test_bench_trajectory_json():
    """Every fidelity's rate, written to the repo root (BENCH_sim.json).

    ``cycle``: flits/sec of the flat engine on the fixed MMS(q=5)
    point plus its speedup over the frozen seed engine.
    ``cycle-vec``: flits/sec and speedup-vs-cycle at the q=5 point and
    at MMS(q=11), where the batched phases hit their stride — the pair
    documents how the advantage scales.  ``flow``: sweep rows/sec of
    the flow-level backend on MMS(q=11) including model build — the
    end-to-end cost a campaign actually pays.  The ``history`` list is
    append-only: one entry per run, preserved across rewrites, so the
    perf trajectory survives PR after PR.  Determinism backstops keep
    every rate honest.
    """
    sf, tables, traffic = _setup()
    cycle_res, cycle_time = _best_of(
        lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG)
    )
    assert cycle_res.delivered == cycle_res.injected
    flits_per_sec = cycle_res.delivered * CONFIG.packet_length / cycle_time

    vec_q5_speedup, vec_q5_rate, vec_q5_res, _ = _median_pair_ratio(
        lambda: vec_simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
    )
    assert vec_q5_res == cycle_res, "cycle-vec diverged from cycle at q=5"

    vsf, vtables, vtraffic = _scale_setup(VEC_Q)
    vec_q11_speedup, vec_q11_rate, vec_q11_res, cyc_q11_res = _median_pair_ratio(
        lambda: vec_simulate(
            vsf, MinimalRouting(vtables), vtraffic, LOAD, CONFIG
        ),
        lambda: simulate(vsf, MinimalRouting(vtables), vtraffic, LOAD, CONFIG),
        pairs=3,
    )
    assert vec_q11_res == cyc_q11_res, "cycle-vec diverged from cycle at q=11"

    tele_off, tele_on = _telemetry_overheads()

    fsf, ftables, ftraffic = _flow_setup()
    points, flow_time = _best_of(
        lambda: flow_sweep(
            fsf, lambda: MinimalRouting(ftables), ftraffic, FLOW_LOADS, CONFIG
        )
    )
    rows_per_sec = len(points) / flow_time
    again = flow_sweep(
        fsf, lambda: MinimalRouting(ftables), ftraffic, FLOW_LOADS, CONFIG
    )
    assert again == points, "flow backend must be deterministic"

    q11_setup = (vsf, vtables, vtraffic)
    adaptive_q11, adaptive_q5 = _adaptive_cells(q11_setup, (sf, tables, traffic))
    ugal_ratio = _ugal_l_over_min(q11_setup)

    history = []
    if BENCH_PATH.exists():
        try:
            history = json.loads(BENCH_PATH.read_text()).get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    history.append(
        {
            "date": time.strftime("%Y-%m-%d"),
            "commit": _git_commit(),
            "cycle_flits_per_sec": round(flits_per_sec, 1),
            "cycle_vec_flits_per_sec": round(vec_q5_rate, 1),
            "cycle_vec_speedup_q5": round(vec_q5_speedup, 2),
            "cycle_vec_speedup_q11": round(vec_q11_speedup, 2),
            "flow_rows_per_sec": round(rows_per_sec, 2),
            "telemetry_off_overhead_q11": round(tele_off, 3),
            "telemetry_on_overhead_q11": round(tele_on, 3),
            "adaptive_q11_cycle_vec_s": adaptive_q11,
            "ugal_l_over_min_q11": round(ugal_ratio, 2),
            "adaptive_q5": adaptive_q5,
        }
    )

    payload = {
        "benchmark": "sim_throughput",
        "cycle": {
            "network": "SlimFly MMS(q=5)",
            "routing": "MIN",
            "offered_load": LOAD,
            "flits_per_sec": round(flits_per_sec, 1),
        },
        "cycle-vec": {
            "network": "SlimFly MMS(q=5)",
            "routing": "MIN",
            "offered_load": LOAD,
            "flits_per_sec": round(vec_q5_rate, 1),
            "speedup_vs_cycle": round(vec_q5_speedup, 2),
            "at_scale": {
                "network": f"SlimFly MMS(q={VEC_Q})",
                "flits_per_sec": round(vec_q11_rate, 1),
                "speedup_vs_cycle": round(vec_q11_speedup, 2),
            },
        },
        "flow": {
            "network": f"SlimFly MMS(q={FLOW_Q})",
            "routing": "MIN",
            "sweep_points": len(FLOW_LOADS),
            "rows_per_sec": round(rows_per_sec, 2),
        },
        "telemetry": {
            "network": f"SlimFly MMS(q={VEC_Q})",
            "backend": "cycle-vec",
            "off_overhead": round(tele_off, 3),
            "on_overhead": round(tele_on, 3),
            "off_ceiling": TELEMETRY_OFF_CEILING,
            "on_ceiling": TELEMETRY_ON_CEILING,
        },
        "adaptive": {
            "network": f"SlimFly MMS(q={VEC_Q})",
            "backend": "cycle-vec",
            "offered_load": ADAPTIVE_LOAD,
            "cycles": [
                ADAPTIVE_CONFIG.warmup_cycles,
                ADAPTIVE_CONFIG.measure_cycles,
                ADAPTIVE_CONFIG.drain_cycles,
            ],
            "cpu_s": adaptive_q11,
            "ugal_l_over_min": round(ugal_ratio, 2),
            "ugal_l_over_min_ceiling": UGAL_L_OVER_MIN_CEILING,
            "q5_cycle_vs_cycle_vec": adaptive_q5,
        },
        "history": history,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\ncycle {flits_per_sec / 1e3:.1f} kflit/s, "
        f"cycle-vec {vec_q5_rate / 1e3:.1f} kflit/s "
        f"({vec_q5_speedup:.2f}x q=5, {vec_q11_speedup:.2f}x q={VEC_Q}), "
        f"flow {rows_per_sec:.1f} sweep rows/s, "
        f"telemetry {tele_off:.3f}x off / {tele_on:.3f}x on, "
        f"UGAL-L {ugal_ratio:.2f}x MIN at q={VEC_Q} -> "
        f"{BENCH_PATH.name}"
    )


def _profile_tick_loops(top=20):
    """cProfile both cycle backends on the fixed point, print top-N."""
    import cProfile
    import pstats

    sf, tables, traffic = _setup()
    for label, fn in (
        (
            "cycle",
            lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        ),
        (
            "cycle-vec",
            lambda: vec_simulate(
                sf, MinimalRouting(tables), traffic, LOAD, CONFIG
            ),
        ),
    ):
        print(f"\n=== {label}: cProfile top {top} (cumulative) ===")
        profiler = cProfile.Profile()
        profiler.enable()
        fn()
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(top)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Simulator throughput benchmark (see module docstring)."
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="dump a cProfile top-20 of the tick loop for both cycle backends",
    )
    args = parser.parse_args(argv)
    if args.profile:
        _profile_tick_loops()
        return
    test_speedup_over_seed_engine()
    test_vec_speedup_over_cycle_at_scale()
    test_telemetry_overhead_gates()
    test_adaptive_planning_gate()
    test_bench_trajectory_json()


if __name__ == "__main__":
    main()
