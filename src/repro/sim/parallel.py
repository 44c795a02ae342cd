"""Parallel sweep orchestrator (DESIGN.md, Layer 3).

Owns the one load walk every backend sweeps through
(:func:`sweep_loads`): it fans the (offered load × seed replica) grid
of a latency-vs-load experiment across ``multiprocessing`` workers and
returns the same :class:`~repro.sim.stats.LoadPoint` rows the serial
:func:`~repro.sim.sweep.latency_vs_load` produces:

- **Determinism** — each (point, replica) derives its RNG seed from
  the config seed and the replica index alone, so results are
  identical for any worker count (including the in-process
  executor).  Replica 0 keeps the config seed itself, which makes a
  1-replica parallel sweep bit-for-bit equal to the serial sweep.
- **Saturation short-circuit** — the serial sweep stops simulating
  after ``stop_after_saturation`` consecutive saturated points and
  marks the tail.  This runner schedules loads in waves (ascending),
  re-evaluates the cutoff after each wave, and replaces any row past
  the cutoff with the same marked ``LoadPoint`` — output equality is
  preserved while wasted work is bounded by one wave.
- **One wave loop, two executors** — a wave runs on a fork pool
  (``workers`` wide) or, with ``workers <= 1`` or no ``fork`` start
  method, through the builtin ``map`` in this process, one load per
  wave (so the in-process path never overshoots the cutoff).
- **Worker transport** — tasks carry only ``(load, replica)``
  tuples; the task function (a closure over the topology, routing
  factory, traffic pattern, config and backend, never pickled) is
  published in a module global *before* the pool forks, so children
  inherit it by copy-on-write.  This requires the ``fork`` start
  method; platforms without it (Windows, macOS spawn default)
  transparently run in process instead.

With ``replicas > 1`` each load point is simulated under several
derived seeds and the row reports the replica mean (latency averaged
over non-saturated replicas, accepted load over all, saturation by
majority vote) — the cheap way to put confidence behind a curve.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.sim.backends import get_backend
from repro.sim.config import SimConfig
from repro.sim.stats import LoadPoint, SimResult, WorkloadResult
from repro.sim.sweep import default_loads
from repro.sim.telemetry import TelemetrySpec, merge_telemetry

#: The task function published to forked workers (set per pool).
_WORK: Callable | None = None

#: Simulations scheduled by this process (serial runs and tasks handed
#: to a pool alike) since import.  Scheduled == executed — waves only
#: ever contain tasks that run — so the delta across a call is the
#: number of simulations it cost.  The campaign resume tests and CI
#: assert a zero delta when every scenario is reused from cache.
_SIMULATIONS_STARTED = 0


def simulations_started() -> int:
    """Monotonic count of simulations this process has scheduled."""
    return _SIMULATIONS_STARTED


def _count_simulations(n: int) -> None:
    global _SIMULATIONS_STARTED
    _SIMULATIONS_STARTED += n


def credit_simulations(n: int) -> None:
    """Credit simulations executed remotely on this process's behalf.

    The campaign-service coordinator runs work units on other
    processes/hosts; their workers report how many simulations each
    unit cost, and the coordinator credits them here so
    :func:`simulations_started` keeps meaning "simulations this
    campaign scheduled" regardless of where they ran.  A no-op resume
    still credits nothing.
    """
    if n > 0:
        _count_simulations(int(n))


def replica_seed(base_seed: int, replica: int) -> int:
    """Deterministic seed for one replica, independent of scheduling.

    Replica 0 is the config seed itself (serial equivalence); higher
    replicas hash (seed, replica) through ``numpy.random.SeedSequence``
    for statistically independent streams.
    """
    if replica == 0:
        return int(base_seed)
    ss = np.random.SeedSequence([int(base_seed), int(replica)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _aggregate(load: float, results: Sequence[SimResult]) -> LoadPoint:
    """Collapse one point's replica results into a LoadPoint row."""
    if len(results) == 1:
        r = results[0]
        latency = None if r.saturated and r.delivered == 0 else r.avg_latency
        return LoadPoint(
            load=load, latency=latency, accepted=r.accepted_load,
            saturated=r.saturated, telemetry=r.telemetry,
        )
    # Strict majority: a tie (e.g. 1 of 2 replicas) does not mark the
    # point saturated, so the sweep keeps simulating the tail.
    saturated = 2 * sum(r.saturated for r in results) > len(results)
    lats = [
        r.avg_latency
        for r in results
        if not (r.saturated and r.delivered == 0)
        and r.avg_latency == r.avg_latency  # drop NaN
    ]
    latency = sum(lats) / len(lats) if lats else None
    accepted = sum(r.accepted_load for r in results) / len(results)
    telemetry = merge_telemetry([r.telemetry for r in results])
    return LoadPoint(
        load=load, latency=latency, accepted=accepted, saturated=saturated,
        telemetry=telemetry,
    )


def _cutoff(
    points: Sequence[LoadPoint | None], stop_after_saturation: int
) -> int | None:
    """Index of the walk's first fill row, or None if it has not stopped.

    The serial walk stops simulating once ``stop_after_saturation``
    consecutive points saturated; points past that index are never
    read, so unsolved (``None``) entries may follow it.
    """
    run = 0
    for i, pt in enumerate(points):
        if run >= stop_after_saturation:
            return i
        run = run + 1 if pt.saturated else 0
    return len(points) if run >= stop_after_saturation else None


def _fork_context():
    # fork is listed as available on macOS but is unsafe there once
    # Accelerate/CoreFoundation state exists (the reason CPython moved
    # macOS to spawn-by-default); honour the documented in-process fallback.
    if sys.platform == "darwin":
        return None
    try:
        if "fork" in mp.get_all_start_methods():
            return mp.get_context("fork")
    except ValueError:  # pragma: no cover - exotic platforms
        pass
    return None


def _call_published(task):
    """Pool-side adapter: run the fork-inherited task function."""
    return _WORK(task)


@contextmanager
def _executor(workers: int, fn: Callable):
    """Yield ``(run, width)``: the executor of every fan-out here.

    ``run(tasks)`` returns ``fn(task)`` for each task, in task order;
    ``width`` is how many tasks run at once.  With ``workers > 1`` and
    ``fork`` available it is a fork pool (``chunksize=1``) whose
    children inherit ``fn`` (a closure, never pickled) through the
    module global published before the fork; tasks must pickle.
    Otherwise it is the builtin ``map`` in this process with ``fn``
    bound directly — no global, so in-process fan-outs on concurrent
    threads stay independent — and a width of one.
    """
    global _WORK
    ctx = _fork_context() if workers > 1 else None
    if ctx is None:
        yield (lambda tasks: map(fn, tasks)), 1
        return
    _WORK = fn
    try:
        with ctx.Pool(processes=workers) as pool:
            yield (
                lambda tasks: pool.map(_call_published, tasks, chunksize=1)
            ), workers
    finally:
        _WORK = None


def resolve_workers(workers: int | None, num_tasks: int) -> int:
    """0/None means one worker per core, bounded by the task count."""
    if not workers or workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, num_tasks))


def sweep_loads(
    solve: Callable[[float, SimConfig], SimResult],
    loads: Sequence[float],
    config: SimConfig | None = None,
    workers: int | None = 1,
    replicas: int = 1,
    stop_after_saturation: int = 1,
) -> list[LoadPoint]:
    """The load walk behind every backend's :meth:`sweep`.

    ``solve(load, config)`` answers one (load, replica) point, the
    config carrying the replica's seed.  Loads run in ascending waves
    on :func:`_executor` until the saturation cutoff; rows past it
    (pool waves may overshoot) become fill rows carrying the last kept
    point's accepted load, exactly as in the serial walk.
    """
    loads = list(loads)
    config = config or SimConfig()
    workers = resolve_workers(workers, len(loads) * replicas)

    def solve_replica(task: tuple[float, int]) -> SimResult:
        load, replica = task
        seed = replica_seed(config.seed, replica)
        if seed == config.seed:
            return solve(load, config)
        return solve(load, replace(config, seed=seed))

    points: list[LoadPoint | None] = [None] * len(loads)
    with _executor(workers, solve_replica) as (run_tasks, width):
        loads_per_wave = max(1, width // replicas)
        done = 0
        while (
            done < len(loads)
            and _cutoff(points[:done], stop_after_saturation) is None
        ):
            wave = range(done, min(done + loads_per_wave, len(loads)))
            tasks = [(loads[i], rep) for i in wave for rep in range(replicas)]
            _count_simulations(len(tasks))
            results = list(run_tasks(tasks))
            for k, i in enumerate(wave):
                points[i] = _aggregate(
                    loads[i], results[k * replicas : (k + 1) * replicas]
                )
            done = wave[-1] + 1
    cut = _cutoff(points, stop_after_saturation)
    if cut is None:
        cut = len(loads)
    accepted = points[cut - 1].accepted if cut else None
    return points[:cut] + [
        LoadPoint(load=load, latency=None, accepted=accepted, saturated=True)
        for load in loads[cut:]
    ]


def parallel_latency_vs_load(
    topology,
    routing_factory: Callable[[], object],
    traffic,
    loads: Sequence[float] | None = None,
    config: SimConfig | None = None,
    workers: int | None = None,
    replicas: int = 1,
    stop_after_saturation: int = 1,
    backend: str = "cycle",
    telemetry: TelemetrySpec | None = None,
) -> list[LoadPoint]:
    """Latency-vs-load curve, fanned across processes.

    Drop-in replacement for :func:`repro.sim.sweep.latency_vs_load`
    (identical rows for ``replicas=1``, any ``workers``), plus seed
    replication.  ``workers=None`` or ``0`` auto-sizes to the CPU
    count; ``workers=1`` runs in-process.  ``backend`` names the
    engine fidelity in the :mod:`repro.sim.backends` registry, whose
    :meth:`~repro.sim.backends.EngineBackend.sweep` runs the curve.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    return get_backend(backend).sweep(
        topology,
        routing_factory,
        traffic,
        loads if loads is not None else default_loads(),
        config=config,
        workers=workers,
        replicas=replicas,
        stop_after_saturation=stop_after_saturation,
        telemetry=telemetry,
    )


@dataclass
class CompletionTask:
    """One closed-loop simulation point for the workload fan-out.

    ``routing_factory`` builds a fresh routing instance inside the
    worker (stateful RNG streams never cross task boundaries), exactly
    like the load-sweep contract.
    """

    topology: object
    routing_factory: Callable[[], object]
    workload: object
    config: SimConfig = field(default_factory=SimConfig)
    max_cycles: int | None = None
    label: str = ""
    #: Engine fidelity, a closed-loop capable name in the
    #: :mod:`repro.sim.backends` registry.  Those backends produce
    #: bit-identical rows (the differential suite), so the choice
    #: changes only speed.
    backend: str = "cycle"


def parallel_workload_completion(
    tasks: Sequence[CompletionTask],
    workers: int | None = None,
) -> list[WorkloadResult]:
    """Fan closed-loop workload points across processes.

    Returns one :class:`~repro.sim.stats.WorkloadResult` per task, in
    task order.  Tasks are independent closed-loop runs, each
    deterministic given its config seed, so the rows — including every
    per-message completion timestamp — are identical for any worker
    count (the acceptance bar of the workload experiment family).
    Transport follows the sweep runner: tasks are published to the
    fork-inherited module global and workers receive only indices, so
    topologies/closures never pickle.  Each task names its engine
    fidelity (:attr:`CompletionTask.backend`); the closed-loop capable
    backends produce bit-identical rows, so mixing them in one fan-out
    changes nothing but speed.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    workers = resolve_workers(workers, len(tasks))
    _count_simulations(len(tasks))

    def run_task(index: int) -> WorkloadResult:
        task = tasks[index]
        return get_backend(task.backend).simulate_workload(
            task.topology, task.routing_factory(), task.workload, task.config,
            task.max_cycles,
        )

    with _executor(workers, run_task) as (run_tasks, _width):
        return list(run_tasks(range(len(tasks))))
