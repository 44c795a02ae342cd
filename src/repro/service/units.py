"""Work units: what one is, how it runs, and what it returns.

A *unit* is the scheduling grain produced by :func:`partition_units`:
one open-loop scenario, or one batch of consecutive pending
closed-loop scenarios.  This module owns the single code path that
turns a unit into result payloads, :func:`execute_unit`.  A local
:func:`~repro.scenarios.runner.run_campaign` runs it in process, one
unit at a time; a service worker runs it for each leased unit; the
coordinator runs it for its in-process fallback.  Local and remote
execution therefore cannot drift apart, and ``execute_unit`` is the
only emitter of the per-unit heartbeat events.

Payloads are the campaign-independent part of a row, built by the row
builders below (:func:`_open_payload`, :func:`_closed_payload`,
:func:`_metrics_payload`).  They are what the content-addressed store
keys by ``scenario_hash`` and what workers ship back over the wire;
the runner stamps the campaign name in.  That is what makes the
service byte-transparent: a row that crossed the wire is constructed
by the same code as a row that never left the process.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.scenarios.resolve import ResolvedScenario, resolve
from repro.scenarios.spec import Scenario, scenario_hash
from repro.sim.parallel import (
    CompletionTask,
    parallel_latency_vs_load,
    parallel_workload_completion,
    simulations_started,
)
from repro.sim.stats import LoadPoint, WorkloadResult

__all__ = [
    "UnitEntry",
    "execute_unit",
    "from_wire",
    "partition_units",
    "to_wire",
]


def _clean(value):
    """NaN -> None so rows stay strict JSON (and reload unchanged)."""
    if isinstance(value, float) and value != value:
        return None
    return value


def _sims_per_s(sims: int, wall: float) -> float | None:
    """Simulation rate for a heartbeat event; null when meaningless.

    Fully-resumed campaigns schedule zero simulations and can finish in
    ~zero wall-clock — both make a rate division-prone nonsense, so
    such events carry ``sims_per_s: null`` instead.
    """
    if not sims or wall <= 0:
        return None
    return round(sims / wall, 2)


def _open_payload(
    h: str,
    scenario: Scenario,
    points: Sequence[LoadPoint],
    disconnected: bool = False,
) -> list[dict]:
    """One open-loop scenario's result rows, minus the campaign name.

    Because the runner's final line is ``canonical_json`` either way, a
    row replayed from a payload is byte-identical to a freshly
    simulated one.

    Rows of a faulted scenario additionally carry ``fault_fraction``
    (the spec's link-kill fraction — the x-axis of degradation
    figures) and ``disconnected``; healthy scenarios write neither
    key, so their pre-fault row bytes are untouched.
    """
    spec = scenario.to_dict()
    rows = []
    for i, pt in enumerate(points):
        row = {
            "scenario": h,
            "label": scenario.label,
            "engine": "open",
            "fidelity": scenario.backend,
            "row": i,
            "rows": len(points),
            "load": pt.load,
            "latency": _clean(pt.latency),
            "accepted": _clean(pt.accepted),
            "saturated": bool(pt.saturated),
            "spec": spec,
        }
        if scenario.fault is not None:
            row["fault_fraction"] = scenario.fault.link_fraction
            row["disconnected"] = bool(disconnected)
        rows.append(row)
    return rows


def _metrics_payload(
    h: str, scenario: Scenario, points: Sequence[LoadPoint]
) -> list[dict]:
    """Telemetry sidecar rows for one open-loop scenario (campaign-free).

    One row per load point that actually carries telemetry; fill
    points past the saturation short-circuit (and every point of a
    telemetry-off scenario) contribute nothing.  ``row``/``rows``
    mirror the main result rows, so a sidecar row joins its result
    row on (scenario, row).
    """
    rows = []
    for i, pt in enumerate(points):
        if pt.telemetry is None:
            continue
        row = {
            "scenario": h,
            "label": scenario.label,
            "row": i,
            "rows": len(points),
            "load": pt.load,
        }
        row.update(pt.telemetry.to_dict())
        rows.append(row)
    return rows


def _closed_payload(
    h: str, scenario: Scenario, result: WorkloadResult
) -> list[dict]:
    """One closed-loop scenario's result row, minus the campaign name."""
    return [
        {
            "scenario": h,
            "label": scenario.label,
            "engine": "closed",
            "fidelity": scenario.backend,
            "row": 0,
            "rows": 1,
            "workload": result.workload,
            "num_messages": result.num_messages,
            "completed_messages": result.completed_messages,
            "finished": result.finished,
            "makespan": result.makespan,
            "cycles": result.cycles,
            "delivered_flits": result.delivered_flits,
            "avg_message_latency": _clean(result.avg_message_latency),
            "p99_message_latency": _clean(result.p99_message_latency),
            "avg_packet_latency": _clean(result.avg_packet_latency),
            "flits_per_cycle": _clean(result.flits_per_cycle),
            "spec": scenario.to_dict(),
        }
    ]


def _run_open(resolved: ResolvedScenario, workers: int) -> list[LoadPoint]:
    s = resolved.scenario
    return parallel_latency_vs_load(
        resolved.topology,
        resolved.routing_factory,
        resolved.traffic,
        loads=s.loads,
        config=resolved.config,
        workers=workers,
        replicas=s.replicas,
        stop_after_saturation=s.stop_after_saturation,
        backend=resolved.backend,
        telemetry=resolved.telemetry,
    )


def _open_scenario_payloads(
    h: str, resolved: ResolvedScenario, workers: int
) -> tuple[list[dict], list[dict]]:
    """Run one resolved open-loop scenario (hash ``h``) into (rows, metrics).

    A faulted scenario whose degraded topology fell apart
    short-circuits into structured ``disconnected`` rows — one per
    load point, null latency and throughput — without touching the
    simulator (routing tables over a disconnected graph are
    undefined).
    """
    scenario = resolved.scenario
    if resolved.disconnected:
        points = [
            LoadPoint(load=load, latency=None, accepted=None, saturated=False)
            for load in scenario.loads
        ]
        return _open_payload(h, scenario, points, disconnected=True), []
    points = _run_open(resolved, workers)
    return (
        _open_payload(h, scenario, points),
        _metrics_payload(h, scenario, points),
    )


def partition_units(
    scenarios: Sequence[Scenario], pending: Sequence[bool]
) -> list[tuple[str, list[int]]]:
    """Split the pending scenarios into schedulable work units.

    An open-loop scenario is one unit; a run of pending closed-loop
    scenarios — consecutive modulo already-cached neighbours, stopping
    at the next pending open-loop scenario — forms one batch unit (the
    grain :func:`~repro.sim.parallel.parallel_workload_completion`
    receives).  Units are in campaign order, so executing them in
    order and emitting cached scenarios between them reconstructs the
    campaign's deterministic row order.
    """
    units: list[tuple[str, list[int]]] = []
    i = 0
    while i < len(scenarios):
        if not pending[i]:
            i += 1
        elif scenarios[i].engine == "open":
            units.append(("open", [i]))
            i += 1
        else:
            j = i
            batch: list[int] = []
            while j < len(scenarios) and not (
                pending[j] and scenarios[j].engine == "open"
            ):
                if pending[j]:
                    batch.append(j)
                j += 1
            units.append(("closed", batch))
            i = j
    return units


class UnitEntry:
    """One scenario of a work unit, with its campaign position.

    ``index``/``of`` locate the scenario in the campaign (heartbeat
    events carry them so progress reads the same whether a scenario
    ran locally or on a worker three hosts away).
    """

    __slots__ = ("index", "of", "scenario")

    def __init__(self, index: int, of: int, scenario: Scenario):
        self.index = index
        self.of = of
        self.scenario = scenario


def to_wire(entry: UnitEntry) -> dict:
    """Serialize a unit entry for a lease message."""
    return {"index": entry.index, "of": entry.of, "spec": entry.scenario.to_dict()}


def from_wire(data: dict) -> UnitEntry:
    """Parse a lease message's unit entry back into spec form."""
    return UnitEntry(
        index=int(data["index"]),
        of=int(data["of"]),
        scenario=Scenario.from_dict(data["spec"]),
    )


def execute_unit(
    campaign: str,
    kind: str,
    entries: list[UnitEntry],
    workers: int = 1,
    heartbeat=None,
) -> tuple[list[dict], int]:
    """Run one work unit; return its payloads and simulation count.

    ``kind`` is ``"open"`` (exactly one entry, the load × replica grid
    fanned across ``workers``) or ``"closed"`` (the batch handed to
    :func:`~repro.sim.parallel.parallel_workload_completion` whole).
    Returns one payload dict per entry, in entry order —
    ``{"scenario": hash, "rows": [...], "metrics": [...]}`` — plus the
    number of simulations the unit scheduled.  ``heartbeat`` receives
    scenario_start/finish (open) or batch_start/finish (closed)
    events.  The finish events name the engine that actually ran:
    ``backend`` on scenario_finish, ``backends`` (one per scenario)
    on batch_finish — the resolved backend, which may differ from the
    spec's (resolution picks the cycle engine by routing family).
    """

    def _emit(**fields) -> None:
        if heartbeat is not None:
            heartbeat(**fields)

    sims0 = simulations_started()
    t0 = time.perf_counter()
    if kind == "open":
        (entry,) = entries
        s = entry.scenario
        h = scenario_hash(s)
        position = dict(
            campaign=campaign, scenario=h, label=s.label,
            index=entry.index, of=entry.of, workers=workers,
        )
        _emit(event="scenario_start", **position)
        resolved = resolve(s)
        rows, metrics = _open_scenario_payloads(h, resolved, workers)
        wall = time.perf_counter() - t0
        sims = simulations_started() - sims0
        _emit(
            event="scenario_finish", **position,
            wall_s=round(wall, 3), sims=sims,
            sims_per_s=_sims_per_s(sims, wall), backend=resolved.backend,
        )
        payloads = [{"scenario": h, "rows": rows, "metrics": metrics}]
    elif kind == "closed":
        resolved_all = [resolve(entry.scenario) for entry in entries]
        tasks = [
            CompletionTask(
                topology=r.topology,
                routing_factory=r.routing_factory,
                workload=r.workload,
                config=r.config,
                max_cycles=entry.scenario.max_cycles,
                label=entry.scenario.label,
                backend=r.backend,
            )
            for entry, r in zip(entries, resolved_all)
        ]
        position = dict(
            campaign=campaign, engine="closed", scenarios=len(entries),
            index=entries[0].index, of=entries[0].of, workers=workers,
        )
        _emit(event="batch_start", **position)
        results = parallel_workload_completion(tasks, workers=workers)
        wall = time.perf_counter() - t0
        sims = simulations_started() - sims0
        _emit(
            event="batch_finish", **position, wall_s=round(wall, 3),
            sims=sims, sims_per_s=_sims_per_s(sims, wall),
            backends=[r.backend for r in resolved_all],
        )
        payloads = []
        for entry, result in zip(entries, results):
            h = scenario_hash(entry.scenario)
            payloads.append(
                {
                    "scenario": h,
                    "rows": _closed_payload(h, entry.scenario, result),
                    "metrics": [],
                }
            )
    else:
        raise ValueError(f"unknown unit kind {kind!r}")
    return payloads, simulations_started() - sims0
