"""Engine-backend registry: one simulation contract, several fidelities.

The only place a backend name (the ``backend`` axis of a
:class:`~repro.scenarios.spec.Scenario`, the ``backend=`` argument of
:func:`repro.sim.parallel.parallel_latency_vs_load`) maps to engine
code.  Three implementations:

- ``cycle`` — the cycle-accurate flit-level engine
  (:mod:`repro.sim.engine`): bit-exact against the frozen seed
  implementation, worker-count independent rows, open and closed loop.
- ``cycle-vec`` — the same cycle-accurate semantics rebuilt as batched
  numpy phases (:mod:`repro.sim.engine_vec`): bit-exact against
  ``cycle`` for open and closed loop under table-driven and
  source-routed algorithms, with a speedup that grows with instance
  size (~2x at q=5, ~7x at q=11, >10x by q=17 — per-cycle numpy
  dispatch overhead amortises over wider batches).  Per-hop adaptive
  algorithms (FT ANCA) have no batched form and are rejected.
  Scenario resolution picks between the two cycle engines by routing
  family (:func:`repro.scenarios.resolve._execution_backend`): per-hop
  routings on ``cycle``, all others here, whichever cycle spelling
  the spec names.
- ``flow`` — the flow-level fluid solver (:mod:`repro.sim.flowlevel`):
  steady-state link rates by iterated water-filling, ~100-1000x faster,
  scales to full paper-size MMS instances; open loop only, rows
  byte-identical across worker counts (it consumes no RNG and runs
  in-process).

Every backend answers the same questions — one load point
(:meth:`EngineBackend.simulate` -> :class:`~repro.sim.stats.SimResult`),
one load sweep (:meth:`EngineBackend.sweep` ->
:class:`~repro.sim.stats.LoadPoint` rows, walked by the one wave loop
:func:`repro.sim.parallel.sweep_loads`) and, where supported, one
closed-loop run (:meth:`EngineBackend.simulate_workload`) — so
campaigns can grid over fidelities and the analysis layer can overlay
their curves.  Rows carry the backend under the ``fidelity`` key.
Engine functions are looked up when called, so rebinding e.g.
``repro.sim.engine.simulate`` reaches every dispatch.

The determinism contracts are deliberately different and all load-
bearing (see DESIGN.md, "Layer 2 — backends"): ``cycle`` must stay bit
identical to :mod:`repro.sim.reference`; ``cycle-vec`` must stay bit
identical to ``cycle`` (the differential suite
``tests/test_vec_equivalence.py``); ``flow`` must produce
byte-identical rows for any worker count, pinned against the cycle
engine by the cross-fidelity tolerance suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.sim.config import SimConfig
from repro.sim.stats import LoadPoint, SimResult, WorkloadResult
from repro.sim.telemetry import TelemetrySpec


class EngineBackend(ABC):
    """One simulation fidelity behind the common Layer-2 contract.

    Attributes
    ----------
    name:
        Registry key (the ``backend`` value scenarios serialize).
    fidelity:
        Human-readable fidelity label for docs and reports.
    determinism:
        One-line statement of the backend's determinism contract.
    supports_closed_loop:
        Whether workload (closed-loop) scenarios can dispatch here.
    """

    name: str = "backend"
    fidelity: str = ""
    determinism: str = ""
    supports_closed_loop: bool = False

    @abstractmethod
    def simulate(
        self,
        topology,
        routing,
        traffic,
        offered_load: float,
        config: SimConfig | None = None,
        telemetry: TelemetrySpec | None = None,
    ) -> SimResult:
        """Solve a single (topology, routing, traffic, load) point.

        ``telemetry`` arms the opt-in probe plane
        (:mod:`repro.sim.telemetry`); ``None`` — the default — is the
        zero-cost path with bit-identical results to a probe-free
        build.
        """

    def simulate_workload(
        self,
        topology,
        routing,
        workload,
        config: SimConfig | None = None,
        max_cycles: int | None = None,
    ) -> WorkloadResult:
        """Run one closed-loop workload to completion (or the cycle cap)."""
        raise ValueError(
            f"backend {self.name!r} cannot run closed-loop workloads "
            f"({_capability_summary()})"
        )

    def sweep(
        self,
        topology,
        routing_factory: Callable[[], object],
        traffic,
        loads: Sequence[float],
        config: SimConfig | None = None,
        workers: int | None = 1,
        replicas: int = 1,
        stop_after_saturation: int = 1,
        telemetry: TelemetrySpec | None = None,
    ) -> list[LoadPoint]:
        """Latency-vs-load curve with the shared sweep semantics.

        Runs :func:`~repro.sim.parallel.sweep_loads` with
        :meth:`simulate` as the per-point solver and a fresh routing
        instance for each (load, replica), so stateful RNG streams
        never cross points.  Rows: ascending loads, saturation
        short-circuit fill rows, and worker-count independent results.
        """
        from repro.sim.parallel import sweep_loads

        def solve(load, point_config):
            return self.simulate(
                topology, routing_factory(), traffic, load, point_config,
                telemetry=telemetry,
            )

        return sweep_loads(
            solve, loads, config, workers, replicas, stop_after_saturation
        )


class CycleBackend(EngineBackend):
    """The cycle-accurate flit-level engine (DESIGN.md Layers 1-2)."""

    name = "cycle"
    fidelity = "cycle-accurate (flit level)"
    determinism = (
        "bit-exact vs the frozen seed engine (sim/reference.py) for any "
        "seed and routing; rows identical for any worker count"
    )
    supports_closed_loop = True

    def simulate(
        self, topology, routing, traffic, offered_load, config=None,
        telemetry=None,
    ):
        from repro.sim.engine import simulate

        return simulate(
            topology, routing, traffic, offered_load, config,
            telemetry=telemetry,
        )

    def simulate_workload(
        self, topology, routing, workload, config=None, max_cycles=None
    ):
        from repro.sim.engine import simulate_workload

        return simulate_workload(topology, routing, workload, config, max_cycles)


class CycleVecBackend(EngineBackend):
    """The batched-numpy cycle engine (:mod:`repro.sim.engine_vec`).

    Same flit-level semantics as ``cycle``, executed as vectorised
    phases over preallocated arrays.  Open and closed loop;
    table-driven (MIN) and source-routed (VAL/UGAL) algorithms — a
    per-hop adaptive one (FT ANCA) raises ``ValueError``.
    """

    name = "cycle-vec"
    fidelity = "cycle-accurate (flit level, batched numpy)"
    determinism = (
        "bit-exact vs the cycle backend (open and closed loop, every "
        "registry routing but the per-hop ft-anca); rows identical for "
        "any worker count"
    )
    supports_closed_loop = True

    def simulate(
        self, topology, routing, traffic, offered_load, config=None,
        telemetry=None,
    ):
        from repro.sim.engine_vec import vec_simulate

        return vec_simulate(
            topology, routing, traffic, offered_load, config,
            telemetry=telemetry,
        )

    def simulate_workload(
        self, topology, routing, workload, config=None, max_cycles=None
    ):
        from repro.sim.engine_vec import vec_simulate_workload

        return vec_simulate_workload(
            topology, routing, workload, config, max_cycles
        )


class FlowBackend(EngineBackend):
    """The flow-level fluid solver (:mod:`repro.sim.flowlevel`).

    ``workers`` and ``replicas`` are accepted for signature parity and
    ignored: the model is deterministic (no RNG, no scheduling), so a
    replica average equals the single solution and the in-process
    computation is byte-identical at any worker count — the property
    CI pins with a ``cmp`` between ``--workers 1`` and ``--workers 4``
    campaign outputs.
    """

    name = "flow"
    fidelity = "flow-level (steady-state rates)"
    determinism = (
        "pure function of the spec: no RNG consumed, solved in-process; "
        "rows byte-identical across worker counts and reruns"
    )
    supports_closed_loop = False

    def simulate(
        self, topology, routing, traffic, offered_load, config=None,
        telemetry=None,
    ):
        from repro.sim.flowlevel import flow_simulate

        return flow_simulate(
            topology, routing, traffic, offered_load, config,
            telemetry=telemetry,
        )

    def sweep(
        self,
        topology,
        routing_factory,
        traffic,
        loads,
        config=None,
        workers=1,
        replicas=1,
        stop_after_saturation=1,
        telemetry=None,
    ):
        """Build the :class:`~repro.sim.flowlevel.FlowModel` once and
        walk the loads in process (one replica: nothing is random)."""
        from repro.sim.flowlevel import FlowModel

        model = FlowModel(topology, routing_factory(), traffic)
        return model.sweep(loads, config, stop_after_saturation, telemetry)


#: name -> backend singleton (backends are stateless dispatchers).
ENGINE_BACKENDS: dict[str, EngineBackend] = {
    backend.name: backend
    for backend in (CycleBackend(), CycleVecBackend(), FlowBackend())
}

#: Accepted ``backend`` values, registry order (``cycle`` first: the
#: default every pre-backend spec implicitly carries).
BACKEND_KINDS = tuple(ENGINE_BACKENDS)


def backends_supporting(kind: str) -> list[str]:
    """Registry names able to run a scenario kind, registry order.

    ``kind`` is a scenario's engine mode: ``"open"`` (traffic + loads
    axis — every backend) or ``"closed"`` (workload DAG — backends
    whose :attr:`EngineBackend.supports_closed_loop` is set).  Error
    paths enumerate this list so a rejected spec names its fixes.
    """
    if kind == "closed":
        return [
            name
            for name, backend in ENGINE_BACKENDS.items()
            if backend.supports_closed_loop
        ]
    if kind == "open":
        return list(ENGINE_BACKENDS)
    raise ValueError(f"unknown scenario kind {kind!r}; choose 'open' or 'closed'")


def _capability_summary() -> str:
    """One-line capability listing for dispatch error messages."""
    return (
        f"open-loop capable: {backends_supporting('open')}; "
        f"closed-loop capable: {backends_supporting('closed')}"
    )


def get_backend(name: str) -> EngineBackend:
    """Look up an engine backend by registry name."""
    try:
        return ENGINE_BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown engine backend {name!r}; choose from "
            f"{sorted(ENGINE_BACKENDS)} ({_capability_summary()})"
        ) from None
