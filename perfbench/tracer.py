"""Span tracing around the public entry points of each ``repro`` layer.

Nothing inside ``src/`` records spans: :func:`install` rebinds each
entry point, in every ``repro`` module that holds it by name (and on
its class for methods), to a wrapper that records the call.  Two kinds
of wrapper exist:

- **spans** for coarse calls (campaign, resolve, topology and table
  builds, one simulation, store I/O).  Each span records its name,
  start, end, parent span, process and the ``scenario_hash`` of the
  scenario it belongs to; child spans inherit the hash.
- **hot counters** for per-packet calls (``plan``, ``next_hop``,
  ``sample_min_path``, ``destinations``, path costs).  Millions of
  span records would swamp the run, so these aggregate calls, total
  and self time per name, on the same call stack as the spans.

Self time is a call's duration minus the time its direct children
cover.  Spans stay in memory; fork-pool children append theirs to a
per-process spool file after each of their top-level calls, and the
parent merges the spool when the traced pass ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("scenarios.resolve.calls", "count"),
    ("scenarios.resolve.self_s", "s"),
    ("scenarios.resolve.topology_hit_ratio", "ratio"),
    ("scenarios.resolve.tables_hit_ratio", "ratio"),
    ("scenarios.hash.calls", "count"),
    ("scenarios.hash.s", "s"),
    ("scenarios.runner.self_s", "s"),
    ("topologies.build.calls", "count"),
    ("topologies.build.s", "s"),
    ("routing.tables.build.calls", "count"),
    ("routing.tables.build.s", "s"),
    ("routing.tables.sample_min_path.calls", "count"),
    ("routing.tables.sample_min_path.s", "s"),
    ("routing.min.plan.calls", "count"),
    ("routing.min.plan.s", "s"),
    ("routing.val.plan.calls", "count"),
    ("routing.val.plan.s", "s"),
    ("routing.ugal.plan.calls", "count"),
    ("routing.ugal.plan.s", "s"),
    ("routing.df-ugal.plan.calls", "count"),
    ("routing.df-ugal.plan.s", "s"),
    ("routing.path_cost.calls", "count"),
    ("routing.val.draws_per_plan", "ratio"),
    ("routing.ugal.nonmin_frac", "ratio"),
    ("routing.anca.next_hop.calls", "count"),
    ("routing.anca.next_hop.s", "s"),
    ("traffic.build.s", "s"),
    ("traffic.destinations.calls", "count"),
    ("traffic.destinations.s", "s"),
    ("workloads.build.calls", "count"),
    ("workloads.build.s", "s"),
    ("workloads.messages", "count"),
    ("sim.cycle.sims", "count"),
    ("sim.cycle.s", "s"),
    ("sim.cycle-vec.sims", "count"),
    ("sim.cycle-vec.s", "s"),
    ("sim.closed.sims", "count"),
    ("sim.closed.s", "s"),
    ("sim.flow.sweeps", "count"),
    ("sim.flow.s", "s"),
    ("sim.engine.self_s", "s"),
    ("sim.sim_cycles", "count"),
    ("sim.host_us_per_cycle", "us"),
    ("sim.parallel.sims", "count"),
    ("sim.parallel.s", "s"),
    ("sim.parallel.busy_frac", "ratio"),
    ("service.store.put.calls", "count"),
    ("service.store.put.s", "s"),
    ("service.store.put.bytes", "bytes"),
    ("service.store.get.calls", "count"),
    ("service.store.get.s", "s"),
    ("service.store.hit_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]

#: Span name -> executed backend, for the engine entry points.
ENGINE_SPANS = {
    "sim.cycle": "cycle",
    "sim.cycle.closed": "cycle",
    "sim.cycle-vec": "cycle-vec",
    "sim.cycle-vec.closed": "cycle-vec",
    "sim.flow": "flow",
}


class _Frame:
    __slots__ = ("child", "name", "sid", "start", "pid", "scenario")

    def __init__(self, name=None, sid=None, start=0.0, pid=0, scenario=None):
        self.child = 0.0
        self.name = name
        self.sid = sid
        self.start = start
        self.pid = pid
        self.scenario = scenario


class Tracer:
    """In-memory span store plus the wrapper factories."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        #: hot name -> [calls, total s, self s]
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.stack: list[_Frame] = []
        #: id(traffic or workload object) -> (object, scenario hash),
        #: filled by the resolve wrapper to tag simulation spans.
        self.owner: dict[int, tuple[object, str]] = {}
        self._ids = itertools.count()
        # A forked child inherits the parent's records; it keeps only the
        # open stack (its spans' parents) and starts counting afresh.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans.clear()
        self.hot.clear()
        self.counters.clear()

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, scenario=None, tag=None):
        """Wrap ``fn`` in a recorded span.

        ``scenario(args, kwargs)`` names the scenario hash before the
        call (children inherit it; None keeps the parent's), and
        ``tag(args, kwargs, result)`` may return extra attributes,
        including a ``scenario`` only known from the result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            pid = os.getpid()
            parent = stack[-1] if stack else None
            h = scenario(args, kwargs) if scenario is not None else None
            if h is None and parent is not None:
                h = parent.scenario
            frame = _Frame(name, f"{pid}:{next(tracer._ids)}", 0.0, pid, h)
            stack.append(frame)
            result = None
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame.start
                if stack:
                    stack[-1].child += dur
                record = {
                    "name": name, "id": frame.sid,
                    "parent": parent.sid if parent is not None else None,
                    "pid": pid, "start": frame.start, "end": end,
                    "self": dur - frame.child, "scenario": frame.scenario,
                }
                if tag is not None:
                    record.update(tag(args, kwargs, result))
                tracer.spans.append(record)
                if pid != tracer.main_pid and (
                    not stack or stack[-1].pid != pid
                ):
                    tracer._flush_child()

        return wrapper

    def hot_call(self, name, fn, after=None):
        """Wrap a per-packet call: aggregate calls, total and self time."""
        stack = self.stack
        hot = self.hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dur
                rec = hot[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame.child
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        """Wrap ``fn`` with a plain call counter (no timing)."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- fork-pool spool -------------------------------------------------

    def _write(self, fh) -> None:
        for record in self.spans:
            fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps(
            {"hot": dict(self.hot), "counters": dict(self.counters)}
        ) + "\n")

    def _flush_child(self) -> None:
        with open(self.spool / f"spans.{os.getpid()}.jsonl", "a") as fh:
            self._write(fh)
        self._reset()

    def merge_spool(self) -> None:
        """Fold every fork-pool child's spooled records into this process."""
        for path in sorted(self.spool.glob("spans.*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if "hot" not in record:
                    self.spans.append(record)
                    continue
                for k, (calls, total, self_s) in record["hot"].items():
                    rec = self.hot[k]
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += self_s
                for k, n in record["counters"].items():
                    self.counters[k] += n
            path.unlink()

    def dump(self, path: Path) -> None:
        """Write every span, then the hot aggregates, as JSON lines."""
        with open(path, "w") as fh:
            self._write(fh)


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer (call before the campaign)."""
    import importlib

    import repro.scenarios.runner as runner
    import repro.service.store as store
    import repro.sim.backends as backends
    import repro.sim.engine as engine
    import repro.sim.engine_vec as engine_vec
    import repro.sim.parallel as parallel
    from repro.routing.base import RoutingAlgorithm
    from repro.routing.dragonfly_routing import DragonflyUGAL
    from repro.routing.fattree_routing import ANCARouting
    from repro.routing.minimal import MinimalRouting
    from repro.routing.tables import RoutingTables
    from repro.routing.ugal import UGALRouting
    from repro.routing.valiant import ValiantRouting
    from repro.traffic.patterns import TrafficPattern

    from repro.scenarios.spec import scenario_hash as hash_fn

    # The package re-exports the function ``resolve``, which shadows
    # the submodule of the same name as a package attribute.
    resolve_mod = importlib.import_module("repro.scenarios.resolve")

    def owner_of(obj):
        entry = tracer.owner.get(id(obj))
        return entry[1] if entry is not None and entry[0] is obj else None

    def of_scenario(args, kwargs):
        return hash_fn(args[0])

    def remember_owner(args, kwargs, resolved):
        if resolved is not None:
            h = hash_fn(args[0])
            for obj in (resolved.traffic, resolved.workload):
                if obj is not None:
                    tracer.owner[id(obj)] = (obj, h)
        return {}

    def of_input(position):
        # simulate*(topology, routing, traffic | workload, ...), and
        # FlowBackend.sweep(self, topology, routing_factory, traffic, ...)
        def find(args, kwargs):
            if len(args) > position and not isinstance(args[0], list):
                return owner_of(args[position])
            return None

        return find

    def cycles(args, kwargs, result):
        n = getattr(result, "cycles", None)
        return {} if n is None else {"cycles": int(n)}

    def workers(args, kwargs, result):
        return {"workers": kwargs.get("workers", 1) or 1}

    def of_key(args, kwargs):
        return args[1]

    def hit(args, kwargs, entry):
        return {"hit": entry is not None}

    def of_entry(args, kwargs):
        return args[1].scenario

    def put_bytes(args, kwargs, result):
        return {"bytes": len(args[1].to_json().encode()) + 1}

    def hashed(args, kwargs, h):
        return {"scenario": h}

    functions = [
        (runner.run_campaign, "scenarios.run_campaign", None, None),
        (resolve_mod.resolve, "scenarios.resolve", of_scenario, remember_owner),
        (resolve_mod.resolve_topology, "scenarios.resolve_topology", None, None),
        (resolve_mod.tables_for, "scenarios.tables_for", None, None),
        (hash_fn, "scenarios.hash", None, hashed),
        (resolve_mod.balanced_instance, "topologies.build", None, None),
        (resolve_mod.make_pattern, "traffic.build", None, None),
        (resolve_mod.make_placed_workload, "workloads.build", None, None),
        (parallel.parallel_latency_vs_load, "sim.parallel", of_input(2), workers),
        (parallel.parallel_workload_completion, "sim.parallel", None, workers),
        (engine.simulate, "sim.cycle", of_input(2), cycles),
        (engine.simulate_workload, "sim.cycle.closed", of_input(2), cycles),
        (engine_vec.vec_simulate, "sim.cycle-vec", of_input(2), cycles),
        (engine_vec.vec_simulate_workload, "sim.cycle-vec.closed", of_input(2),
         cycles),
    ]
    for fn, name, scenario, tag in functions:
        _rebind(fn, tracer.span(name, fn, scenario, tag))

    RoutingTables.__init__ = tracer.span(
        "routing.tables.build", RoutingTables.__init__)
    backends.FlowBackend.sweep = tracer.span(
        "sim.flow", backends.FlowBackend.sweep, of_input(3))
    store.FileResultStore.get = tracer.span(
        "service.store.get", store.FileResultStore.get, of_key, hit)
    store.FileResultStore.put = tracer.span(
        "service.store.put", store.FileResultStore.put, of_entry, put_bytes)

    RoutingTables.sample_min_path = tracer.hot_call(
        "routing.tables.sample_min_path", RoutingTables.sample_min_path)
    MinimalRouting.plan = tracer.hot_call("routing.min.plan", MinimalRouting.plan)
    ValiantRouting.plan = tracer.hot_call("routing.val.plan", ValiantRouting.plan)
    DragonflyUGAL.plan = tracer.hot_call(
        "routing.df-ugal.plan", DragonflyUGAL.plan)

    def ugal_choice(args, path):
        self, src, dst = args[0], args[1], args[2]
        if path is not None and len(path) - 1 > self.tables.dist[src, dst]:
            tracer.counters["routing.ugal.nonmin"] += 1

    UGALRouting.plan = tracer.hot_call(
        "routing.ugal.plan", UGALRouting.plan, ugal_choice)
    ANCARouting.next_hop = tracer.hot_call(
        "routing.anca.next_hop", ANCARouting.next_hop)
    ValiantRouting.random_intermediate = tracer.count(
        "routing.val.draws", ValiantRouting.random_intermediate)
    RoutingAlgorithm.path_cost_local = staticmethod(tracer.hot_call(
        "routing.path_cost", RoutingAlgorithm.path_cost_local))
    RoutingAlgorithm.path_cost_global = staticmethod(tracer.hot_call(
        "routing.path_cost", RoutingAlgorithm.path_cost_global))

    def pattern_classes(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from pattern_classes(sub)

    for cls in {TrafficPattern, *pattern_classes(TrafficPattern)}:
        if "destinations" in vars(cls):
            setattr(cls, "destinations", tracer.hot_call(
                "traffic.destinations", vars(cls)["destinations"]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rows: list[dict], overhead: float) -> dict:
    """Per-layer metric values from one traced pass (see PER_LAYER)."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span["name"]].append(span)

    def calls(name):
        return len(by_name[name])

    def total(name, key=None):
        spans = by_name[name]
        if key is None:
            return sum(s["end"] - s["start"] for s in spans)
        return sum(s.get(key, 0) for s in spans)

    children: dict[str, set[str]] = defaultdict(set)
    for span in tracer.spans:
        if span["parent"] is not None:
            children[span["parent"]].add(span["name"])

    def hit_ratio(name, builder):
        spans = by_name[name]
        hits = sum(1 for s in spans if builder not in children[s["id"]])
        return _ratio(hits, len(spans))

    hot = tracer.hot
    m: dict[str, float] = {}
    m["scenarios.resolve.calls"] = calls("scenarios.resolve")
    m["scenarios.resolve.self_s"] = total("scenarios.resolve", "self")
    m["scenarios.resolve.topology_hit_ratio"] = hit_ratio(
        "scenarios.resolve_topology", "topologies.build")
    m["scenarios.resolve.tables_hit_ratio"] = hit_ratio(
        "scenarios.tables_for", "routing.tables.build")
    m["scenarios.hash.calls"] = calls("scenarios.hash")
    m["scenarios.hash.s"] = total("scenarios.hash")
    m["scenarios.runner.self_s"] = total("scenarios.run_campaign", "self")
    m["topologies.build.calls"] = calls("topologies.build")
    m["topologies.build.s"] = total("topologies.build")
    m["routing.tables.build.calls"] = calls("routing.tables.build")
    m["routing.tables.build.s"] = total("routing.tables.build")
    for name in (
        "routing.tables.sample_min_path",
        "routing.min.plan",
        "routing.val.plan",
        "routing.ugal.plan",
        "routing.df-ugal.plan",
        "routing.anca.next_hop",
        "traffic.destinations",
    ):
        rec = hot.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = rec[0]
        m[f"{name}.s"] = rec[1]
    m["routing.path_cost.calls"] = hot.get("routing.path_cost", (0,))[0]
    m["routing.val.draws_per_plan"] = _ratio(
        tracer.counters.get("routing.val.draws", 0), m["routing.val.plan.calls"])
    m["routing.ugal.nonmin_frac"] = _ratio(
        tracer.counters.get("routing.ugal.nonmin", 0), m["routing.ugal.plan.calls"])
    m["traffic.build.s"] = total("traffic.build")
    m["workloads.build.calls"] = calls("workloads.build")
    m["workloads.build.s"] = total("workloads.build")
    m["workloads.messages"] = sum(
        r.get("num_messages", 0) for r in rows if r.get("engine") == "closed")

    engine_spans = [s for s in tracer.spans if s["name"] in ENGINE_SPANS]
    for backend in ("cycle", "cycle-vec"):
        spans = [s for s in engine_spans if ENGINE_SPANS[s["name"]] == backend]
        m[f"sim.{backend}.sims"] = len(spans)
        m[f"sim.{backend}.s"] = sum(s["end"] - s["start"] for s in spans)
    closed = [s for s in engine_spans if s["name"].endswith(".closed")]
    m["sim.closed.sims"] = len(closed)
    m["sim.closed.s"] = sum(s["end"] - s["start"] for s in closed)
    m["sim.flow.sweeps"] = calls("sim.flow")
    m["sim.flow.s"] = total("sim.flow")
    m["sim.engine.self_s"] = sum(s["self"] for s in engine_spans)
    m["sim.sim_cycles"] = sum(s.get("cycles", 0) for s in engine_spans)
    m["sim.host_us_per_cycle"] = 1e6 * _ratio(
        m["sim.cycle.s"] + m["sim.cycle-vec.s"], m["sim.sim_cycles"])

    pooled = [s for s in by_name["sim.parallel"] if s["workers"] > 1]
    in_children = [s for s in engine_spans if s["pid"] != tracer.main_pid]
    pool_wall = sum(s["end"] - s["start"] for s in pooled)
    m["sim.parallel.sims"] = len(in_children)
    m["sim.parallel.s"] = pool_wall
    m["sim.parallel.busy_frac"] = _ratio(
        sum(s["end"] - s["start"] for s in in_children),
        sum((s["end"] - s["start"]) * s["workers"] for s in pooled))

    m["service.store.put.calls"] = calls("service.store.put")
    m["service.store.put.s"] = total("service.store.put")
    m["service.store.put.bytes"] = total("service.store.put", "bytes")
    m["service.store.get.calls"] = calls("service.store.get")
    m["service.store.get.s"] = total("service.store.get")
    m["service.store.hit_ratio"] = _ratio(
        sum(1 for s in by_name["service.store.get"] if s["hit"]),
        m["service.store.get.calls"])

    m["trace.overhead"] = overhead
    campaign = by_name["scenarios.run_campaign"]
    wall = sum(s["end"] - s["start"] for s in campaign)
    m["trace.coverage"] = _ratio(wall - sum(s["self"] for s in campaign), wall)
    return m


def executed_backends(tracer: Tracer, labels: dict[str, str]) -> dict:
    """Simulations per executed backend, and each scenario's backend.

    ``labels`` maps scenario hash -> label.  Taken from the engine
    spans, so it shows what actually ran, whatever the spec asked for.
    """
    per_backend: dict[str, int] = defaultdict(int)
    per_scenario: dict[str, set] = defaultdict(set)
    for span in tracer.spans:
        backend = ENGINE_SPANS.get(span["name"])
        if backend is None:
            continue
        per_backend[backend] += 1
        label = labels.get(span["scenario"], span["scenario"])
        per_scenario[label].add(backend)
    return {
        "sims": dict(sorted(per_backend.items())),
        "scenarios": {k: sorted(v) for k, v in per_scenario.items()},
    }
