"""Generate docs/REGISTRY.md from the live registries.

Every string key the spec layer accepts — topologies, routing
algorithms, traffic patterns, workloads, placements — is introspected
from the registry modules themselves (keys, self-description class
maps, and constructor signatures), so the reference cannot drift from
the code: ``tests/test_registry_docs.py`` regenerates this document
and fails if the committed copy differs.

Regenerate with:

    PYTHONPATH=src python docs/gen_registry.py
"""

from __future__ import annotations

import inspect
from pathlib import Path

HEADER = """\
# Registry reference

<!-- AUTO-GENERATED by docs/gen_registry.py - do not edit by hand.
     Regenerate with: PYTHONPATH=src python docs/gen_registry.py -->

Every simulation input is referenced by a string key resolved through
a registry (this is what makes `Scenario` specs serializable - see
DESIGN.md, Layer 5). This file lists every accepted key with its
parameters, introspected from the registries so it cannot go stale.
"""


def _first_doc_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""


def _sig(obj, skip: tuple[str, ...] = ()) -> str:
    """A callable's parameter list as text, minus ``skip`` names."""
    params = [
        str(p)
        for name, p in inspect.signature(obj).parameters.items()
        if name not in skip
    ]
    return ", ".join(params) if params else "-"


def _cell(text: str) -> str:
    """Escape a string for use inside a Markdown table cell.

    Union annotations (``int | None``) carry pipes, which would split
    the cell — GitHub honours ``\\|`` even inside code spans.
    """
    return text.replace("|", "\\|")


def _ctor_sig(cls, skip: tuple[str, ...] = ()) -> str:
    return _sig(cls.__init__, skip=("self",) + skip)


def _backends() -> list[str]:
    from repro.sim.backends import ENGINE_BACKENDS

    lines = [
        "## Engine backends (`get_backend`)",
        "",
        "`Scenario(backend=...)` selects the engine fidelity every open-"
        "loop sweep dispatches through (`repro.sim.backends`); the "
        "default `cycle` is omitted from serialized specs, so pre-"
        "backend JSON and its hashes are unchanged. Rows carry the "
        "backend under the `fidelity` key. Closed-loop (workload) "
        "scenarios require a backend with closed-loop support.",
        "",
        "| key | class | fidelity | closed loop | determinism contract |",
        "|---|---|---|---|---|",
    ]
    for key, backend in ENGINE_BACKENDS.items():
        lines.append(
            f"| `{key}` | `{type(backend).__name__}` | "
            f"{_cell(backend.fidelity)} | "
            f"{'yes' if backend.supports_closed_loop else 'no'} | "
            f"{_cell(backend.determinism)} |"
        )
    return lines + [""]


def _telemetry() -> list[str]:
    import dataclasses

    from repro.sim.telemetry import TelemetrySpec

    probes = {
        "latency_hist": "per-packet latency histogram over the fixed "
                        "log-spaced `LATENCY_BIN_EDGES` bins",
        "channel_flits": "per-channel flit counters plus `channel_load` "
                         "(flits/cycle) in flat channel numbering",
        "queue_occupancy": "running per-router maximum input-queue "
                           "occupancy (`max_queue`)",
        "routing_decisions": "packets planned vs diverted non-minimally "
                             "(`route_diverted_frac`)",
    }
    fields = [f.name for f in dataclasses.fields(TelemetrySpec)]
    assert fields == list(probes), "probe table is out of date"
    lines = [
        "## Telemetry probes (`TelemetrySpec`)",
        "",
        "`Scenario(telemetry=TelemetrySpec(...))` arms opt-in engine "
        "probes (`repro.sim.telemetry`); the all-off default is omitted "
        "from serialized specs, so pre-telemetry JSON and its hashes are "
        "unchanged. Probe payloads land in the `<out>.metrics.jsonl` "
        "sidecar next to the campaign rows, one line per telemetry-"
        "carrying load point; arming probes never changes simulation "
        'results (DESIGN.md, "The telemetry plane").',
        "",
        "| probe | measures |",
        "|---|---|",
    ]
    lines.extend(f"| `{key}` | {desc} |" for key, desc in probes.items())
    return lines + [""]


def _fault() -> list[str]:
    import dataclasses

    from repro.routing.registry import FAULT_AWARE
    from repro.scenarios.spec import FaultSpec

    fields = {
        "link_fraction": "fraction of cables killed by seeded sampling "
                         "without replacement (`round(f * num_links)` "
                         "edges), in `[0, 1)`",
        "router_fraction": "fraction of routers whose every cable is "
                           "killed (sampled after links from the same "
                           "generator), in `[0, 1)`",
        "seed": "RNG seed for the samples; pinned to `0` when a "
                "fraction is active, dropped when the fault is "
                "cut-lists only",
        "cut_links": "explicit `(u, v)` cables to cut (normalised to "
                     "sorted unique oriented pairs)",
        "cut_routers": "explicit routers to isolate (normalised to "
                       "sorted unique ids)",
    }
    names = [f.name for f in dataclasses.fields(FaultSpec)]
    assert names == list(fields), "fault field table is out of date"
    lines = [
        "## Fault axis (`FaultSpec`)",
        "",
        "`Scenario(fault=FaultSpec(...))` declares dead cables; the "
        "resolver rewrites the topology into a `DegradedTopology` and "
        "rebuilds routing tables around the cuts (DESIGN.md, \"The "
        "fault plane\"). The null fault (fractions 0, no cuts) "
        "normalises to `None` and is omitted from serialized specs, so "
        "healthy scenario hashes are unchanged; any non-null fault "
        "moves the hash. A fault that disconnects the network yields "
        "structured rows (`disconnected: true`), never a crash. Only "
        "the table-derived routings accept the axis: "
        f"{', '.join(f'`{k}`' for k in sorted(FAULT_AWARE))} "
        "(`FAULT_AWARE`); structural algorithms and closed-loop "
        "workload scenarios reject it.",
        "",
        "| field | meaning |",
        "|---|---|",
    ]
    lines.extend(f"| `{key}` | {desc} |" for key, desc in fields.items())
    return lines + [""]


def _topologies() -> list[str]:
    from repro.topologies.registry import (
        SHAPE_PARAMS,
        TOPOLOGY_BUILDERS,
        TOPOLOGY_CLASSES,
        TOPOLOGY_ORDER,
        make_topology,
    )

    assert set(TOPOLOGY_ORDER) == set(TOPOLOGY_BUILDERS)
    lines = [
        "## Topologies (`make_topology`)",
        "",
        f"`make_topology({_sig(make_topology)})` "
        "(alias of `balanced_instance`) builds the balanced instance of a "
        "topology near `target_endpoints`; shape params pin the exact "
        "instance instead. `TopologySpec(name, ...)` resolves through it.",
        "",
        "| key | class | shape params | extra builder params | builds |",
        "|---|---|---|---|---|",
    ]
    for key in TOPOLOGY_ORDER:
        cls = TOPOLOGY_CLASSES[key]
        shape = ", ".join(f"`{p}`" for p in SHAPE_PARAMS.get(key, ())) or "-"
        extra = _sig(TOPOLOGY_BUILDERS[key], skip=("target", "seed"))
        extra = (
            ", ".join(f"`{_cell(p)}`" for p in extra.split(", "))
            if extra != "-"
            else "-"
        )
        lines.append(
            f"| `{key}` | `{cls.__name__}` | {shape} | {extra} | "
            f"{_cell(_first_doc_line(cls))} |"
        )
    return lines + [""]


def _routing() -> list[str]:
    from repro.routing.registry import (
        BUILDER_BOUND,
        ROUTING_BUILDERS,
        ROUTING_CLASSES,
        SEEDED,
        TABLE_FREE,
        make_routing,
    )

    assert set(ROUTING_CLASSES) == set(ROUTING_BUILDERS)
    lines = [
        "## Routing algorithms (`make_routing`)",
        "",
        f"`make_routing({_sig(make_routing)})` builds a fresh algorithm "
        "instance (adaptive schemes carry RNG state that must never be "
        "shared between simulations). `RoutingSpec(name, params)` resolves "
        "through it; `params` go to the constructor. Seeded algorithms "
        "get `seed=0` filled in when a spec omits it.",
        "",
        "| key | class | needs tables | seeded | constructor params |",
        "|---|---|---|---|---|",
    ]
    for key in ROUTING_BUILDERS:
        cls = ROUTING_CLASSES[key]
        ctor = _ctor_sig(cls, skip=BUILDER_BOUND)
        ctor = (
            ", ".join(f"`{_cell(p)}`" for p in ctor.split(", "))
            if ctor != "-"
            else "-"
        )
        lines.append(
            f"| `{key}` | `{cls.__name__}` | "
            f"{'no' if key in TABLE_FREE else 'yes'} | "
            f"{'yes' if key in SEEDED else 'no'} | {ctor} |"
        )
    return lines + [""]


def _traffic() -> list[str]:
    from repro.traffic.registry import PATTERN_KINDS, PATTERN_TARGETS, make_pattern

    assert set(PATTERN_TARGETS) == set(PATTERN_KINDS)
    lines = [
        "## Traffic patterns (`make_pattern`)",
        "",
        f"`make_pattern({_sig(make_pattern)})` builds an open-loop pattern "
        "by name; `TrafficSpec(pattern, seed)` resolves through it. `seed` "
        "only matters for the randomised worst-case generator (defaulted "
        "to 0 in specs; normalised to `None` for deterministic kinds).",
        "",
        "| key | resolves to | description |",
        "|---|---|---|",
    ]
    for kind in PATTERN_KINDS:
        target = PATTERN_TARGETS[kind]
        lines.append(
            f"| `{kind}` | `{target.__name__}` | "
            f"{_cell(_first_doc_line(target))} |"
        )
    return lines + [""]


def _workloads() -> list[str]:
    from repro.workloads.registry import (
        PLACEMENT_KINDS,
        WORKLOAD_CLASSES,
        WORKLOAD_KINDS,
        make_placed_workload,
        make_placement,
        make_workload,
    )

    assert set(WORKLOAD_CLASSES) == set(WORKLOAD_KINDS)
    lines = [
        "## Workloads (`make_workload`, `make_placed_workload`)",
        "",
        f"`make_workload({_sig(make_workload)})` builds a closed-loop "
        "communication DAG; `num_ranks` is an upper bound (shape-"
        "constrained kinds round down). "
        f"`make_placed_workload({_sig(make_placed_workload)})` adds "
        "rank-to-endpoint placement, and is what `WorkloadSpec` resolves "
        "through.",
        "",
        "| key | class | description |",
        "|---|---|---|",
    ]
    for kind in WORKLOAD_KINDS:
        cls = WORKLOAD_CLASSES[kind]
        lines.append(
            f"| `{kind}` | `{cls.__name__}` | {_cell(_first_doc_line(cls))} |"
        )
    lines += [
        "",
        "### Placements (`make_placement`)",
        "",
        f"`make_placement({_sig(make_placement)})`: "
        f"{_first_doc_line(make_placement)}",
        "",
        "| key | strategy |",
        "|---|---|",
        "| `spread` | round-robin ranks over routers (the experiment default) |",
        "| `linear` | pack ranks onto the lowest endpoint ids |",
    ]
    assert PLACEMENT_KINDS == ("spread", "linear"), (
        "placement table above is out of date"
    )
    return lines + [""]


def _service() -> list[str]:
    from repro.service.protocol import MESSAGE_TYPES
    from repro.service.store import STORE_BACKENDS

    assert set(STORE_BACKENDS) == {"file", "memory"}, (
        "store backend table below is out of date"
    )
    lines = [
        "## Campaign service (Layer 7)",
        "",
        "`run_campaign(store=..., service=...)` and the "
        "`python -m repro.experiments campaign --store/--service` / "
        "`serve-worker` CLI plug campaigns into the distributed service "
        'layer (`repro.service`; DESIGN.md, "Layer 7 - campaign '
        'service"). Output is byte-identical to a local run at any '
        "worker/host count and any cache temperature.",
        "",
        "### Result-store backends (`open_store`)",
        "",
        "`open_store(target)` accepts a `ResultStore` instance, a bare "
        "directory path, or a `<backend>:<root>` URL resolved through "
        "`STORE_BACKENDS`:",
        "",
        "| key | class | storage |",
        "|---|---|---|",
    ]
    storage = {
        "file": "`<root>/objects/<hh>/<hash>.json` + `<root>/quarantine/`, "
                "atomic same-hash writes",
        "memory": "in-process dict (tests, single-run memoization)",
    }
    for key, cls in STORE_BACKENDS.items():
        lines.append(f"| `{key}` | `{cls.__name__}` | {storage[key]} |")
    lines += [
        "",
        "### Wire protocol messages (`repro.service.protocol`)",
        "",
        "Length-prefixed (4-byte big-endian) UTF-8 JSON objects, each "
        "with a `type` key:",
        "",
        "| type | direction | carries |",
        "|---|---|---|",
    ]
    for key, (direction, meaning) in MESSAGE_TYPES.items():
        lines.append(f"| `{key}` | {direction} | {_cell(meaning)} |")
    lines += [
        "",
        "### Entry points",
        "",
        "| entry point | role |",
        "|---|---|",
        "| `run_campaign(store=...)` | content-addressed cache: hits replay, misses simulate + write back |",
        "| `run_campaign(service=ServiceConfig(...))` | dispatch pending units through the coordinator |",
        "| `python -m repro.experiments campaign --service ADDR` | CLI coordinator (add `--store PATH` to memoize) |",
        "| `python -m repro.experiments serve-worker HOST:PORT` | CLI worker process (`--workers`, `--retry-for`, `--fail-after`) |",
        "| `repro.service.worker.serve_worker` | worker loop as a library call |",
    ]
    return lines + [""]


def generate() -> str:
    sections = [HEADER]
    sections.extend(_backends())
    sections.extend(_telemetry())
    sections.extend(_fault())
    sections.extend(_topologies())
    sections.extend(_routing())
    sections.extend(_traffic())
    sections.extend(_workloads())
    sections.extend(_service())
    return "\n".join(sections)


def main() -> None:
    out = Path(__file__).parent / "REGISTRY.md"
    out.write_text(generate(), encoding="utf-8", newline="\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
