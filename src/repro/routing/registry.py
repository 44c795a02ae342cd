"""Name -> routing-algorithm registry (scenario specs, CLI).

Routing was the only layer without a string-keyed registry (topologies
have :mod:`repro.topologies.registry`, workloads
:mod:`repro.workloads.registry`); :class:`repro.scenarios.RoutingSpec`
resolves through this one.  ``make_routing("ugal-l", topology)``
builds a fresh algorithm instance — fresh matters, because adaptive
schemes carry RNG state that must never be shared between simulations.

All-pairs :class:`~repro.routing.tables.RoutingTables` are expensive;
callers that evaluate several algorithms on one topology should build
the tables once and pass them in (the scenario runner caches them per
topology spec).
"""

from __future__ import annotations

import inspect
from typing import Callable

from repro.routing.base import RoutingAlgorithm
from repro.routing.dragonfly_routing import DragonflyMinimal, DragonflyUGAL
from repro.routing.fattree_routing import ANCARouting
from repro.routing.minimal import MinimalRouting
from repro.routing.tables import RoutingTables
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import ValiantRouting


def _min(topology, tables, **params):
    return MinimalRouting(tables, **params)


def _val(topology, tables, **params):
    return ValiantRouting(tables, **params)


def _ugal(mode: str):
    def build(topology, tables, **params):
        return UGALRouting(tables, mode, **params)

    return build


def _df_min(topology, tables, **params):
    return DragonflyMinimal(topology, tables, **params)


def _df_ugal(mode: str):
    def build(topology, tables, **params):
        return DragonflyUGAL(topology, tables, mode=mode, **params)

    return build


def _ft_anca(topology, tables, **params):
    return ANCARouting(topology, **params)


#: name -> builder(topology, tables, **params).  Builders that ignore
#: one of the two positional inputs still accept it, so ``make_routing``
#: has a single calling convention.
ROUTING_BUILDERS: dict[str, Callable[..., RoutingAlgorithm]] = {
    "min": _min,
    "val": _val,
    "ugal-l": _ugal("local"),
    "ugal-g": _ugal("global"),
    "df-min": _df_min,
    "df-ugal-l": _df_ugal("local"),
    "df-ugal-g": _df_ugal("global"),
    "ft-anca": _ft_anca,
}

#: The class each builder constructs — the self-description the
#: auto-generated registry reference (docs/REGISTRY.md) introspects
#: for constructor parameters.
ROUTING_CLASSES: dict[str, type] = {
    "min": MinimalRouting,
    "val": ValiantRouting,
    "ugal-l": UGALRouting,
    "ugal-g": UGALRouting,
    "df-min": DragonflyMinimal,
    "df-ugal-l": DragonflyUGAL,
    "df-ugal-g": DragonflyUGAL,
    "ft-anca": ANCARouting,
}

#: Constructor arguments the builders bind themselves: never spec params.
BUILDER_BOUND = ("topology", "tables", "mode")

#: Algorithms that route over all-pairs tables (the rest only need the
#: topology object) — lets callers skip the table build entirely.
TABLE_FREE = {"ft-anca"}

#: Algorithms that consume a ``seed`` (random intermediates, adaptive
#: tie-breaks).  Scenario specs default-fill ``seed=0`` for these so a
#: serialized spec can never resolve to an entropy-seeded instance.
SEEDED = frozenset({"val", "ugal-l", "ugal-g", "df-ugal-l", "df-ugal-g", "ft-anca"})

#: Algorithms whose every path derives from all-pairs tables over the
#: *live* adjacency, so rebuilding the tables on a degraded topology
#: makes them route around dead links for free.  The structural
#: algorithms (Dragonfly gateway paths, fat-tree up/down) plan over the
#: healthy wiring and would forward into a removed cable, so the
#: scenario layer rejects a fault axis for them.
FAULT_AWARE = frozenset({"min", "val", "ugal-l", "ugal-g"})


def routing_needs_tables(name: str) -> bool:
    """Whether ``make_routing(name, ...)`` consumes RoutingTables."""
    if name not in ROUTING_BUILDERS:
        raise KeyError(
            f"unknown routing {name!r}; choose from {sorted(ROUTING_BUILDERS)}"
        )
    return name not in TABLE_FREE


def validate_routing_params(name: str, params: dict) -> None:
    """Reject params the algorithm's constructor does not take.

    Lets the spec layer refuse a misspelt param at construction instead
    of mid-campaign, when the first simulation builds the algorithm.
    """
    accepted = [
        p
        for p in inspect.signature(ROUTING_CLASSES[name].__init__).parameters
        if p != "self" and p not in BUILDER_BOUND
    ]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"routing {name!r} takes no param(s) {unknown}; accepted: {accepted}"
        )


def make_routing(
    name: str, topology, tables: RoutingTables | None = None, **params
) -> RoutingAlgorithm:
    """Build a fresh routing algorithm by registry name.

    ``params`` are forwarded to the constructor (``seed``,
    ``num_candidates``, ``max_hops``, ...).  ``tables`` defaults to a
    fresh build from ``topology.adjacency`` when the algorithm needs
    one — pass precomputed tables to amortise the all-pairs BFS.
    """
    try:
        builder = ROUTING_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown routing {name!r}; choose from {sorted(ROUTING_BUILDERS)}"
        ) from None
    if tables is None and name not in TABLE_FREE:
        tables = RoutingTables(topology.adjacency)
    return builder(topology, tables, **params)
