"""Balanced-configuration builders keyed by paper symbol.

The paper's comparisons always use *balanced* (full-global-bandwidth)
variants with the concentrations of §III:

    p = ⌊(k+1)/4⌋ (DF), ⌊(k+3)/4⌋ (FBF-3), ⌊√k⌋ (DLN), ⌊k/2⌋ (FT-3),
    p = 1 (T3D, T5D, HC, LH-HC), p = ⌈k'/2⌉ (SF).

:func:`balanced_instance` returns the constructible instance of a
topology whose endpoint count is closest to a target — the common
operation behind Fig 1, Fig 5c, Table III, and the cost sweeps.
"""

from __future__ import annotations

import inspect
from typing import Callable

from repro.core.mms import MMSParams
from repro.topologies.base import Topology
from repro.topologies.dragonfly import Dragonfly
from repro.topologies.fattree import FatTree3
from repro.topologies.flattened_butterfly import FlattenedButterfly
from repro.topologies.hypercube import Hypercube
from repro.topologies.longhop import LongHopHypercube
from repro.topologies.random_dln import RandomDLN
from repro.topologies.slimfly import SlimFly
from repro.topologies.torus import Torus


def _sf(target: int, seed=None, q: int | None = None,
        concentration: int | None = None) -> Topology:
    if q is not None:
        return SlimFly.from_q(q, concentration=concentration)
    if concentration is not None:
        raise ValueError("SF concentration override requires an explicit q")
    return SlimFly.for_endpoints(target)


def _df(target: int, seed=None, h: int | None = None) -> Topology:
    if h is not None:
        return Dragonfly.balanced(h)
    return Dragonfly.for_endpoints(target)


def _ft3(target: int, seed=None, p: int | None = None) -> Topology:
    if p is not None:
        return FatTree3(p)
    return FatTree3.for_endpoints(target)


def _fbf3(target: int, seed=None) -> Topology:
    return FlattenedButterfly.for_endpoints(3, target)


def _hc(target: int, seed=None, concentration: int = 1) -> Topology:
    return Hypercube.for_routers(target, concentration=concentration)


def _t3d(target: int, seed=None, concentration: int = 1) -> Topology:
    return Torus.cube(3, target, concentration=concentration)


def _t5d(target: int, seed=None, concentration: int = 1) -> Topology:
    return Torus.cube(5, target, concentration=concentration)


def _dln(target: int, seed=None) -> Topology:
    # Radix matched to the comparable Slim Fly, as the paper's
    # same-k comparisons do.
    sf = SlimFly.for_endpoints(target)
    return RandomDLN.for_endpoints(target, router_radix=sf.router_radix, seed=seed)


def _lh(target: int, seed=None, concentration: int = 1) -> Topology:
    return LongHopHypercube.for_routers(target, concentration=concentration)


TOPOLOGY_BUILDERS: dict[str, Callable[..., Topology]] = {
    "SF": _sf,
    "DF": _df,
    "FT-3": _ft3,
    "FBF-3": _fbf3,
    "HC": _hc,
    "T3D": _t3d,
    "T5D": _t5d,
    "DLN": _dln,
    "LH-HC": _lh,
}

#: The class each builder constructs — the self-description the
#: auto-generated registry reference (docs/REGISTRY.md) introspects.
TOPOLOGY_CLASSES: dict[str, type] = {
    "SF": SlimFly,
    "DF": Dragonfly,
    "FT-3": FatTree3,
    "FBF-3": FlattenedButterfly,
    "HC": Hypercube,
    "T3D": Torus,
    "T5D": Torus,
    "DLN": RandomDLN,
    "LH-HC": LongHopHypercube,
}

#: Display order used by the figures (paper legend order).
TOPOLOGY_ORDER = ["T3D", "HC", "T5D", "LH-HC", "FT-3", "FBF-3", "DF", "DLN", "SF"]

#: Params that pin a topology's exact shape, making target_endpoints
#: optional.  Everything else (concentration, seed) only modifies a
#: shape that must come from one of these or from the target search.
SHAPE_PARAMS = {"SF": ("q",), "DF": ("h",), "FT-3": ("p",)}


def shape_is_pinned(name: str, params: dict) -> bool:
    """Whether ``params`` alone determine the instance of ``name``."""
    return any(k in params for k in SHAPE_PARAMS.get(name, ()))


def validate_shape_params(name: str, target_endpoints: int | None, params: dict) -> None:
    """Raise the errors resolution would, without building anything.

    Lets the spec layer reject an unbuildable topology description at
    construction instead of mid-campaign.
    """
    if name not in TOPOLOGY_BUILDERS:
        raise KeyError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGY_BUILDERS)}"
        )
    if target_endpoints is None and not shape_is_pinned(name, params):
        raise ValueError(
            f"topology {name!r} needs target_endpoints "
            f"(params {sorted(params)} do not pin the shape)"
        )
    if name == "SF" and "concentration" in params and "q" not in params:
        raise ValueError("SF concentration override requires an explicit q")
    accepted = [
        p
        for p in inspect.signature(TOPOLOGY_BUILDERS[name]).parameters
        if p not in ("target", "seed")
    ]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"topology {name!r} takes no param(s) {unknown}; accepted: {accepted}"
        )
    if name == "SF" and "q" in params:
        MMSParams.from_q(params["q"])  # raises for a q with no MMS graph


def balanced_instance(
    name: str, target_endpoints: int | None, seed=None, **params
) -> Topology:
    """Balanced instance of topology ``name`` with N ≈ target_endpoints.

    ``params`` pin the exact shape instead of searching near the
    target (``q``/``concentration`` for SF, ``h`` for DF, ``p`` for
    FT-3) — the scenario layer uses them so a serialized spec resolves
    to the very instance an experiment was defined with.  With shape
    params given, ``target_endpoints`` may be ``None``.
    """
    validate_shape_params(name, target_endpoints, params)
    return TOPOLOGY_BUILDERS[name](target_endpoints, seed=seed, **params)


#: Registry-style alias, symmetric with ``make_routing`` /
#: ``make_pattern`` / ``make_workload``: the one factory every string
#: topology key goes through.
make_topology = balanced_instance


def balanced_config_sweep(
    name: str, targets: list[int], seed=None
) -> list[Topology]:
    """Balanced instances of ``name`` near each target size, deduplicated."""
    seen: set[int] = set()
    out: list[Topology] = []
    for t in targets:
        topo = balanced_instance(name, t, seed=seed)
        if topo.num_endpoints not in seen:
            seen.add(topo.num_endpoints)
            out.append(topo)
    return out
