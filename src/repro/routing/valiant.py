"""VAL — Valiant random routing (paper §IV-B).

Each packet picks a random intermediate router R_r ∉ {R_s, R_d} and is
routed minimally R_s → R_r → R_d.  In Slim Fly the result has 2–4
hops.  The optional ``max_hops`` constraint re-samples intermediates
until the combined path is short enough; the paper found constraining
to ≤ 3 hops *increases* latency (fewer paths), which the experiments
reproduce by toggling this knob.
"""

from __future__ import annotations

from repro.routing.base import SourceRoutedAlgorithm
from repro.routing.tables import RoutingTables
from repro.util.rng import DrawBuffer, make_rng


def stitch(first_leg: list[int], second_leg: list[int]) -> list[int]:
    """Concatenate two router paths sharing their junction vertex."""
    if first_leg[-1] != second_leg[0]:
        raise ValueError("legs do not share the intermediate router")
    return first_leg + second_leg[1:]


class ValiantRouting(SourceRoutedAlgorithm):
    """Uniform-random intermediate routing.

    Every draw (intermediates and per-hop tie-breaks) goes through one
    :class:`~repro.util.rng.DrawBuffer` over ``self.rng``: the same
    values as scalar ``rng.integers`` calls, with the generator brought
    up to date by :meth:`sync_rng`.  ``self.rng`` must not be drawn
    from directly, or by another routing, between syncs.
    """

    def __init__(
        self,
        tables: RoutingTables,
        seed=None,
        max_hops: int | None = None,
        max_resample: int = 32,
        name: str = "VAL",
    ):
        self.tables = tables
        self.rng = make_rng(seed)
        self.draws = DrawBuffer(self.rng)
        self._rows = tables.candidate_rows()
        self.max_hops = max_hops
        self.max_resample = max_resample
        self.name = name
        self.num_vcs = max(1, 2 * tables.diameter())

    def random_intermediate(self, src: int, dst: int) -> int:
        n = self.tables.num_routers
        below = self.draws.below
        while True:
            r = below(n)
            if r != src and r != dst:
                return r

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        if src_router == dst_router:
            return [src_router]
        rows = self._rows
        below = self.draws.below
        max_hops = self.max_hops
        for _ in range(self.max_resample):
            mid = self.random_intermediate(src_router, dst_router)
            # Both legs walk the candidate rows, drawing a uniform
            # minimal next hop wherever there is a choice
            # (RoutingTables.sample_min_path, inlined).
            path = [src_router]
            at = src_router
            for leg_end in (mid, dst_router):
                while at != leg_end:
                    cands = (rows[at] or self.tables.candidate_row(at))[leg_end]
                    at = cands[below(len(cands))] if len(cands) > 1 else cands[0]
                    path.append(at)
            if max_hops is None or len(path) - 1 <= max_hops:
                return path
        # Give up on the constraint rather than livelock the injector.
        return path

    def sync_rng(self) -> None:
        self.draws.sync()
