"""All-pairs shortest-path tables shared by every routing algorithm.

Stores the (N_r × N_r) hop-distance matrix (int16) and, per router,
a *candidate row*: for every destination, the tuple of neighbours v of
u with ``dist[v, dst] == dist[u, dst] − 1``, in adjacency order.  Rows
are built lazily, one numpy comparison per router on first use, so
tables that never sample a path (the flow backend's paper-scale
topologies) never pay for them.  The rows expose full path diversity:
Valiant and UGAL planners walk them per hop, and the worst-case
traffic generator reads them to find *the* two-hop path between
non-adjacent Slim Fly routers.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.distance import adjacency_to_csr
from repro.util.rng import DrawBuffer, make_rng


class RoutingTables:
    """Distance matrix + next-hop derivation for one topology."""

    def __init__(self, adjacency: list[list[int]]):
        self.adjacency = adjacency
        self.num_routers = len(adjacency)
        self.dist = self._all_pairs_distances(adjacency)
        self._next_hop: np.ndarray | None = None
        self._next_hop_list: list[list[int]] | None = None
        #: Per-router candidate rows (see :meth:`candidate_row`).
        self._cand_rows: list[list[tuple[int, ...]] | None] = [
            None
        ] * self.num_routers

    @staticmethod
    def _all_pairs_distances(adjacency: list[list[int]]) -> np.ndarray:
        """Levelised BFS from every source, vectorised over the frontier."""
        from scipy.sparse.csgraph import shortest_path

        csr = adjacency_to_csr(adjacency)
        d = shortest_path(csr, method="D", unweighted=True, directed=False)
        if np.isinf(d).any():
            raise ValueError("routing tables require a connected topology")
        return d.astype(np.int16)

    # -- derived tables ---------------------------------------------------

    def next_hop_matrix(self) -> np.ndarray:
        """``nh[u, dst]``: the deterministic minimal next hop (int32).

        Entry ``(u, u)`` is ``u`` itself.  The tie-break matches
        :meth:`min_path`: the first neighbour in adjacency order lying
        on a shortest path.  Table-driven protocols (MIN) let the
        simulator follow this matrix directly instead of planning a
        path per packet.
        """
        if self._next_hop is None:
            n = self.num_routers
            nh = np.empty((n, n), dtype=np.int32)
            dist = self.dist
            for u, nbrs in enumerate(self.adjacency):
                nbrs_arr = np.asarray(nbrs)
                on_min = dist[nbrs_arr] == dist[u] - 1  # (deg, n)
                first = on_min.argmax(axis=0)
                nh[u] = nbrs_arr[first]
                nh[u, u] = u
            self._next_hop = nh
        return self._next_hop

    def candidate_row(self, u: int) -> list[tuple[int, ...]]:
        """``row[dst]``: the minimal next hops from ``u`` toward ``dst``.

        Neighbours of ``u`` on some shortest path to ``dst``, in
        adjacency order (empty at ``dst == u``).  Built on first use
        from one comparison over the neighbours' distance rows.
        """
        row = self._cand_rows[u]
        if row is None:
            nbrs = self.adjacency[u]
            dist = self.dist
            on_min = (dist[nbrs] == dist[u] - 1).T  # (n, deg)
            # Row-major nonzero: neighbour indices grouped by
            # destination, in adjacency order within a group.
            cols = on_min.nonzero()[1].tolist()
            ends = np.cumsum(on_min.sum(axis=1)).tolist()
            # Most destinations have one candidate: share one tuple per
            # neighbour rather than allocating one per destination.
            single = [(v,) for v in nbrs]
            row = [
                single[cols[a]] if b - a == 1
                else tuple(nbrs[c] for c in cols[a:b])
                for a, b in zip([0, *ends], ends)
            ]
            self._cand_rows[u] = row
        return row

    def candidate_rows(self) -> list[list[tuple[int, ...]] | None]:
        """The lazily-filled row cache: entry ``u`` is None until
        :meth:`candidate_row` builds it (hot loops index it directly)."""
        return self._cand_rows

    def _next_hop_as_lists(self) -> list[list[int]]:
        if self._next_hop_list is None:
            self._next_hop_list = self.next_hop_matrix().tolist()
        return self._next_hop_list

    # -- queries ---------------------------------------------------------

    def distance(self, src: int, dst: int) -> int:
        return int(self.dist[src, dst])

    def next_hop_candidates(self, at: int, dst: int) -> list[int]:
        """Neighbours of ``at`` lying on some shortest path to ``dst``."""
        return list(self.candidate_row(at)[dst])

    def min_path(self, src: int, dst: int) -> list[int]:
        """Deterministic shortest router path [src, ..., dst].

        Tie-break: the first on-path neighbour in adjacency order —
        the "static" in §IV-A's minimal static routing.
        """
        nh = self._next_hop_as_lists()
        path = [src]
        at = src
        while at != dst:
            at = nh[at][dst]
            path.append(at)
        return path

    def sample_min_path(self, src: int, dst: int, rng) -> list[int]:
        """Uniformly-random-per-hop shortest path (used by VAL segments).

        ``rng`` is a seed, a ``Generator``, or a
        :class:`~repro.util.rng.DrawBuffer` (same draws, buffered).
        """
        below = rng.below if isinstance(rng, DrawBuffer) else make_rng(rng).integers
        path = [src]
        at = src
        while at != dst:
            cands = self.candidate_row(at)[dst]
            at = cands[int(below(len(cands)))] if len(cands) > 1 else cands[0]
            path.append(at)
        return path

    def count_min_paths(self, src: int, dst: int) -> int:
        """Number of distinct shortest paths (path-diversity metric)."""
        if src == dst:
            return 1
        # DP over decreasing distance.
        memo: dict[int, int] = {dst: 1}

        def count(u: int) -> int:
            if u in memo:
                return memo[u]
            memo[u] = sum(count(v) for v in self.candidate_row(u)[dst])
            return memo[u]

        return count(src)

    def average_distance(self) -> float:
        n = self.num_routers
        return float(self.dist.sum()) / (n * (n - 1))

    def diameter(self) -> int:
        return int(self.dist.max())
