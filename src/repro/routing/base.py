"""The routing-algorithm interface the simulator drives.

Two flavours:

- **Source-routed** (:class:`SourceRoutedAlgorithm`): the full router
  path is chosen at injection (MIN, VAL, UGAL-L, UGAL-G — the paper's
  UGAL selects between a minimal and a Valiant path per packet at the
  source).  The simulator then just follows ``packet.path``.
- **Per-hop adaptive** (:class:`RoutingAlgorithm` with
  ``source_routed = False``): the next hop is chosen at every router
  (fat-tree ANCA adapts on the upward phase).

Virtual channels follow Gopal's scheme (§IV-D): a packet on hop i
travels in VC i, so ``num_vcs`` must be at least the longest path the
algorithm can produce.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class RoutingAlgorithm(ABC):
    """Abstract routing algorithm.

    Attributes
    ----------
    name:
        Protocol label used in experiment output (e.g. ``"SF-MIN"``).
    num_vcs:
        Virtual channels required for deadlock freedom under the
        hop-indexed VC scheme.
    source_routed:
        Whether :meth:`plan` fixes the full path at injection.
    """

    name: str = "routing"
    num_vcs: int = 1
    source_routed: bool = True

    @abstractmethod
    def plan(self, src_router: int, dst_router: int, network) -> list[int] | None:
        """Choose a router path at injection.

        Returns the full path ``[src, ..., dst]`` for source-routed
        algorithms, or ``None`` for per-hop algorithms.  ``network``
        is any object exposing ``queue_length(router, neighbor)``
        (adaptive protocols read occupancies from it), or ``None``.

        Engines call ``plan`` in batches: every packet injected in one
        cycle, in injection order, then :meth:`sync_rng` once.  Within
        a batch the queue view is constant (injection touches no output
        stage or credit), so engines pass a per-phase snapshot rather
        than the live network.  Analysis callers may pass a lighter
        object with the same API.
        """

    def sync_rng(self) -> None:
        """End a planning batch: bring ``self.rng`` up to date.

        Routings that buffer their random draws (see
        :class:`repro.util.rng.DrawBuffer`) run their generator ahead
        of the draws actually used; this rewinds it to exactly where
        unbuffered draws would have left it.  A no-op for routings
        without buffered draws.
        """

    def next_hop(self, at_router: int, dst_router: int, packet, network) -> int:
        """Per-hop decision; only called when ``source_routed`` is False."""
        raise NotImplementedError(f"{self.name} is source-routed")

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def path_cost_local(path: list[int], network) -> float:
        """UGAL-L cost: path length × local output queue at the source."""
        if len(path) < 2:
            return 0.0
        hops = len(path) - 1
        return hops * (1.0 + network.queue_length(path[0], path[1]))

    @staticmethod
    def path_cost_global(path: list[int], network) -> float:
        """UGAL-G cost: sum of output-queue lengths along the whole path."""
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += network.queue_length(u, v)
        return len(path) - 1 + total

    @staticmethod
    def cheapest_path(paths: list[list[int]], network, local: bool) -> list[int]:
        """UGAL's pick: the first path minimising ``(cost, length)``.

        ``cost`` is :meth:`path_cost_local` (``local``) or
        :meth:`path_cost_global`, inlined and in exact integer
        arithmetic (the float costs are integral, so the order and the
        ties are the same).
        """
        queue_length = network.queue_length
        best = best_key = None
        for path in paths:
            n = len(path)
            if local:
                cost = (n - 1) * (1 + queue_length(path[0], path[1])) if n > 1 else 0
            else:
                cost = n - 1
                for i in range(n - 1):
                    cost += queue_length(path[i], path[i + 1])
            key = (cost, n)
            if best_key is None or key < best_key:
                best, best_key = path, key
        return best


class SourceRoutedAlgorithm(RoutingAlgorithm):
    """Convenience base for algorithms that always produce a full path."""

    source_routed = True

    def next_hop(self, at_router, dst_router, packet, network) -> int:
        raise NotImplementedError(f"{self.name} plans complete paths at the source")
