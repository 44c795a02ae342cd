"""Frozen copy of the seed (pre-flat-array) simulator.

This is the per-packet, dict-of-deque implementation the repository
shipped with, kept verbatim (modulo renames) as

- the *oracle* for differential tests: the flat engine in
  :mod:`repro.sim.engine` must reproduce its results bit-for-bit for a
  given seed (see ``tests/test_sim_reference_equivalence.py``), and
- the *baseline* for the throughput benchmark
  (``benchmarks/bench_sim_throughput.py``), which tracks the flat
  engine's speedup over this code.

Do not optimise or "fix" this module; behavioural changes here
invalidate both uses.  See DESIGN.md for the architecture notes.
"""


from __future__ import annotations

from collections import deque

from repro.routing.base import RoutingAlgorithm, SourceRoutedAlgorithm
from repro.sim.config import SimConfig
from repro.sim.packet import Packet
from repro.sim.stats import LatencyAccumulator, SimResult
from repro.topologies.base import Topology
from repro.util.rng import make_rng


class ReferenceNetwork:
    """Mutable flow-control state of a simulated network."""

    def __init__(self, topology: Topology, config: SimConfig):
        self.topology = topology
        self.config = config
        nr = topology.num_routers

        #: neighbor id -> port index per router (dict lookup beats .index()).
        self.port_index: list[dict[int, int]] = [
            {v: i for i, v in enumerate(nbrs)} for nbrs in topology.adjacency
        ]
        #: Lazily-populated input FIFOs keyed by (network_port, vc).
        self.in_buf: list[dict[tuple[int, int], deque]] = [dict() for _ in range(nr)]
        #: Credits toward each neighbour, per VC.
        cap = config.buffer_per_vc
        self.credits: list[list[list[int]]] = [
            [[cap] * config.num_vcs for _ in nbrs] for nbrs in topology.adjacency
        ]
        #: Output staging queues per network port.
        self.out_stage: list[list[deque]] = [
            [deque() for _ in nbrs] for nbrs in topology.adjacency
        ]
        #: Injection FIFOs, one per endpoint (unbounded).
        self.inject_queue: list[deque] = [deque() for _ in range(topology.num_endpoints)]
        #: Routers that may have switch-allocation work this cycle.
        self.active_routers: set[int] = set()

    # -- buffer helpers ------------------------------------------------------

    def buffer_of(self, router: int, port: int, vc: int) -> deque:
        key = (port, vc)
        buf = self.in_buf[router].get(key)
        if buf is None:
            buf = deque()
            self.in_buf[router][key] = buf
        return buf

    def deliver(self, router: int, port: int, vc: int, packet) -> None:
        """Channel arrival into an input buffer slot (credit was reserved)."""
        self.buffer_of(router, port, vc).append(packet)
        self.active_routers.add(router)

    def enqueue_injection(self, endpoint: int, packet) -> None:
        self.inject_queue[endpoint].append(packet)
        self.active_routers.add(self.topology.endpoint_map[endpoint])

    # -- congestion signal (UGAL) ------------------------------------------------

    def queue_length(self, router: int, neighbor: int) -> int:
        """Output-queue occupancy toward ``neighbor`` as UGAL sees it."""
        port = self.port_index[router][neighbor]
        staged = len(self.out_stage[router][port])
        cap = self.config.buffer_per_vc
        downstream = sum(cap - c for c in self.credits[router][port])
        return staged + downstream

    def total_buffered(self) -> int:
        """Flits resident in input buffers + staging (conservation checks)."""
        total = 0
        for bufs in self.in_buf:
            total += sum(len(b) for b in bufs.values())
        for stages in self.out_stage:
            total += sum(len(s) for s in stages)
        total += sum(len(q) for q in self.inject_queue)
        return total


class ReferenceEngine:
    """Drives one simulation run."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        traffic,
        offered_load: float,
        config: SimConfig | None = None,
        trace_channels: bool = False,
    ):
        self.topology = topology
        self.routing = routing
        self.traffic = traffic
        self.offered_load = float(offered_load)
        self.config = config or SimConfig()
        #: Optional per-channel flit counters ((u, v) -> flits sent),
        #: for hot-link analyses like the Fig 9 worst-case diagnosis.
        self.trace_channels = trace_channels
        self.channel_flits: dict[tuple[int, int], int] = {}
        if self.config.num_vcs < routing.num_vcs:
            # Honour the routing algorithm's deadlock-freedom demand.
            self.config = self.config.with_vcs(routing.num_vcs)
        self.net = ReferenceNetwork(topology, self.config)
        self.rng = make_rng(self.config.seed)

        self.now = 0
        # Event buckets keyed by cycle.
        self._arrivals: dict[int, list] = {}
        self._credit_returns: dict[int, list] = {}

        self.active_endpoints = list(traffic.active_endpoints(topology))
        self._active_eps_arr = None
        self.measured_injected = 0
        self.measured_delivered = 0
        self.window_ejections = 0
        self.latencies = LatencyAccumulator()
        self.queue_latencies = LatencyAccumulator()
        # Ejection-port occupancy: endpoint -> busy-until cycle (an
        # L-flit packet holds its endpoint link for L cycles).
        self._eject_busy_until: dict[int, int] = {}
        # Channel serialisation for multi-flit packets: (router, port)
        # -> busy-until cycle.  Untouched on the L == 1 fast path.
        self._channel_busy_until: dict[tuple[int, int], int] = {}

    # -- event scheduling ------------------------------------------------------

    def _schedule_arrival(self, when: int, router: int, port: int, vc: int, pkt) -> None:
        self._arrivals.setdefault(when, []).append((router, port, vc, pkt))

    def _schedule_credit(self, when: int, router: int, port: int, vc: int) -> None:
        self._credit_returns.setdefault(when, []).append((router, port, vc))

    # -- cycle phases ------------------------------------------------------

    def _phase_arrivals(self) -> None:
        for router, port, vc, pkt in self._arrivals.pop(self.now, ()):
            self.net.deliver(router, port, vc, pkt)
        for router, port, vc in self._credit_returns.pop(self.now, ()):
            self.net.credits[router][port][vc] += 1
            self.net.active_routers.add(router)

    def _phase_injection(self, measuring: bool) -> None:
        # Offered load is in flits/cycle/endpoint; with L-flit packets
        # the packet-generation probability scales down by L.
        load = self.offered_load / self.config.packet_length
        if load <= 0.0 or not self.active_endpoints:
            return
        n = len(self.active_endpoints)
        if self._active_eps_arr is None:
            import numpy as np

            self._active_eps_arr = np.asarray(self.active_endpoints)
        coins = self.rng.random(n) < load
        if not coins.any():
            return
        topo = self.topology
        for src in self._active_eps_arr[coins]:
            src = int(src)
            dst = self.traffic.destination(src, self.rng)
            if dst is None or dst == src:
                continue
            src_router = topo.endpoint_map[src]
            dst_router = topo.endpoint_map[dst]
            path = None
            if self.routing.source_routed:
                path = self.routing.plan(src_router, dst_router, self.net)
            pkt = Packet(
                src_endpoint=src,
                dst_endpoint=dst,
                dst_router=dst_router,
                path=path,
                inject_time=self.now,
                measured=measuring,
            )
            if measuring:
                self.measured_injected += 1
            self.net.enqueue_injection(src, pkt)
        if self.routing.source_routed:
            self.routing.sync_rng()

    def _desired_next(self, pkt: Packet, router: int) -> int:
        """Next router for a flit at ``router`` (path or per-hop query)."""
        if pkt.path is not None:
            return pkt.path[pkt.hop + 1]
        return self.routing.next_hop(router, pkt.dst_router, pkt, self.net)

    def _phase_switch_allocation(self) -> None:
        net = self.net
        cfg = self.config
        topo = self.topology
        length = cfg.packet_length
        # Routers may become inactive; collect removals after the sweep.
        inactive: list[int] = []
        for router in list(net.active_routers):
            # Gather candidate head flits: (inject_time, kind, key, pkt, next)
            requests = []
            bufs = net.in_buf[router]
            for (port, vc), q in bufs.items():
                if q:
                    pkt = q[0]
                    requests.append((pkt.inject_time, 0, (port, vc), pkt))
            for ep in topo.endpoints_of_router[router]:
                q = net.inject_queue[ep]
                if q:
                    pkt = q[0]
                    requests.append((pkt.inject_time, 1, ep, pkt))
            if not requests:
                if all(not s for s in net.out_stage[router]):
                    inactive.append(router)
                continue
            requests.sort(key=lambda r: (r[0], r[1]))  # oldest first
            granted_per_port: dict[int, int] = {}
            for _, kind, key, pkt in requests:
                if pkt.dst_router == router:
                    # Ejection: the endpoint link carries 1 flit/cycle,
                    # so an L-flit packet occupies it for L cycles.
                    ep = pkt.dst_endpoint
                    if self._eject_busy_until.get(ep, 0) > self.now:
                        continue
                    self._eject_busy_until[ep] = self.now + length
                    self._pop_granted(router, kind, key)
                    self._complete(pkt)
                    continue
                nxt = self._desired_next(pkt, router)
                port = net.port_index[router][nxt]
                if granted_per_port.get(port, 0) >= cfg.speedup:
                    continue
                vc = min(pkt.hop, cfg.num_vcs - 1)
                if net.credits[router][port][vc] < length:
                    continue  # VCT: the whole packet must fit downstream
                net.credits[router][port][vc] -= length
                granted_per_port[port] = granted_per_port.get(port, 0) + 1
                self._pop_granted(router, kind, key)
                net.out_stage[router][port].append((pkt, vc))
            # Router stays active if anything is still buffered/staged.
        for router in inactive:
            net.active_routers.discard(router)

    def _pop_granted(self, router: int, kind: int, key) -> None:
        """Remove a granted head flit and send a credit upstream if needed."""
        net = self.net
        if kind == 1:  # injection FIFO: no upstream credits
            pkt = net.inject_queue[key].popleft()
            pkt.start_time = self.now
            return
        port, vc = key
        net.in_buf[router][(port, vc)].popleft()
        # The freed slots belong to the upstream router's credit pool
        # (all L at once — packet-granularity VCT credit return).
        upstream = self.topology.adjacency[router][port]
        up_port = net.port_index[upstream][router]
        for _ in range(self.config.packet_length):
            self._schedule_credit(
                self.now + self.config.credit_delay, upstream, up_port, vc
            )

    def _phase_transmit(self) -> None:
        net = self.net
        length = self.config.packet_length
        # Tail flit arrives after serialising the remaining L−1 flits.
        latency = self.config.hop_latency + (length - 1)
        adjacency = self.topology.adjacency
        for router in list(net.active_routers):
            stages = net.out_stage[router]
            for port, stage in enumerate(stages):
                if not stage:
                    continue
                if length > 1:
                    busy_key = (router, port)
                    if self._channel_busy_until.get(busy_key, 0) > self.now:
                        continue
                    self._channel_busy_until[busy_key] = self.now + length
                pkt, vc = stage.popleft()
                nxt = adjacency[router][port]
                pkt.hop += 1
                if self.trace_channels:
                    key = (router, nxt)
                    self.channel_flits[key] = (
                        self.channel_flits.get(key, 0) + length
                    )
                in_port = net.port_index[nxt][router]
                self._schedule_arrival(self.now + latency, nxt, in_port, vc, pkt)

    def _complete(self, pkt: Packet) -> None:
        # Tail flit leaves `packet_length` cycles after the grant.
        tail = self.now + self.config.packet_length
        if pkt.measured:
            self.measured_delivered += 1
            self.latencies.add(tail - pkt.inject_time)
            self.queue_latencies.add(pkt.start_time - pkt.inject_time)
        if self._in_window:
            self.window_ejections += self.config.packet_length

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        warmup, measure = cfg.warmup_cycles, cfg.measure_cycles
        end_measure = warmup + measure
        deadline = end_measure + cfg.drain_cycles
        self._in_window = False

        while True:
            t = self.now
            measuring = warmup <= t < end_measure
            self._in_window = measuring
            self._phase_arrivals()
            if t < end_measure:
                self._phase_injection(measuring)
            self._phase_switch_allocation()
            self._phase_transmit()
            self.now += 1
            if self.now >= end_measure:
                drained = self.measured_delivered >= self.measured_injected
                if drained and not self._arrivals and self._all_idle():
                    break
                if drained and self.now >= end_measure + 8:
                    break
                if self.now >= deadline:
                    break

        n_active = max(1, len(self.active_endpoints))
        accepted = self.window_ejections / (n_active * measure) if measure else 0.0
        drained = self.measured_delivered >= self.measured_injected
        # Saturation compares delivery against the traffic actually
        # injected, not the nominal Bernoulli rate: patterns may leave
        # sources idle (self-mapped endpoints in bit permutations), and
        # that structural shortfall is not congestion.
        injected_rate = (
            self.measured_injected
            * self.config.packet_length
            / (n_active * measure)
            if measure
            else 0.0
        )
        saturated = (not drained) or (
            injected_rate > 0 and accepted < 0.95 * injected_rate
        )
        return SimResult(
            offered_load=self.offered_load,
            accepted_load=accepted,
            avg_latency=self.latencies.mean(),
            p99_latency=self.latencies.percentile(99),
            delivered=self.measured_delivered,
            injected=self.measured_injected,
            saturated=saturated,
            cycles=self.now,
            avg_queue_latency=self.queue_latencies.mean(),
        )

    def _all_idle(self) -> bool:
        net = self.net
        for router in net.active_routers:
            if any(q for q in net.in_buf[router].values()):
                return False
            if any(net.out_stage[router]):
                return False
        return not any(net.inject_queue)


def reference_simulate(
    topology: Topology,
    routing: RoutingAlgorithm,
    traffic,
    offered_load: float,
    config: SimConfig | None = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`ReferenceEngine`."""
    return ReferenceEngine(topology, routing, traffic, offered_load, config).run()


class ReferenceMinimalRouting(SourceRoutedAlgorithm):
    """The seed commit's MIN hot path, frozen alongside the engine.

    The live ``RoutingTables.min_path`` now follows a precomputed
    next-hop matrix; the seed planned every packet by scanning
    neighbour candidates with numpy scalar reads.  The throughput
    benchmark pairs this planner with :class:`ReferenceEngine` so the
    baseline measures the seed commit end to end.
    """

    name = "MIN"

    def __init__(self, tables):
        self.tables = tables
        self.num_vcs = max(1, tables.diameter())

    def _candidates(self, at: int, dst: int) -> list[int]:
        dist = self.tables.dist
        target = dist[at, dst] - 1
        return [v for v in self.tables.adjacency[at] if dist[v, dst] == target]

    def plan(self, src_router: int, dst_router: int, network=None) -> list[int]:
        path = [src_router]
        at = src_router
        while at != dst_router:
            at = self._candidates(at, dst_router)[0]
            path.append(at)
        return path
