"""Simulator configuration with the paper's §V defaults."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validation import check_seed


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the cycle simulator.

    Defaults mirror §V: "Total buffering/port is 64 flit entries …
    Router delay for credit processing is 2 cycles.  Delays for channel
    latency, switch allocation, VC allocation, and processing in a
    crossbar are 1 cycle each.  Speedup of the internals of the routers
    over the channel transmission rate is 2."  Three VCs unless the
    routing algorithm demands more.
    """

    #: Total flit buffering per input port, split evenly across VCs.
    buffer_per_port: int = 64
    #: Virtual channels (the paper runs three; adaptive schemes may need 4).
    num_vcs: int = 3
    #: Cycles for the downstream router to process and return a credit.
    credit_delay: int = 2
    #: Wire latency in cycles.
    channel_latency: int = 1
    #: Switch-allocation, VC-allocation and crossbar stage delays.
    sa_delay: int = 1
    vc_delay: int = 1
    crossbar_delay: int = 1
    #: Internal router speedup over the channel rate.
    speedup: int = 2
    #: Flits per packet.  The paper's §V setup uses 1 ("single flow
    #: control unit packets") to isolate routing behaviour; larger
    #: values enable the virtual-cut-through extension: packets then
    #: need `packet_length` credits to advance, occupy the channel for
    #: `packet_length` cycles, and latency is measured at the tail flit.
    packet_length: int = 1
    #: Warmup cycles before measurement starts.
    warmup_cycles: int = 500
    #: Measurement window length in cycles.
    measure_cycles: int = 1500
    #: Extra cycles allowed for measured packets to drain.
    drain_cycles: int = 4000
    #: RNG seed for injection and adaptive tie-breaks.
    seed: int = 1

    def __post_init__(self):
        # An out-of-range knob would still hash, and would run into an
        # empty row or an engine crash instead of failing here.
        for name in (
            "credit_delay", "channel_latency", "sa_delay", "vc_delay",
            "crossbar_delay", "warmup_cycles", "drain_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in (
            "measure_cycles", "num_vcs", "packet_length", "buffer_per_port",
            "speedup",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_seed(self.seed)

    @property
    def hop_latency(self) -> int:
        """Zero-load cycles per hop: channel + SA + VC + crossbar."""
        return (
            self.channel_latency + self.sa_delay + self.vc_delay + self.crossbar_delay
        )

    @property
    def buffer_per_vc(self) -> int:
        """Per-VC share of the input-port buffer (at least one flit)."""
        return max(1, self.buffer_per_port // self.num_vcs)

    def with_vcs(self, num_vcs: int) -> "SimConfig":
        """Copy with a different VC count (buffer per port unchanged)."""
        from dataclasses import replace

        return replace(self, num_vcs=num_vcs)

    def scaled(self, warmup: int, measure: int, drain: int | None = None) -> "SimConfig":
        """Copy with different run lengths (tests use short runs)."""
        from dataclasses import replace

        return replace(
            self,
            warmup_cycles=warmup,
            measure_cycles=measure,
            drain_cycles=drain if drain is not None else 2 * measure,
        )
