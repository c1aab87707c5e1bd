"""
Deterministic latency and energy model for one collection round.

Per link, latency decomposes into propagation (distance over signal
speed), transmission (symbols over capacity), queuing (backlog drained at
the same capacity), and a flat per-message processing charge. A round is
synchronized: all K switches fire at once, so the j-th message a
controller ingests waits behind j-1 equal messages in FIFO order, and the
round's end-to-end time is the last leaf arrival plus the last mid-tier
arrival. Energy at the hypervisor scales with symbols ingested and
instructions spent, and inversely with the bandwidth available on the
feeding links.

Quantum transport uses its own symbol rate (q_capacity); by default
scenarios keep it equal to the classical rate so any latency difference
comes from the load alone, not from technology constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .scaling import (
    LoadReport,
    TopologySpec,
    Unit,
    check_fields,
    classical_loads,
    instance,
    number,
    quantum_loads,
)


@dataclass(frozen=True)
class LinkSpec:
    """One link tier: symbol rates, span, and per-message processing time."""

    capacity: float  # bits/second
    q_capacity: float  # qubits/second
    length: float  # meters
    propagation_speed: float = 2.0e8  # m/s, signal speed in fiber
    per_message_processing: float = 1e-6  # seconds

    def __post_init__(self):
        check_fields(self, lambda name, value: number(value, positive=True))

    def rate(self, unit: Unit) -> float:
        return self.capacity if unit is Unit.BITS else self.q_capacity


@dataclass(frozen=True)
class LatencyBreakdown:
    propagation: float
    transmission: float
    queuing: float
    processing: float
    total: float


@dataclass(frozen=True)
class EnergyModel:
    """Transmission-plus-compute energy at the hypervisor."""

    per_bit_tx: float  # joules per symbol sent, at reference bandwidth
    per_instruction: float  # joules
    instructions_per_bit_processed: float
    bandwidth_scaling: float  # reference bandwidth, bits/second

    def __post_init__(self):
        check_fields(self, lambda name, value: number(value, positive=False))


@dataclass(frozen=True)
class TierLinks:
    leaf: LinkSpec
    mid: LinkSpec

    def __post_init__(self):
        check_fields(self, lambda name, value: instance(value, LinkSpec))


@dataclass(frozen=True)
class CollectionResult:
    """Round outcome: loads, the slowest message per tier, totals, and the
    instruction count and bandwidth the energy charge was computed from."""

    mode: str
    loads: LoadReport
    tier_latency: dict[str, LatencyBreakdown]
    end_to_end: float
    energy: float
    instructions: float
    available_bandwidth: float


def _count(name: str, value: float) -> None:
    """Refuse a symbol or instruction count that is negative or not finite."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def link_latency(
    message_size: float,
    link: LinkSpec,
    backlog: float = 0.0,
    unit: Unit = Unit.BITS,
) -> LatencyBreakdown:
    """Delay decomposition for one message of `message_size` symbols.

    `backlog` counts symbols already queued ahead; both it and the message
    drain at the link's rate for the chosen symbol kind.
    """
    _count("message_size", message_size)
    _count("backlog", backlog)
    rate = link.rate(unit)
    propagation = link.length / link.propagation_speed
    transmission = message_size / rate
    queuing = backlog / rate
    processing = link.per_message_processing
    total = propagation + transmission + queuing + processing
    if not math.isfinite(total):
        raise ValueError(
            f"link latency is {total}: propagation + transmission + queuing + processing = "
            f"{link.length} / {link.propagation_speed} + {message_size} / {rate} + {backlog} / {rate}"
            f" + {processing}"
        )
    return LatencyBreakdown(propagation, transmission, queuing, processing, total)


def energy_estimate(
    symbols_sent: float,
    instructions: float,
    available_bandwidth: float,
    model: EnergyModel,
) -> float:
    """Joules for ingesting `symbols_sent` and computing on them.

    The transmission term scales with symbols and inversely with the
    available bandwidth (relative to the model's reference bandwidth); the
    compute term is linear in instructions.
    """
    _count("symbols_sent", symbols_sent)
    _count("instructions", instructions)
    if available_bandwidth <= 0:
        raise ValueError(f"available bandwidth must be > 0, got {available_bandwidth}")
    if not math.isfinite(available_bandwidth):
        raise ValueError(f"available bandwidth must be finite, got {available_bandwidth}")
    tx = model.per_bit_tx * symbols_sent * (model.bandwidth_scaling / available_bandwidth)
    joules = tx + model.per_instruction * instructions
    if not math.isfinite(joules):
        raise ValueError(
            f"energy is {joules}: per_bit_tx * symbols_sent * (bandwidth_scaling / available bandwidth)"
            f" + per_instruction * instructions = {model.per_bit_tx} * {symbols_sent} * "
            f"({model.bandwidth_scaling} / {available_bandwidth}) + {model.per_instruction} * {instructions}"
        )
    return joules


def round_latency(
    loads: LoadReport, links: TierLinks, fan_in_leaf: int, fan_in_mid: int
) -> tuple[dict[str, LatencyBreakdown], float]:
    """Worst-case per-tier breakdowns and their end-to-end sum.

    With synchronized arrivals the last message at each hop queues behind
    fan_in - 1 peers, so the worst leaf message plus the worst mid message
    bound the round.
    """
    leaf = link_latency(
        loads.leaf_link_load,
        links.leaf,
        backlog=(fan_in_leaf - 1) * loads.leaf_link_load,
        unit=loads.unit,
    )
    mid = link_latency(
        loads.mid_link_load,
        links.mid,
        backlog=(fan_in_mid - 1) * loads.mid_link_load,
        unit=loads.unit,
    )
    end_to_end = leaf.total + mid.total
    if not math.isfinite(end_to_end):
        raise ValueError(f"end-to-end latency is {end_to_end}: leaf + mid = {leaf.total} + {mid.total}")
    return {"leaf": leaf, "mid": mid}, end_to_end


def simulate_collection(
    topology: TopologySpec,
    links: TierLinks,
    energy: EnergyModel,
    mode: str,
) -> CollectionResult:
    """One full collection round under classical or quantum transport.

    The energy charge uses the hypervisor's total ingest, a derived
    instruction count (instructions_per_bit_processed per ingested
    symbol), and the mid-tier rate for the active symbol kind as the
    available bandwidth.
    """
    if mode not in ("classical", "quantum"):
        raise ValueError(f"mode must be 'classical' or 'quantum', got {mode!r}")
    loads = classical_loads(topology) if mode == "classical" else quantum_loads(topology)
    tier_latency, end_to_end = round_latency(
        loads, links, topology.switches_per_controller, topology.num_controllers
    )
    instructions = energy.instructions_per_bit_processed * loads.hypervisor_ingest
    bandwidth = links.mid.rate(loads.unit)
    return CollectionResult(
        mode=mode,
        loads=loads,
        tier_latency=tier_latency,
        end_to_end=end_to_end,
        energy=energy_estimate(loads.hypervisor_ingest, instructions, bandwidth, energy),
        instructions=instructions,
        available_bandwidth=bandwidth,
    )
