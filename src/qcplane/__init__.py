"""Hybrid classical-quantum control-plane accounting and simulation."""

from .exchange import (
    InfeasibleError,
    LinkLoad,
    ResourceLedger,
    TransferPlan,
    balance_link,
)
from .netsim import (
    CollectionResult,
    EnergyModel,
    LatencyBreakdown,
    LinkSpec,
    TierLinks,
    ZeroBandwidthError,
    energy_estimate,
    link_latency,
    simulate_collection,
)
from .qram import (
    AddressBranch,
    JoinedState,
    WeightMode,
    address_marginal,
    join_from_raw,
    qram_join,
)
from .scaling import (
    LoadReport,
    ScalingRow,
    TopologySpec,
    Unit,
    break_even_shots,
    classical_loads,
    quantum_loads,
    qubits_for_parameters,
    scaling_table,
)
from .statevector import (
    EstimateResult,
    OutcomeHistogram,
    QuantumState,
    SparseCounts,
    amplitude_encode,
    estimate_expectation,
    expectation,
    inner_product,
    measure_sample,
)

__version__ = "0.1.0"
