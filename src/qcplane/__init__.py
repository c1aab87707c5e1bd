"""Hybrid classical-quantum control-plane accounting and simulation.

Every public name is looked up in its submodule on first use (PEP 562), so
`import qcplane` loads nothing but the package itself, and numpy only
comes in with a name from `statevector` or `qram`.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exchange": ("InfeasibleError", "LinkLoad", "ResourceLedger", "TransferPlan", "balance_link"),
    "netsim": (
        "CollectionResult", "EnergyModel", "LatencyBreakdown", "LinkSpec", "TierLinks",
        "energy_estimate", "link_latency", "simulate_collection",
    ),
    "qram": ("AddressBranch", "JoinedState", "WeightMode", "address_marginal", "join_from_raw", "qram_join"),
    "scaling": (
        "LoadReport", "ScalingRow", "TopologySpec", "Unit", "break_even_shots", "classical_loads",
        "quantum_loads", "qubits_for_parameters", "scaling_table",
    ),
    "statevector": (
        "EstimateResult", "OutcomeHistogram", "QuantumState", "SparseCounts", "amplitude_encode",
        "estimate_expectation", "expectation", "measure_sample",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
