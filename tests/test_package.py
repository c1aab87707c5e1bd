"""
The package's public names: each is its submodule's own object, and
`import qcplane` alone loads no submodule, so it never loads numpy.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcplane

REPO = Path(__file__).resolve().parent.parent

# The public names, by the submodule that defines them.
EXPORTS = {
    "exchange": ["InfeasibleError", "LinkLoad", "ResourceLedger", "TransferPlan", "balance_link"],
    "netsim": [
        "CollectionResult", "EnergyModel", "LatencyBreakdown", "LinkSpec", "TierLinks",
        "energy_estimate", "link_latency", "simulate_collection",
    ],
    "qram": ["AddressBranch", "JoinedState", "WeightMode", "address_marginal", "join_from_raw", "qram_join"],
    "scaling": [
        "LoadReport", "ScalingRow", "TopologySpec", "Unit", "break_even_shots", "classical_loads",
        "quantum_loads", "qubits_for_parameters", "scaling_table",
    ],
    "statevector": [
        "EstimateResult", "OutcomeHistogram", "QuantumState", "SparseCounts", "amplitude_encode",
        "estimate_expectation", "measure_sample",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def child(code: str) -> str:
    """stdout of `python -c code` with the checkout's src/ on the path."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_name_is_the_submodule_object(module, name):
    assert getattr(qcplane, name) is getattr(importlib.import_module(f"qcplane.{module}"), name)


def test_all_lists_every_public_name():
    assert sorted(qcplane.__all__) == NAMES


def test_star_import_and_dir_expose_every_name():
    namespace = {}
    exec("from qcplane import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) | {"__version__"} <= set(dir(qcplane))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'inner_product'"):
        qcplane.inner_product
    assert not hasattr(qcplane, "frequency")
    with pytest.raises(ImportError):
        from qcplane import no_such_name  # noqa: F401


def test_import_loads_no_submodule_and_no_numpy():
    loaded = child("import sys, qcplane; print(qcplane.__version__, sorted(m for m in sys.modules"
                   " if m == 'numpy' or m.startswith('qcplane.')))")
    assert loaded == "0.1.0 []\n"


def test_names_load_numpy_only_from_the_statevector_layer():
    probe = "import sys, qcplane; qcplane.{}; print('numpy' in sys.modules)"
    assert child(probe.format("TopologySpec")) == "False\n"
    assert child(probe.format("QuantumState")) == "True\n"
