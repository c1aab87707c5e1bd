import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane.qram import WeightMode, qram_join
from qcplane.scaling import (
    TopologySpec,
    Unit,
    break_even_shots,
    classical_loads,
    quantum_loads,
    qubits_for_parameters,
    scaling_table,
)
from qcplane.statevector import amplitude_encode

topologies = st.builds(
    TopologySpec,
    num_controllers=st.integers(1, 4096),
    switches_per_controller=st.integers(1, 4096),
    params_per_switch=st.integers(1, 100_000),
    bits_per_param=st.integers(1, 64),
    shots=st.integers(1, 1000),
)


def reference_topology(**overrides) -> TopologySpec:
    base = TopologySpec(
        num_controllers=1024,
        switches_per_controller=1024,
        params_per_switch=2000,
    )
    return replace(base, **overrides) if overrides else base


class TestQubitsForParameters:
    @pytest.mark.parametrize(
        "params,expected",
        [(2000, 11), (1, 0), (2, 1), (1024, 10), (1025, 11), (2048, 11), (2049, 12)],
    )
    def test_known_widths(self, params, expected):
        assert qubits_for_parameters(params) == expected

    @given(st.integers(1, 10**9))
    def test_matches_ceil_log2(self, params):
        expected = math.ceil(math.log2(params)) if params > 1 else 0
        assert qubits_for_parameters(params) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qubits_for_parameters(0)


class TestClassicalLoads:
    def test_reference_network(self):
        loads = classical_loads(reference_topology())
        assert loads.leaf_link_load == 2000
        assert loads.controller_ingest == 2_048_000
        assert loads.mid_link_load == 2_048_000
        assert loads.hypervisor_ingest == 2_097_152_000
        assert loads.hypervisor_state_size == 0
        assert loads.unit is Unit.BITS

    def test_degenerate_network(self):
        loads = classical_loads(TopologySpec(1, 1, 1))
        assert (loads.leaf_link_load, loads.controller_ingest, loads.mid_link_load,
                loads.hypervisor_ingest) == (1, 1, 1, 1)

    def test_byte_wide_parameters(self):
        # Direct multiplication oracle: N=2, K=3, P=4, b=8.
        loads = classical_loads(TopologySpec(2, 3, 4, bits_per_param=8))
        assert loads.leaf_link_load == 32
        assert loads.controller_ingest == 96
        assert loads.hypervisor_ingest == 192


class TestQuantumLoads:
    def test_reference_network(self):
        loads = quantum_loads(reference_topology())
        assert loads.leaf_link_load == 11
        assert loads.controller_ingest == 11 * 1024
        assert loads.mid_link_load == 21
        assert loads.hypervisor_ingest == 21 * 1024
        assert loads.hypervisor_state_size == 31
        assert loads.unit is Unit.QUBITS

    def test_repetitions_scale_transfers_not_state(self):
        base = quantum_loads(reference_topology())
        repeated = quantum_loads(reference_topology(shots=100))
        assert repeated.leaf_link_load == 100 * base.leaf_link_load
        assert repeated.controller_ingest == 100 * base.controller_ingest
        assert repeated.mid_link_load == 100 * base.mid_link_load
        assert repeated.hypervisor_ingest == 100 * base.hypervisor_ingest
        assert repeated.hypervisor_state_size == base.hypervisor_state_size == 31

    def test_degenerate_network(self):
        loads = quantum_loads(TopologySpec(1, 1, 1))
        assert (loads.leaf_link_load, loads.controller_ingest, loads.mid_link_load,
                loads.hypervisor_ingest, loads.hypervisor_state_size) == (0, 0, 0, 0, 0)

    @given(topologies, st.integers(1, 64))
    @settings(max_examples=60)
    def test_loads_scale_linearly_in_shots(self, t, r):
        base = quantum_loads(replace(t, shots=1))
        scaled = quantum_loads(replace(t, shots=r))
        assert scaled.leaf_link_load == r * base.leaf_link_load
        assert scaled.controller_ingest == r * base.controller_ingest
        assert scaled.mid_link_load == r * base.mid_link_load
        assert scaled.hypervisor_ingest == r * base.hypervisor_ingest
        assert scaled.hypervisor_state_size == base.hypervisor_state_size

    def test_state_size_matches_actual_two_level_join(self):
        # Desk-scale cross-check against the live join: N = K = 4, P = 8.
        t = TopologySpec(4, 4, 8)
        vector = list(range(1, 9))
        switch_states = [amplitude_encode(vector) for _ in range(4)]
        controller_state = qram_join(switch_states, mode=WeightMode.UNIFORM)
        hypervisor_state = qram_join(
            [controller_state.state] * 4, mode=WeightMode.UNIFORM
        )
        assert quantum_loads(t).hypervisor_state_size == hypervisor_state.state.num_qubits == 7


class TestLoadReportIdentities:
    @given(topologies)
    @settings(max_examples=80)
    def test_ingest_is_fan_in_times_link_load(self, t):
        for loads in (classical_loads(t), quantum_loads(t)):
            assert loads.controller_ingest == t.switches_per_controller * loads.leaf_link_load
            assert loads.hypervisor_ingest == t.num_controllers * loads.mid_link_load


def address_width(n: int) -> int:
    """Smallest a with 2**a >= n, found by counting up."""
    a = 0
    while 2**a < n:
        a += 1
    return a


def walked_loads(t: TopologySpec) -> dict[Unit, dict]:
    """Symbols on every link and at every ingest of one round, summed message
    by message over each switch and controller of the tree.

    A switch streams its P parameters of b bits once, and sends one
    P-amplitude encoding per shot. A controller forwards every bit it
    ingested, and per shot joins the states of its switches under an address
    over them; the hypervisor joins the controllers' states likewise.
    """
    walk = {unit: {"leaf": [], "controller": [], "mid": [], "hypervisor": 0}
            for unit in Unit}
    bits, qubits = walk[Unit.BITS], walk[Unit.QUBITS]
    mid_widths = []
    for _controller in range(t.num_controllers):
        leaf_bits, leaf_qubits, leaf_widths = [], [], []
        for _switch in range(t.switches_per_controller):
            width = address_width(t.params_per_switch)
            leaf_widths.append(width)
            leaf_bits.append(sum(t.bits_per_param for _param in range(t.params_per_switch)))
            leaf_qubits.append(sum(width for _shot in range(t.shots)))
        joined = max(leaf_widths) + address_width(len(leaf_widths))
        mid_widths.append(joined)
        bits["leaf"] += leaf_bits
        qubits["leaf"] += leaf_qubits
        bits["controller"].append(sum(leaf_bits))
        qubits["controller"].append(sum(leaf_qubits))
        bits["mid"].append(sum(leaf_bits))
        qubits["mid"].append(sum(joined for _shot in range(t.shots)))
        bits["hypervisor"] += bits["mid"][-1]
        qubits["hypervisor"] += qubits["mid"][-1]
    bits["state"] = 0
    qubits["state"] = max(mid_widths) + address_width(len(mid_widths))
    return walk


class TestLoadsByTreeWalk:
    @given(st.builds(
        TopologySpec,
        num_controllers=st.integers(1, 16),
        switches_per_controller=st.integers(1, 16),
        params_per_switch=st.integers(1, 64),
        bits_per_param=st.integers(1, 4),
        shots=st.integers(1, 4),
    ))
    @settings(max_examples=80)
    def test_closed_forms_match_the_walk(self, t):
        walk = walked_loads(t)
        for loads in (classical_loads(t), quantum_loads(t)):
            walked = walk[loads.unit]
            assert set(walked["leaf"]) == {loads.leaf_link_load}
            assert set(walked["controller"]) == {loads.controller_ingest}
            assert set(walked["mid"]) == {loads.mid_link_load}
            assert walked["hypervisor"] == loads.hypervisor_ingest
            assert walked["state"] == loads.hypervisor_state_size


class TestMonotonicity:
    FIELDS = ("num_controllers", "switches_per_controller", "params_per_switch",
              "bits_per_param", "shots")

    @given(topologies, st.sampled_from(FIELDS), st.integers(1, 50))
    @settings(max_examples=120)
    def test_every_load_non_decreasing(self, t, field, bump):
        bigger = replace(t, **{field: getattr(t, field) + bump})
        for loads in (classical_loads, quantum_loads):
            a, b = loads(t), loads(bigger)
            assert b.leaf_link_load >= a.leaf_link_load
            assert b.controller_ingest >= a.controller_ingest
            assert b.mid_link_load >= a.mid_link_load
            assert b.hypervisor_ingest >= a.hypervisor_ingest
            assert b.hypervisor_state_size >= a.hypervisor_state_size


class TestBreakEven:
    def test_reference_break_even_is_181(self):
        assert break_even_shots(reference_topology()) == 181

    def test_two_params(self):
        assert break_even_shots(TopologySpec(1, 1, 2)) == 2

    def test_byte_wide(self):
        # floor(16000 / 11) = 1454.
        assert break_even_shots(reference_topology(bits_per_param=8)) == 1454

    def test_single_param_refused(self):
        message = "^params_per_switch=1 encodes into 0 qubits; break-even is unbounded$"
        with pytest.raises(ValueError, match=message):
            break_even_shots(TopologySpec(1, 1, 1))

    @given(st.integers(2, 5000), st.integers(1, 16))
    @settings(max_examples=80)
    def test_break_even_is_maximal(self, params, bits):
        # Brute-force scan: the returned R keeps quantum leaf traffic within
        # the classical budget and R+1 exceeds it.
        t = TopologySpec(1, 1, params, bits_per_param=bits)
        r = break_even_shots(t)
        classical_leaf = classical_loads(t).leaf_link_load
        assert quantum_loads(replace(t, shots=r)).leaf_link_load <= classical_leaf
        assert quantum_loads(replace(t, shots=r + 1)).leaf_link_load > classical_leaf


class TestScalingTable:
    def test_single_value_matches_direct_calls(self):
        t = reference_topology()
        rows = scaling_table(t, "K", [1024])
        assert len(rows) == 1
        row = rows[0]
        assert row.classical_bits == classical_loads(t).hypervisor_ingest
        assert row.quantum_qubits == quantum_loads(t).hypervisor_ingest
        assert row.ratio == pytest.approx(row.classical_bits / row.quantum_qubits)

    def test_k_sweep_shapes(self):
        # Classical grows linearly in K; quantum is affine in log2 K.
        t = reference_topology()
        values = [2**j for j in range(1, 11)]
        rows = scaling_table(t, "K", values)
        n, p, b = t.num_controllers, t.params_per_switch, t.bits_per_param
        m = qubits_for_parameters(p)
        for row, k in zip(rows, values):
            assert row.classical_bits == n * k * p * b
            assert row.quantum_qubits == n * (m + int(math.log2(k)))

    def test_p_sweep_exponential_gap(self):
        # Quantum leaf cost grows like j while classical grows like 2**j.
        t = TopologySpec(1, 1, 2)
        values = [2**j for j in range(1, 16)]
        rows = scaling_table(t, "P", values)
        for row, j in zip(rows, range(1, 16)):
            assert row.classical_bits == 2**j
            assert row.quantum_qubits == j
        ratios = [row.ratio for row in rows]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert all(b > a for a, b in zip(ratios[1:], ratios[2:]))  # strict once j >= 2

    def test_sweep_parameter_aliases(self):
        t = reference_topology()
        short = scaling_table(t, "n", [2, 4])
        long = scaling_table(t, "num_controllers", [2, 4])
        assert [(r.sweep_value, r.classical_bits, r.quantum_qubits) for r in short] == [
            (r.sweep_value, r.classical_bits, r.quantum_qubits) for r in long
        ]
        assert short[0].sweep_param == "N"

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="^cannot sweep over 'bits'; pick one of N, K, P, R$"):
            scaling_table(reference_topology(), "bits", [1, 2])

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            scaling_table(reference_topology(), "K", [0])


def test_doubling_params_at_least_doubles_absolute_gap():
    # The classical-minus-quantum ingest gap at least doubles with P as long
    # as the encoding is not degenerate (m + log K >= 1).
    t = TopologySpec(8, 8, 2)
    for j in range(1, 20):
        a = replace(t, params_per_switch=2**j)
        b = replace(t, params_per_switch=2 ** (j + 1))
        gap_a = classical_loads(a).hypervisor_ingest - quantum_loads(a).hypervisor_ingest
        gap_b = classical_loads(b).hypervisor_ingest - quantum_loads(b).hypervisor_ingest
        assert gap_b >= 2 * gap_a


def test_ratio_non_decreasing_along_power_of_two_params():
    t = TopologySpec(4, 4, 2)
    rows = scaling_table(t, "P", [2**j for j in range(1, 24)])
    ratios = [row.ratio for row in rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
