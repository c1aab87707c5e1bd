from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane.netsim import (
    EnergyModel,
    LinkSpec,
    TierLinks,
    energy_estimate,
    link_latency,
    round_latency,
    simulate_collection,
)
from qcplane.scaling import FieldError, TopologySpec, Unit, break_even_shots, quantum_loads


def make_link(**overrides) -> LinkSpec:
    spec = dict(capacity=1e6, q_capacity=1e6, length=2e5, per_message_processing=1e-4)
    spec.update(overrides)
    return LinkSpec(**spec)


def make_energy(**overrides) -> EnergyModel:
    spec = dict(
        per_bit_tx=1e-9,
        per_instruction=1e-10,
        instructions_per_bit_processed=1.0,
        bandwidth_scaling=1e9,
    )
    spec.update(overrides)
    return EnergyModel(**spec)


PARITY_LINKS = TierLinks(leaf=make_link(), mid=make_link(capacity=1e8, q_capacity=1e8))


class TestLinkLatency:
    def test_empty_message(self):
        b = link_latency(0, make_link())
        assert b.propagation == pytest.approx(2e5 / 2e8)
        assert b.transmission == 0.0
        assert b.queuing == 0.0
        assert b.processing == 1e-4
        assert b.total == pytest.approx(b.propagation + 1e-4)

    def test_reference_breakdown(self):
        # Direct arithmetic oracle: 2e5/2e8, 2000/1e6, 0, 1e-4.
        b = link_latency(2000, make_link())
        assert b.propagation == pytest.approx(1e-3)
        assert b.transmission == pytest.approx(2e-3)
        assert b.queuing == 0.0
        assert b.processing == pytest.approx(1e-4)
        assert b.total == pytest.approx(3.1e-3)

    def test_backlog_scales_queuing_only(self):
        one = link_latency(500, make_link(), backlog=1000)
        two = link_latency(500, make_link(), backlog=2000)
        assert two.queuing == pytest.approx(2 * one.queuing)
        assert (two.propagation, two.transmission, two.processing) == (
            one.propagation,
            one.transmission,
            one.processing,
        )

    def test_quantum_unit_uses_q_capacity(self):
        link = make_link(capacity=1e6, q_capacity=2e6)
        bits = link_latency(1000, link, unit=Unit.BITS)
        qubits = link_latency(1000, link, unit=Unit.QUBITS)
        assert qubits.transmission == pytest.approx(bits.transmission / 2)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            link_latency(-1, make_link())

    @given(
        st.floats(0, 1e9),
        st.floats(0, 1e9),
        st.floats(1e3, 1e9),
        st.floats(1.0, 1e7),
    )
    @settings(max_examples=80)
    def test_total_is_sum_of_components(self, size, backlog, capacity, length):
        link = make_link(capacity=capacity, q_capacity=capacity, length=length)
        b = link_latency(size, link, backlog=backlog)
        assert min(b.propagation, b.transmission, b.queuing, b.processing) >= 0
        assert b.total == pytest.approx(
            b.propagation + b.transmission + b.queuing + b.processing, rel=1e-12
        )


class TestEnergyEstimate:
    def test_zero_work_costs_nothing(self):
        assert energy_estimate(0, 0, 1e9, make_energy()) == 0.0

    def test_reference_value(self):
        # 1e-9 * 1e6 * (1e9/1e9) + 1e-10 * 1e6 = 1.1e-3.
        got = energy_estimate(1e6, 1e6, 1e9, make_energy())
        assert got == pytest.approx(1.1e-3)

    def test_doubling_bandwidth_halves_transmission_term(self):
        model = make_energy(per_instruction=0.0)
        narrow = energy_estimate(1e6, 1e6, 1e8, model)
        wide = energy_estimate(1e6, 1e6, 2e8, model)
        assert narrow == pytest.approx(2 * wide)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError, match=r"^available bandwidth must be > 0, got 0\.0$"):
            energy_estimate(1, 1, 0.0, make_energy())

    @given(st.integers(0, 10**9), st.integers(0, 10**9), st.floats(1e3, 1e12))
    @settings(max_examples=60)
    def test_monotone_in_work_and_antitone_in_bandwidth(self, bits, instructions, bw):
        model = make_energy()
        base = energy_estimate(bits, instructions, bw, model)
        assert energy_estimate(bits + 1, instructions, bw, model) >= base
        assert energy_estimate(bits, instructions + 1, bw, model) >= base
        assert energy_estimate(bits, instructions, bw * 2, model) <= base


class TestSimulateCollection:
    def test_quantum_reference_loads_flow_through(self):
        t = TopologySpec(1024, 1024, 2000)
        result = simulate_collection(t, PARITY_LINKS, make_energy(), "quantum")
        assert result.loads == quantum_loads(t)
        assert result.loads.hypervisor_state_size == 31

    def test_single_switch_single_controller_has_no_queuing(self):
        t = TopologySpec(1, 1, 2000)
        result = simulate_collection(t, PARITY_LINKS, make_energy(), "classical")
        leaf, mid = result.tier_latency["leaf"], result.tier_latency["mid"]
        assert leaf.queuing == 0.0 and mid.queuing == 0.0
        want = (
            link_latency(2000, PARITY_LINKS.leaf).total
            + link_latency(2000, PARITY_LINKS.mid).total
        )
        assert result.end_to_end == pytest.approx(want)

    def test_last_arrival_queues_behind_peers(self):
        t = TopologySpec(num_controllers=2, switches_per_controller=3, params_per_switch=100)
        result = simulate_collection(t, PARITY_LINKS, make_energy(), "classical")
        leaf = result.tier_latency["leaf"]
        assert leaf.queuing == pytest.approx(2 * 100 / PARITY_LINKS.leaf.capacity)
        mid = result.tier_latency["mid"]
        assert mid.queuing == pytest.approx(1 * 300 / PARITY_LINKS.mid.capacity)

    def test_shots_override(self):
        t = TopologySpec(4, 4, 16)
        base = simulate_collection(t, PARITY_LINKS, make_energy(), "quantum")
        repeated = simulate_collection(replace(t, shots=10), PARITY_LINKS, make_energy(), "quantum")
        assert repeated.loads.leaf_link_load == 10 * base.loads.leaf_link_load
        assert repeated.end_to_end > base.end_to_end

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_collection(TopologySpec(1, 1, 2), PARITY_LINKS, make_energy(), "hybrid")

    def test_quantum_beats_classical_at_symbol_rate_parity(self):
        # Mode dominance under q_capacity == capacity and one repetition.
        for n, k, p in [(1, 1, 2), (2, 3, 5), (16, 16, 256), (1024, 1024, 2000)]:
            t = TopologySpec(n, k, p)
            classical = simulate_collection(t, PARITY_LINKS, make_energy(), "classical")
            quantum = simulate_collection(t, PARITY_LINKS, make_energy(), "quantum")
            assert quantum.end_to_end < classical.end_to_end
            assert quantum.energy < classical.energy

    def test_quantum_wins_below_break_even_at_leaf(self):
        t = TopologySpec(4, 4, 2000)
        r = break_even_shots(t)
        below = simulate_collection(replace(t, shots=r), PARITY_LINKS, make_energy(), "quantum")
        classical = simulate_collection(t, PARITY_LINKS, make_energy(), "classical")
        leaf_q = below.loads.leaf_link_load
        leaf_c = classical.loads.leaf_link_load
        assert leaf_q <= leaf_c
        assert below.tier_latency["leaf"].transmission <= classical.tier_latency["leaf"].transmission


@given(st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=60)
def test_round_latency_strictly_monotone_in_loads(leaf_a, mid_a):
    from qcplane.scaling import LoadReport

    def loads(leaf, mid):
        return LoadReport(
            leaf_link_load=leaf,
            controller_ingest=leaf * 3,
            mid_link_load=mid,
            hypervisor_ingest=mid * 2,
            hypervisor_state_size=0,
            unit=Unit.BITS,
        )

    _, base = round_latency(loads(leaf_a, mid_a), PARITY_LINKS, fan_in_leaf=3, fan_in_mid=2)
    _, bigger_leaf = round_latency(loads(leaf_a + 1, mid_a), PARITY_LINKS, 3, 2)
    _, bigger_mid = round_latency(loads(leaf_a, mid_a + 1), PARITY_LINKS, 3, 2)
    assert bigger_leaf > base
    assert bigger_mid > base


def test_link_spec_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        make_link(capacity=0)
    with pytest.raises(ValueError):
        make_link(length=-5)
    with pytest.raises(ValueError):
        make_link(per_message_processing=0)


def test_tier_links_hold_a_link_spec_per_tier():
    with pytest.raises(FieldError) as exc_info:
        TierLinks(make_link(), None)
    assert str(exc_info.value) == "mid: must be a LinkSpec, got None"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "name,call",
    [
        ("message_size", lambda v: link_latency(v, make_link())),
        ("backlog", lambda v: link_latency(1, make_link(), backlog=v)),
        ("symbols_sent", lambda v: energy_estimate(v, 1, 1e9, make_energy())),
        ("instructions", lambda v: energy_estimate(1, v, 1e9, make_energy())),
        ("available bandwidth", lambda v: energy_estimate(1, 1, v, make_energy())),
    ],
    ids=["message_size", "backlog", "symbols_sent", "instructions", "available_bandwidth"],
)
def test_non_finite_amounts_rejected(name, call, value):
    with pytest.raises(ValueError) as exc_info:
        call(value)
    want = "> 0" if name == "available bandwidth" and value < 0 else "finite"
    assert str(exc_info.value).startswith(f"{name} must be {want}")
    assert str(exc_info.value).endswith(f", got {value}")


def test_energy_model_rejects_negative_fields():
    with pytest.raises(ValueError):
        make_energy(per_bit_tx=-1e-9)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_specs_reject_non_finite_fields(value):
    with pytest.raises(ValueError):
        make_link(capacity=value)
    with pytest.raises(ValueError):
        make_link(length=value)
    with pytest.raises(ValueError):
        make_energy(per_bit_tx=value)
    with pytest.raises(ValueError):
        make_energy(bandwidth_scaling=value)
