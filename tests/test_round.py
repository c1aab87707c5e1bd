"""
The two layers describe one collection round alike.

`scaling` states a round's qubit counts in closed form; `statevector` and
`qram` build the round's states. Here a small round (at most 16 qubits at
the hypervisor) is built state by state and its widths, its re-encoding
cost and its recoverable branches are compared with the closed forms.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane.qram import WeightMode, address_marginal, join_from_raw, qram_join
from qcplane.scaling import TopologySpec, break_even_shots, quantum_loads
from qcplane.statevector import amplitude_encode, estimate_expectation

MAX_QUBITS = 16


@st.composite
def rounds(draw):
    """A topology whose joined state has at most MAX_QUBITS qubits, and
    positive telemetry for each of its N x K switches."""
    n = draw(st.integers(1, 16))
    k = draw(st.integers(1, 16))
    address_qubits = int(n - 1).bit_length() + int(k - 1).bit_length()
    p = draw(st.integers(1, min(1 << (MAX_QUBITS - address_qubits), 4096)))
    t = TopologySpec(
        num_controllers=n,
        switches_per_controller=k,
        params_per_switch=p,
        bits_per_param=draw(st.integers(1, 16)),
        shots=draw(st.integers(2, 64)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return t, rng.uniform(0.1, 10.0, size=(n, k, p))


@given(rounds(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_built_round_matches_the_closed_forms(round_, seed):
    t, telemetry = round_
    loads = quantum_loads(t)
    r = t.shots

    switches = [[amplitude_encode(v) for v in row] for row in telemetry]
    controllers = [join_from_raw(list(row)) for row in telemetry]
    norms = [float(np.linalg.norm(row)) for row in telemetry]
    hypervisor = qram_join([j.state for j in controllers], norms, WeightMode.NORM_PROPORTIONAL)

    assert all(s.num_qubits * r == loads.leaf_link_load for row in switches for s in row)
    assert all(j.state.num_qubits * r == loads.mid_link_load for j in controllers)
    assert hypervisor.state.num_qubits == loads.hypervisor_state_size <= MAX_QUBITS

    # R shots of one switch's vector re-encode it R times: the leaf load.
    source = telemetry[0, 0]
    estimate = estimate_expectation(source, np.arange(source.size, dtype=float), r, seed)
    assert estimate.qubits_sent == loads.leaf_link_load

    # Each address branch gives back what was joined under it.
    for c, joined in enumerate(controllers):
        branch = address_marginal(hypervisor, c)
        assert branch.probability == pytest.approx(norms[c] ** 2 / sum(x**2 for x in norms))
        np.testing.assert_allclose(branch.conditional.amplitudes, joined.state.amplitudes, atol=1e-12)
        for s, vector in enumerate(telemetry[c]):
            branch = address_marginal(joined, s)
            recovered = branch.conditional.amplitudes[: vector.size]
            np.testing.assert_allclose(recovered, vector / np.linalg.norm(vector), atol=1e-12)
            np.testing.assert_allclose(branch.conditional.amplitudes, switches[c][s].amplitudes, atol=1e-12)


@given(st.integers(1, 3000), st.integers(1, 16))
def test_break_even_is_the_last_shot_count_that_saves_leaf_traffic(p, b):
    t = TopologySpec(num_controllers=1, switches_per_controller=1, params_per_switch=p, bits_per_param=b)
    m = amplitude_encode(np.ones(p)).num_qubits
    if m == 0:
        with pytest.raises(ValueError, match="^params_per_switch=1 encodes into 0 qubits"):
            break_even_shots(t)
        return
    assert break_even_shots(t) == max(r for r in range(1, p * b + 1) if r * m <= p * b)
