import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane.qram import WeightMode, address_marginal, join_from_raw, qram_join
from qcplane.statevector import amplitude_encode


def concat_oracle(vectors):
    """Independent reference: encode the padded concatenation directly."""
    padded = []
    for v in vectors:
        v = np.asarray(v, dtype=float)
        width = 1 << (int(v.size - 1).bit_length())
        padded.append(np.concatenate([v, np.zeros(width - v.size)]))
    return amplitude_encode(np.concatenate(padded))


def random_vector_sets(seed, count):
    """Instances with K <= 16 sources, <= 6 data qubits, <= 10 total qubits."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 17))
        address_qubits = int(k - 1).bit_length()
        m = int(rng.integers(0, min(6, 10 - address_qubits) + 1))
        length = int(rng.integers(max(1, (1 << m) // 2 + 1), (1 << m) + 1))
        yield [rng.standard_normal(length) + 0.1 for _ in range(k)]


@st.composite
def vector_sets(draw):
    """1 to 5 signed vectors of one length, with zeros, -0.0 and entries
    near both ends of the float range."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e200, -1e-100])
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n).filter(any), min_size=1, max_size=5))


class TestQramJoin:
    def test_no_states_rejected(self):
        with pytest.raises(ValueError, match="^need at least one state to join$"):
            qram_join([])

    def test_weight_count_must_match_the_states(self):
        states = [amplitude_encode([1, 0]), amplitude_encode([0, 1])]
        with pytest.raises(ValueError, match="^got 1 weights for 2 states$"):
            qram_join(states, weights=[1.0])

    def test_single_source_join_is_identity(self):
        state = amplitude_encode([3, 4])
        joined = qram_join([state], mode=WeightMode.UNIFORM)
        assert joined.address_qubits == 0
        assert joined.num_sources == 1
        np.testing.assert_allclose(joined.state.amplitudes, state.amplitudes, atol=1e-15)

    def test_two_source_uniform_join(self):
        # Hand tensor arithmetic: [0.6, 0.8]/sqrt2 ++ [1, 0]/sqrt2.
        joined = qram_join(
            [amplitude_encode([3, 4]), amplitude_encode([1, 0])],
            mode=WeightMode.UNIFORM,
        )
        want = np.array([0.6, 0.8, 1.0, 0.0]) / math.sqrt(2)
        np.testing.assert_allclose(joined.state.amplitudes, want, atol=1e-12)
        assert joined.state.num_qubits == 2

    def test_eleven_plus_log_k_qubits(self):
        # 1024 sources of 11-qubit states -> 21 joined qubits.
        state = amplitude_encode(np.ones(2048))
        joined = qram_join([state] * 1024, mode=WeightMode.UNIFORM)
        assert joined.state.num_qubits == 21

    @pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (16, 4)])
    def test_address_register_width(self, k, expected):
        state = amplitude_encode([1, 1])
        joined = qram_join([state] * k, mode=WeightMode.UNIFORM)
        assert joined.address_qubits == expected
        assert joined.state.num_qubits == 1 + expected

    def test_non_power_of_two_branches_are_empty(self):
        state = amplitude_encode([1, 0])
        joined = qram_join([state] * 3, mode=WeightMode.UNIFORM)
        np.testing.assert_allclose(joined.state.amplitudes[6:], 0.0, atol=1e-15)

    def test_mixed_dimensions_rejected(self):
        message = "^all joined states must have equal qubit count; state 1 has 2, state 0 has 1$"
        with pytest.raises(ValueError, match=message):
            qram_join([amplitude_encode([1, 1]), amplitude_encode([1, 1, 1])])

    def test_nonpositive_weight_rejected(self):
        states = [amplitude_encode([1, 0]), amplitude_encode([0, 1])]
        with pytest.raises(ValueError, match="^weights must be positive and finite; weight 1 is 0.0$"):
            qram_join(states, weights=[1.0, 0.0])
        with pytest.raises(ValueError, match="^weights must be positive and finite; weight 1 is -2.0$"):
            qram_join(states, weights=[1.0, -2.0])

    @given(vector_sets())
    @settings(max_examples=50)
    def test_uniform_mode_is_unit_weights(self, vectors):
        states = [amplitude_encode(v) for v in vectors]
        uniform = qram_join(states, mode=WeightMode.UNIFORM)
        ones = qram_join(states, [1.0] * len(states))
        np.testing.assert_array_equal(uniform.state.amplitudes, ones.state.amplitudes)

    def test_weights_ignored_in_uniform_mode(self):
        states = [amplitude_encode([1, 0]), amplitude_encode([0, 1])]
        a = qram_join(states, weights=[100.0, 1.0], mode=WeightMode.UNIFORM)
        b = qram_join(states, mode=WeightMode.UNIFORM)
        np.testing.assert_array_equal(a.state.amplitudes, b.state.amplitudes)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_join_preserves_normalization(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        states = [amplitude_encode(rng.standard_normal(4) + 0.05) for _ in range(k)]
        weights = rng.uniform(0.1, 5.0, size=k)
        for mode in WeightMode:
            joined = qram_join(states, weights=list(weights), mode=mode)
            assert abs(np.sum(joined.state.probabilities()) - 1.0) <= 1e-10


class TestJoinFromRaw:
    def test_two_basis_vectors_make_correlated_pair(self):
        # Concatenation oracle: encode([1,0,0,1]) = [1,0,0,1]/sqrt2.
        joined = join_from_raw([[1, 0], [0, 1]])
        want = concat_oracle([[1, 0], [0, 1]])
        np.testing.assert_allclose(joined.state.amplitudes, want.amplitudes, atol=1e-12)
        np.testing.assert_allclose(
            joined.state.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12
        )

    def test_single_vector_reduces_to_encode(self):
        joined = join_from_raw([[3, 4]])
        np.testing.assert_allclose(joined.state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_four_copies_spread_evenly(self):
        joined = join_from_raw([[1, 0]] * 4)
        want = np.zeros(8)
        want[[0, 2, 4, 6]] = 0.5
        np.testing.assert_allclose(joined.state.amplitudes, want, atol=1e-12)

    def test_unequal_lengths_rejected(self):
        message = "^all joined vectors must have equal length; vector 1 has 3, vector 0 has 2$"
        with pytest.raises(ValueError, match=message):
            join_from_raw([[1, 2], [1, 2, 3]])

    def test_equals_concatenation_encoding_on_random_instances(self):
        # 100 random instances, K <= 16, m <= 6, <= 10 total qubits. The
        # join is the concatenation's encoding, so the bits agree.
        count = 0
        for vectors in random_vector_sets(seed=2024, count=100):
            joined = join_from_raw(vectors)
            want = concat_oracle(vectors)
            assert joined.state.num_qubits == want.num_qubits
            np.testing.assert_array_equal(joined.state.amplitudes, want.amplitudes)
            count += 1
        assert count == 100

    def test_norms_a_float_range_apart_leave_an_empty_branch(self):
        # The second vector's amplitude rounds to zero beside the first's;
        # the join does not turn it into a weight of its own.
        joined = join_from_raw([[1e200], [1e-200]])
        np.testing.assert_array_equal(joined.state.amplitudes, [1.0, 0.0])
        assert address_marginal(joined, 0).probability == 1.0
        with pytest.raises(ValueError, match="^address branch 1 has probability 0.0, below 1e-12$"):
            address_marginal(joined, 1)

    def test_zero_vector_leaves_an_empty_branch(self):
        joined = join_from_raw([[0, 0], [3, 4], [0, 0]])
        np.testing.assert_allclose(joined.state.amplitudes, [0, 0, 0.6, 0.8, 0, 0, 0, 0], atol=1e-15)
        for k in (0, 2):
            with pytest.raises(ValueError, match=f"^address branch {k} has probability 0.0, below 1e-12$"):
                address_marginal(joined, k)

    def test_all_zero_set_rejected(self):
        with pytest.raises(ValueError, match="^cannot encode a zero vector$"):
            join_from_raw([[0, 0], [0, -0.0]])

    def test_empty_vectors_rejected(self):
        with pytest.raises(ValueError, match="^cannot encode an empty vector$"):
            join_from_raw([[], []])

    def test_no_vectors_rejected(self):
        with pytest.raises(ValueError, match="^need at least one vector to join$"):
            join_from_raw([])


    @pytest.mark.parametrize(
        "vectors, factor",
        [
            ([[1.0, -1.0], [3.0, 4.0]], 1e300),
            ([[1.0, -1.0], [3.0, 4.0]], 1e-200),
            # The second norm, 2.1e308, is beyond the float range itself.
            ([[1.0, 1.0], [3.0, 3.0]], 5e307),
        ],
    )
    def test_norms_out_of_float_range(self, vectors, factor):
        # The vectors' sums of squares overflow or underflow; the weights'
        # ratios still match the same vectors at unit scale.
        joined = join_from_raw([[x * factor for x in v] for v in vectors])
        np.testing.assert_allclose(
            joined.state.amplitudes, join_from_raw(vectors).state.amplitudes, atol=1e-15
        )


class TestWeightRange:
    @pytest.mark.parametrize("factor", [1e300, 1e-200])
    def test_weights_whose_sum_of_squares_leaves_the_float_range(self, factor):
        states = [amplitude_encode([1, 2]), amplitude_encode([3, 1])]
        got = qram_join(states, weights=[1.0 * factor, 2.0 * factor])
        want = qram_join(states, weights=[1.0, 2.0])
        np.testing.assert_allclose(got.state.amplitudes, want.state.amplitudes, atol=1e-15)


class TestBuiltStatesAreReadOnly:
    def test_join_and_marginal_amplitudes(self):
        joined = join_from_raw([[1, 2], [3, 4], [5, 6]])
        uniform = qram_join([amplitude_encode([1, 2])] * 3, mode=WeightMode.UNIFORM)
        branch = address_marginal(joined, 1)
        for state in (joined.state, uniform.state, branch.conditional):
            assert not state.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0

    @given(vector_sets())
    @settings(max_examples=50)
    def test_every_built_state_is_float64_and_read_only(self, vectors):
        states = [amplitude_encode(v) for v in vectors]
        joins = [
            qram_join(states, mode=WeightMode.UNIFORM),
            qram_join(states, [1.0] * len(states), WeightMode.NORM_PROPORTIONAL),
            join_from_raw(vectors),
        ]
        built = states + [j.state for j in joins]
        for j in joins:
            for k in range(j.num_sources):
                try:
                    built.append(address_marginal(j, k).conditional)
                except ValueError as exc:  # a norm far below the others'
                    assert str(exc).startswith(f"address branch {k} has probability ")
        for state in built:
            assert state.amplitudes.dtype == np.float64
            assert not state.amplitudes.flags.writeable

    def test_marginal_leaves_the_joined_state_unchanged(self):
        joined = join_from_raw([[3, 4], [1, 0]])
        before = joined.state.amplitudes.copy()
        branch = address_marginal(joined, 0)
        assert not np.shares_memory(branch.conditional.amplitudes, joined.state.amplitudes)
        np.testing.assert_array_equal(joined.state.amplitudes, before)


class TestAddressMarginal:
    def test_uniform_branch_probabilities(self):
        states = [amplitude_encode([1, 1])] * 4
        joined = qram_join(states, mode=WeightMode.UNIFORM)
        for k in range(4):
            branch = address_marginal(joined, k)
            assert branch.probability == pytest.approx(0.25, abs=1e-12)

    def test_recovers_branch_state(self):
        joined = join_from_raw([[3, 4], [3, 4]])
        branch = address_marginal(joined, 0)
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(branch.conditional.amplitudes, [0.6, 0.8], atol=1e-12)

    def test_single_source_marginal(self):
        state = amplitude_encode([1, 2, 3])
        joined = qram_join([state])
        branch = address_marginal(joined, 0)
        assert branch.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(branch.conditional.amplitudes, state.amplitudes, atol=1e-15)

    def test_address_out_of_range(self):
        joined = join_from_raw([[1, 2], [3, 4]])
        with pytest.raises(IndexError, match=r"^address 2 outside \[0, 2\)$"):
            address_marginal(joined, 2)
        with pytest.raises(IndexError, match=r"^address -1 outside \[0, 2\)$"):
            address_marginal(joined, -1)

    def test_empty_branch_detected(self):
        # Branch 1's weight is negligible beside branch 0's.
        states = [amplitude_encode([1, 0]), amplitude_encode([0, 1])]
        joined = qram_join(states, weights=[1.0, 1e-9])
        probability = float(np.sum(np.square(joined.state.amplitudes[2:])))
        assert 0 < probability < 1e-12
        message = f"^address branch 1 has probability {probability}, below 1e-12$"
        with pytest.raises(ValueError, match=message):
            address_marginal(joined, 1)

    def test_round_trip_fidelity_on_random_instances(self):
        # Same instance family as the concatenation check; every branch is
        # recovered with overlap magnitude >= 1 - 1e-10.
        for vectors in random_vector_sets(seed=77, count=100):
            joined = join_from_raw(vectors)
            for k, v in enumerate(vectors):
                branch = address_marginal(joined, k)
                fidelity = abs(np.vdot(branch.conditional.amplitudes, amplitude_encode(v).amplitudes))
                assert fidelity >= 1 - 1e-10
