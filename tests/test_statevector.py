import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane.statevector import (
    DimensionMismatchError,
    EmptyVectorError,
    EstimateResult,
    OutcomeHistogram,
    QuantumState,
    ShotsTooFewError,
    SparseCounts,
    ZeroVectorError,
    _draw_indices,
    amplitude_encode,
    estimate_expectation,
    expectation,
    measure_sample,
)

# Shared strategy: finite real vectors with a usable norm.
vectors = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
).filter(lambda v: np.linalg.norm(v) > 1e-30)


def basis_state(index: int, num_qubits: int) -> QuantumState:
    amps = np.zeros(1 << num_qubits)
    amps[index] = 1.0
    return QuantumState(amps)


class TestAmplitudeEncode:
    def test_two_thousand_params_fit_in_eleven_qubits(self):
        state = amplitude_encode(np.arange(1, 2001, dtype=float))
        assert state.num_qubits == 11
        assert state.dim == 2048

    def test_basis_vector_is_unchanged(self):
        state = amplitude_encode([1, 0, 0, 0])
        assert state.num_qubits == 2
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_three_four_normalizes_by_five(self):
        state = amplitude_encode([3, 4])
        assert state.num_qubits == 1
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_padding_to_next_power_of_two(self):
        state = amplitude_encode([1, 1, 1])
        expected = [1 / math.sqrt(3)] * 3 + [0.0]
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)
        assert state.num_qubits == 2

    def test_empty_vector_rejected(self):
        with pytest.raises(EmptyVectorError):
            amplitude_encode([])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            amplitude_encode([0.0, 0.0, 0.0])

    @given(vectors)
    def test_encoded_state_is_normalized(self, v):
        state = amplitude_encode(v)
        assert abs(np.sum(state.probabilities()) - 1.0) <= 1e-10

    @given(vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, v, c):
        a = amplitude_encode(v)
        b = amplitude_encode(np.asarray(v) * c)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-10)

    @given(vectors)
    def test_qubit_count_is_ceil_log2(self, v):
        state = amplitude_encode(v)
        expected = math.ceil(math.log2(len(v))) if len(v) > 1 else 0
        assert state.num_qubits == expected


class TestQuantumStateInvariants:
    def test_non_power_of_two_length_rejected(self):
        with pytest.raises(ValueError):
            QuantumState([1.0, 0.0, 0.0])

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            QuantumState([1.0, 1.0])

    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.inf, 0.0]])
    def test_non_finite_amplitudes_rejected(self, amps):
        with pytest.raises(ValueError, match="is not 1"):
            QuantumState(amps)

    @pytest.mark.parametrize(
        "amps, message",
        [
            ([complex(np.inf, np.nan), 0.0], "amplitudes must be real; entry 0 is (inf+nanj)"),
            (np.array([0.6, 0.8j]), "amplitudes must be real; entry 1 is 0.8j"),
            ([0.6, complex(0.8, -1e-300)], "amplitudes must be real; entry 1 is (0.8-1e-300j)"),
        ],
        ids=["inf-nan", "imaginary", "tiny-imaginary"],
    )
    def test_complex_amplitudes_rejected(self, amps, message):
        with pytest.raises(ValueError) as exc_info:
            QuantumState(amps)
        assert str(exc_info.value) == message

    def test_complex_array_with_zero_imaginary_parts_is_real(self):
        amps = np.array([complex(0.6, -0.0), -0.8], dtype=np.complex128)
        state = QuantumState(amps)
        assert state.amplitudes.dtype == np.float64
        assert state.amplitudes.tolist() == [0.6, -0.8]

    def test_states_are_immutable(self):
        state = amplitude_encode([3, 4])
        with pytest.raises(AttributeError):
            state.num_qubits = 3
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestMeasureSample:
    def test_basis_state_is_deterministic(self):
        hist = measure_sample(basis_state(0, 2), shots=1000, seed=0)
        assert hist.counts == {0: 1000}
        assert hist.total_shots == 1000

    def test_uniform_qubit_frequency(self):
        # Binomial oracle: p=0.5, sigma = sqrt(0.25/1e6) = 5e-4; bound 0.002.
        hist = measure_sample(amplitude_encode([1, 1]), shots=10**6, seed=7)
        assert hist.counts.get(0, 0) / hist.total_shots == pytest.approx(0.5, abs=0.002)

    def test_biased_qubit_frequency(self):
        # p(1) = (4/5)^2 = 0.64; 3 sigma = 3*sqrt(0.64*0.36/1e6) ~ 0.0015.
        hist = measure_sample(amplitude_encode([3, 4]), shots=10**6, seed=11)
        assert hist.counts.get(1, 0) / hist.total_shots == pytest.approx(0.64, abs=0.0015)

    def test_counts_sum_to_shots(self):
        hist = measure_sample(amplitude_encode([1, 2, 3, 4, 5]), shots=4321, seed=5)
        assert sum(hist.counts.values()) == 4321
        assert all(0 <= k < 8 for k in hist.counts)

    def test_zero_probability_outcomes_never_appear(self):
        # Padding slot of a 3-entry vector must stay unmeasured.
        hist = measure_sample(amplitude_encode([1, 1, 1]), shots=10**5, seed=3)
        assert 3 not in hist.counts

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_fixed_seed_reproduces_histogram(self, seed):
        state = amplitude_encode([1, 2, 3])
        a = measure_sample(state, shots=500, seed=seed)
        b = measure_sample(state, shots=500, seed=seed)
        assert a == b

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            measure_sample(basis_state(0, 1), shots=0, seed=0)


def test_measurement_frequencies_match_probabilities_within_4_sigma():
    # Frozen master seed: ten random dense states, one per width 1..10,
    # one million shots each, every outcome within 4 binomial sigmas.
    master = 3
    rng = np.random.default_rng(master)
    shots = 10**6
    for m in range(1, 11):
        state = amplitude_encode(rng.standard_normal(1 << m))
        hist = measure_sample(state, shots=shots, seed=master * 1000 + m)
        for i, p in enumerate(state.probabilities()):
            sigma = math.sqrt(p * (1 - p) / shots)
            freq = hist.counts.get(i, 0) / hist.total_shots
            if sigma == 0.0:
                assert freq == p
            else:
                assert abs(freq - p) <= 4 * sigma


class TestExpectation:
    def test_basis_state(self):
        assert expectation(basis_state(0, 1), [5, -5]) == 5

    def test_uniform_superposition(self):
        assert expectation(amplitude_encode([1, 1]), [0, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_weighted_observable(self):
        # Direct arithmetic oracle: 0.6^2 * 1 + 0.8^2 * 2.
        want = 0.6**2 * 1 + 0.8**2 * 2
        assert expectation(amplitude_encode([3, 4]), [1, 2]) == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(basis_state(0, 2), [1, 2])


class TestEstimateExpectation:
    def test_qubits_sent_counts_fresh_encodings(self):
        # 2000-dim source: 11 qubits per round, 100 rounds.
        source = np.arange(1, 2001, dtype=float)
        result = estimate_expectation(source, np.ones(2000), shots=100, seed=0)
        assert result.qubits_sent == 1100

    def test_deterministic_source_has_zero_spread(self):
        result = estimate_expectation([1, 0], [4.5, -1.0], shots=50, seed=9)
        assert result.estimate == 4.5
        assert result.std_error == 0.0

    def test_uniform_qubit_estimate(self):
        # Binomial oracle: 3 sigma at 1e4 shots is 0.015.
        result = estimate_expectation([1, 1], [0, 1], shots=10**4, seed=21)
        assert result.estimate == pytest.approx(0.5, abs=0.015)

    def test_observable_at_padded_length_accepted(self):
        result = estimate_expectation([1, 1, 1], [1, 1, 1, 99], shots=100, seed=0)
        assert result.estimate == 1.0  # padding slot is unreachable

    def test_too_few_shots(self):
        with pytest.raises(ShotsTooFewError):
            estimate_expectation([1, 1], [0, 1], shots=1, seed=0)

    def test_incompatible_observable(self):
        with pytest.raises(DimensionMismatchError):
            estimate_expectation([1, 1, 1], [0, 1], shots=10, seed=0)

    def test_std_error_shrinks_with_shots(self):
        # 50 replicates: the spread ratio between 1e2 and 1e4 shots should
        # sit near sqrt(1e4/1e2) = 10.
        lo = [estimate_expectation([1, 1], [0, 1], 100, seed).std_error for seed in range(50)]
        hi = [estimate_expectation([1, 1], [0, 1], 10**4, seed).std_error for seed in range(50)]
        ratio = np.mean(lo) / np.mean(hi)
        assert 7.0 <= ratio <= 13.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_bit_identical_for_fixed_inputs(self, seed):
        a = estimate_expectation([2, 5, 1], [1, 2, 3], shots=200, seed=seed)
        b = estimate_expectation([2, 5, 1], [1, 2, 3], shots=200, seed=seed)
        assert a == b


# --- the sampler searched in draw order, kept as the oracle ------------------


def oracle_encode(values) -> QuantumState:
    """Plain encoding: pad, then divide by np.linalg.norm."""
    vec = np.asarray(values, dtype=np.float64).reshape(-1)
    padded = np.zeros(1 << int(vec.size - 1).bit_length())
    padded[: vec.size] = vec / np.linalg.norm(vec)
    return QuantumState(padded)


def oracle_indices(state: QuantumState, shots: int, seed: int) -> np.ndarray:
    """One searchsorted of the draws in the order they were drawn; a draw
    past cdf[-1] goes to the last slot with positive probability."""
    probs = state.probabilities()
    draws = np.random.default_rng(seed).random(shots)
    idx = np.searchsorted(np.cumsum(probs), draws, side="right")
    return np.minimum(idx, np.flatnonzero(probs)[-1])


def oracle_histogram(state: QuantumState, shots: int, seed: int) -> dict[int, int]:
    values, counts = np.unique(oracle_indices(state, shots, seed), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def padded_observable(source, observable) -> np.ndarray:
    obs = np.zeros(1 << int(len(source) - 1).bit_length())
    obs[: len(observable)] = observable
    return obs


def oracle_estimate(source, observable, shots: int, seed: int) -> EstimateResult:
    """The statistics of the draw-order search's samples, summed in
    increasing outcome order."""
    state = oracle_encode(source)
    samples = padded_observable(source, observable)[np.sort(oracle_indices(state, shots, seed))]
    return EstimateResult(
        float(np.mean(samples)),
        float(np.std(samples, ddof=1) / math.sqrt(shots)),
        shots * state.num_qubits,
    )


@st.composite
def padded_states(draw):
    """Random signed real states of 0 to 12 qubits, with zero padding past
    a random length and zeroed slots inside it."""
    m = draw(st.integers(0, 12))
    used = draw(st.integers(1, 1 << m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(1 << m)
    amps[:used] = rng.standard_normal(used)
    amps[:used][rng.random(used) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if not amps.any():
        amps[used - 1] = 1.0
    return QuantumState(amps / np.sqrt(amps.dot(amps)))


class TestSamplerOracle:
    @given(padded_states(), st.integers(1, 200_000), st.integers(0, 2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_histogram_equals_the_draw_order_search(self, state, shots, seed):
        hist = measure_sample(state, shots, seed)
        assert dict(hist.counts.items()) == oracle_histogram(state, shots, seed)

    @given(
        st.integers(1, 1 << 12),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.integers(2, 200_000),
        st.integers(0, 2**63 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_equals_the_draw_order_search(self, n, data_seed, padded_obs, shots, seed):
        rng = np.random.default_rng(data_seed)
        source = rng.standard_normal(n) * (rng.random(n) < 0.7)
        source[-1] = 1.0
        width = 1 << int(n - 1).bit_length() if padded_obs else n
        observable = rng.standard_normal(width)
        got = estimate_expectation(source, observable, shots, seed)
        assert tuple(got) == tuple(oracle_estimate(source, observable, shots, seed))
        # Only the summation order differs from the mean in draw order.
        obs = padded_observable(source, observable)
        in_draw_order = np.mean(obs[oracle_indices(oracle_encode(source), shots, seed)])
        assert abs(got.estimate - in_draw_order) <= 1e-12 * np.max(np.abs(obs))

    def test_eighteen_qubits_one_hundred_thousand_shots(self):
        rng = np.random.default_rng(18)
        source = rng.uniform(0.1, 10.0, 250_000)
        observable = np.arange(source.size, dtype=np.float64)
        state = amplitude_encode(source)
        assert state.num_qubits == 18
        hist = measure_sample(state, 100_000, 1234)
        assert dict(hist.counts.items()) == oracle_histogram(state, 100_000, 1234)
        got = estimate_expectation(source, observable, 100_000, 5678)
        assert got == oracle_estimate(source, observable, 100_000, 5678)


class TestDrawIndices:
    def test_draw_past_the_cdf_skips_a_zero_top_slot(self):
        # cdf[-1] = 1 - 5e-11: the draw lies past it, and slot 1 has no
        # probability, so it must land on slot 0.
        state = QuantumState([math.sqrt(1 - 5e-11), 0.0])
        cdf = np.cumsum(state.probabilities())
        assert cdf[-1] < 1 - 1e-11
        assert _draw_indices(cdf, np.array([0.5, 1 - 1e-11])).tolist() == [0, 0]

    def test_draw_past_the_cdf_keeps_a_nonzero_top_slot(self):
        state = QuantumState([0.0, math.sqrt(1 - 5e-11)])
        cdf = np.cumsum(state.probabilities())
        assert _draw_indices(cdf, np.array([0.0, 1 - 1e-11])).tolist() == [1, 1]


class TestSparseCounts:
    def hist(self):
        state = amplitude_encode([1, 0, 2, 0, 0, 3, 1])
        return measure_sample(state, 10_000, 4)

    def test_behaves_as_the_dict_of_its_items(self):
        counts = self.hist().counts
        plain = dict(zip(counts.outcomes.tolist(), counts.shots.tolist()))
        assert counts == plain and plain == counts
        assert counts != {**plain, 99: 1}
        assert len(counts) == len(plain) == 4
        assert list(counts) == sorted(plain) == [0, 2, 5, 6]
        assert list(counts.keys()) == [0, 2, 5, 6]
        assert list(counts.values()) == [plain[k] for k in (0, 2, 5, 6)]
        assert list(counts.items()) == sorted(plain.items())
        assert (5, plain[5]) in counts.items()
        assert plain[2] in counts.values()

    def test_lookups(self):
        counts = self.hist().counts
        assert 5 in counts and np.int64(5) in counts
        assert 1 not in counts and 7 not in counts and -1 not in counts
        assert 2**70 not in counts and "5" not in counts
        assert counts.get(1) is None and counts.get(1, 0) == 0
        with pytest.raises(KeyError):
            counts[3]
        assert counts[0] == counts.get(0) > 0

    def test_keys_and_values_are_python_ints(self):
        counts = self.hist().counts
        assert all(type(k) is int for k in counts)
        assert all(type(v) is int for v in counts.values())
        assert type(counts[5]) is int
        assert all(type(k) is int and type(v) is int for k, v in counts.items())

    def test_arrays_are_read_only(self):
        counts = self.hist().counts
        with pytest.raises(ValueError):
            counts.outcomes[0] = 1
        with pytest.raises(ValueError):
            counts.shots[0] = 1

    def test_frequency_of_an_unseen_outcome_is_zero(self):
        hist = self.hist()
        assert hist.counts.get(1, 0) / hist.total_shots == 0.0
        assert hist.counts.get(5, 0) / hist.total_shots == hist.counts[5] / 10_000

    def test_histogram_from_a_dict(self):
        hist = OutcomeHistogram({3: 2, 0: 5}, 7)
        assert isinstance(hist.counts, SparseCounts)
        assert hist.counts.outcomes.tolist() == [0, 3]
        assert hist == OutcomeHistogram(SparseCounts([0, 3], [5, 2]), 7)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            OutcomeHistogram(SparseCounts([0, 1], [-1, 3]), 2)
        with pytest.raises(ValueError, match="add up"):
            OutcomeHistogram({0: 1, 1: 1}, 3)
        with pytest.raises(ValueError, match="increase"):
            SparseCounts([1, 1], [1, 1])
        with pytest.raises(ValueError, match="1-D"):
            SparseCounts([0, 1], [1])


class TestOwnership:
    def test_constructor_copies_the_callers_array(self):
        arr = np.array([1.0, 0.0])
        state = QuantumState(arr)
        arr[0], arr[1] = 0.0, 1.0
        assert state.amplitudes.tolist() == [1.0, 0.0]
        assert arr.flags.writeable

    def test_encoded_amplitudes_are_read_only(self):
        assert not amplitude_encode([1, 2, 3]).amplitudes.flags.writeable


class TestNormRange:
    @pytest.mark.parametrize(
        "values, want",
        [
            ([1e300, -1e300], [2**-0.5, -(2**-0.5)]),
            ([1e-200, 1e-200], [2**-0.5, 2**-0.5]),
            ([3e-170, 4e-170, 0.0], [0.6, 0.8, 0.0, 0.0]),
            # Subnormal sums of squares whose roots are normal numbers.
            ([3e-160, 4e-160], [0.6, 0.8]),
            ([1e-160, 0.0], [1.0, 0.0]),
            ([1.5e308, 1.5e308, 1.5e308, 1.5e308], [0.5] * 4),
        ],
    )
    def test_sum_of_squares_out_of_float_range(self, values, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = amplitude_encode(values)
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-15)

    def test_estimate_of_an_out_of_range_source(self):
        got = estimate_expectation([1e300, 1e300], [0.0, 1.0], shots=100, seed=3)
        assert got == estimate_expectation([1.0, 1.0], [0.0, 1.0], shots=100, seed=3)

    def test_subnormal_entries_are_not_zero(self):
        state = amplitude_encode([5e-324, 0.0])
        assert state.amplitudes.tolist() == [1.0, 0.0]
