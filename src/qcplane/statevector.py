"""
Exact pure-state simulation for telemetry packed into probability amplitudes.

A vector of n real telemetry values is zero-padded to the next power of two,
divided by its Euclidean norm, and stored as the amplitudes of a
ceil(log2 n)-qubit state. Measuring in the computational basis returns index
i with probability |amplitude[i]|^2, so a single readout yields only
ceil(log2 n) bits: repeated estimation needs a fresh encoding per shot
(an unknown state cannot be copied), which `estimate_expectation` charges
for in its qubits_sent figure.

Sampling is inverse-CDF over the cumulative probability vector, driven by
numpy's PCG64 generator (`numpy.random.default_rng`) seeded explicitly, so
a (state, shots, seed) triple always reproduces the same histogram.

Signed telemetry is allowed; the sign survives in the amplitudes but is
invisible to sampling and to diagonal observables, which only see squared
magnitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .scaling import qubits_for_parameters

NORM_ATOL = 1e-10

ArrayLike = Sequence[float] | np.ndarray


class EmptyVectorError(ValueError):
    """Encoding requested for a zero-length vector."""


class ZeroVectorError(ValueError):
    """Encoding requested for a vector with zero Euclidean norm."""


class DimensionMismatchError(ValueError):
    """Operands do not share a compatible dimension."""


class ShotsTooFewError(ValueError):
    """Fewer shots than the estimator can produce a spread from."""


class QuantumState:
    """Immutable unit vector over the 2**num_qubits computational basis."""

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes: ArrayLike):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.size == 0:
            raise EmptyVectorError("state needs at least one amplitude")
        m = int(amps.size - 1).bit_length()
        if amps.size != 1 << m:
            raise ValueError(
                f"amplitude count {amps.size} is not a power of two"
            )
        sq = float(np.sum(np.abs(amps) ** 2))
        if abs(sq - 1.0) > NORM_ATOL:
            raise ValueError(f"squared-magnitude sum {sq!r} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", m)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumState is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self) -> str:
        return f"QuantumState(num_qubits={self.num_qubits})"


@dataclass(frozen=True)
class OutcomeHistogram:
    """Shot counts per observed basis index."""

    counts: dict[int, int]
    total_shots: int

    def __post_init__(self):
        if self.total_shots < 1:
            raise ValueError("total_shots must be positive")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative shot count")
        if sum(self.counts.values()) != self.total_shots:
            raise ValueError("counts do not add up to total_shots")

    def frequency(self, outcome: int) -> float:
        return self.counts.get(outcome, 0) / self.total_shots


class EstimateResult(NamedTuple):
    estimate: float
    std_error: float
    qubits_sent: int


def _as_real_vector(values: ArrayLike) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64).reshape(-1)
    if vec.size == 0:
        raise EmptyVectorError("cannot encode an empty vector")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector entries must be finite")
    return vec


def amplitude_encode(values: ArrayLike) -> QuantumState:
    """Encode a real vector as amplitudes of a ceil(log2 n)-qubit state.

    The vector is zero-padded up to the next power of two and divided by
    its Euclidean norm, so padding slots carry exactly zero probability.
    """
    vec = _as_real_vector(values)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroVectorError("cannot encode a zero vector")
    m = qubits_for_parameters(vec.size)
    padded = np.zeros(1 << m, dtype=np.complex128)
    padded[: vec.size] = vec / norm
    return QuantumState(padded)


def _sample_indices(state: QuantumState, shots: int, seed: int) -> np.ndarray:
    # Inverse CDF keeps zero-probability outcomes unreachable: searchsorted
    # with side="right" skips flat segments of the cumulative vector.
    cdf = np.cumsum(state.probabilities())
    draws = np.random.default_rng(seed).random(shots)
    idx = np.searchsorted(cdf, draws, side="right")
    return np.minimum(idx, state.dim - 1)


def measure_sample(state: QuantumState, shots: int, seed: int) -> OutcomeHistogram:
    """Draw `shots` computational-basis outcomes, deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    idx = _sample_indices(state, shots, seed)
    values, counts = np.unique(idx, return_counts=True)
    return OutcomeHistogram(
        counts={int(v): int(c) for v, c in zip(values, counts)},
        total_shots=shots,
    )


def expectation(state: QuantumState, observable: ArrayLike) -> float:
    """Exact mean of a diagonal observable: sum_i |amp_i|^2 * observable[i]."""
    obs = np.asarray(observable, dtype=np.float64).reshape(-1)
    if obs.size != state.dim:
        raise DimensionMismatchError(
            f"observable has {obs.size} entries, state needs {state.dim}"
        )
    return float(np.dot(state.probabilities(), obs))


def estimate_expectation(
    source: ArrayLike,
    observable: ArrayLike,
    shots: int,
    seed: int,
) -> EstimateResult:
    """Sampled mean of a diagonal observable over encode-then-measure rounds.

    Every shot stands for one independent round in which the source vector
    is re-encoded and the fresh state measured once; nothing is reused
    between rounds. Encoding is deterministic, so the rounds share one
    state value and the draws reduce to `shots` seeded i.i.d. samples.
    qubits_sent counts the transfer cost of those rounds:
    shots * ceil(log2(len(source))).

    The observable may be given at the source length (it is zero-padded
    alongside the data) or at the padded power-of-two length.
    """
    if shots < 2:
        raise ShotsTooFewError("need at least 2 shots for a spread estimate")
    vec = _as_real_vector(source)
    state = amplitude_encode(vec)
    obs = np.asarray(observable, dtype=np.float64).reshape(-1)
    if obs.size == vec.size and obs.size != state.dim:
        obs = np.concatenate([obs, np.zeros(state.dim - obs.size)])
    if obs.size != state.dim:
        raise DimensionMismatchError(
            f"observable has {obs.size} entries, want {vec.size} or {state.dim}"
        )
    idx = _sample_indices(state, shots, seed)
    samples = obs[idx]
    estimate = float(np.mean(samples))
    std_error = float(np.std(samples, ddof=1) / math.sqrt(shots))
    return EstimateResult(estimate, std_error, shots * state.num_qubits)


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    """Hermitian inner product <a|b>; magnitude is at most 1 for unit states."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError(
            f"states have {a.num_qubits} and {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
