"""
Exact pure-state simulation for telemetry packed into probability amplitudes.

A vector of n real telemetry values is zero-padded to the next power of two,
divided by its Euclidean norm, and stored as the amplitudes of a
ceil(log2 n)-qubit state. Measuring in the computational basis returns index
i with probability amplitude[i]**2, so a single readout yields only
ceil(log2 n) bits: repeated estimation needs a fresh encoding per shot
(an unknown state cannot be copied), which `estimate_expectation` charges
for in its qubits_sent figure.

Sampling is inverse-CDF over the cumulative probability vector, driven by
numpy's PCG64 generator (`numpy.random.default_rng`) seeded explicitly, so
a (state, shots, seed) triple always reproduces the same histogram. One
path samples for both the histogram and the estimate: the draws are sorted
and then searched, so the search walks the CDF once instead of missing the
cache on nearly every draw of a large state. Each draw still gets the index
of its own value, so the histogram is what a search in draw order gives,
and the estimate sums its samples in increasing outcome order. A histogram
holds two arrays, the observed outcomes in increasing order and their shot
counts, behind a read-only mapping; no Python object is built per outcome.

Signed telemetry is allowed; the sign survives in the amplitudes but is
invisible to sampling and to diagonal observables, which only see squared
magnitudes.
"""
from __future__ import annotations

import math
import operator
import sys
from collections.abc import ItemsView, Mapping, ValuesView
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
    """Immutable real unit vector over the 2**num_qubits computational basis."""

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes: ArrayLike):
        amps = np.asarray(amplitudes).reshape(-1)
        if np.iscomplexobj(amps):
            bad = np.flatnonzero(amps.imag)
            if bad.size:
                raise ValueError(f"amplitudes must be real; entry {bad[0]} is {amps[bad[0]]}")
            amps = amps.real
        self._own(np.array(amps, dtype=np.float64))

    @classmethod
    def _adopt(cls, amps: np.ndarray) -> QuantumState:
        """Wrap a fresh 1-D float64 array without copying it.

        The caller gives the array up: it is checked like any other
        amplitudes and then made read-only.
        """
        state = cls.__new__(cls)
        state._own(amps)
        return state

    def _own(self, amps: np.ndarray) -> None:
        if amps.size == 0:
            raise EmptyVectorError("state needs at least one amplitude")
        m = int(amps.size - 1).bit_length()
        if amps.size != 1 << m:
            raise ValueError(
                f"amplitude count {amps.size} is not a power of two"
            )
        sq = float(np.vdot(amps, amps))
        if not abs(sq - 1.0) <= NORM_ATOL:  # a NaN sum fails too
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
        return np.square(self.amplitudes)

    def __repr__(self) -> str:
        return f"QuantumState(num_qubits={self.num_qubits})"


class SparseCounts(Mapping):
    """Read-only mapping from outcome to shot count, held as two arrays.

    `outcomes` increases strictly and `shots[i]` is the count of
    `outcomes[i]`; both are int64 and read-only. The arrays are taken
    without a copy. Iteration runs in increasing outcome order, and keys
    and values come out as Python ints.
    """

    __slots__ = ("outcomes", "shots")

    def __init__(self, outcomes: ArrayLike, shots: ArrayLike):
        outcomes = np.asarray(outcomes, dtype=np.int64)
        shots = np.asarray(shots, dtype=np.int64)
        if outcomes.ndim != 1 or shots.shape != outcomes.shape:
            raise ValueError("outcomes and shots must be 1-D arrays of one length")
        if np.any(outcomes[1:] <= outcomes[:-1]):
            raise ValueError("outcomes must increase strictly")
        outcomes.setflags(write=False)
        shots.setflags(write=False)
        self.outcomes, self.shots = outcomes, shots

    def _position(self, outcome) -> int:
        """Index of `outcome` in `outcomes`, or -1 when it was not observed."""
        try:
            key = operator.index(outcome)
        except TypeError:
            return -1
        if not self.outcomes.size or not self.outcomes[0] <= key <= self.outcomes[-1]:
            return -1
        i = int(np.searchsorted(self.outcomes, key))
        return i if self.outcomes[i] == key else -1

    def __getitem__(self, outcome) -> int:
        i = self._position(outcome)
        if i < 0:
            raise KeyError(outcome)
        return int(self.shots[i])

    def __len__(self) -> int:
        return self.outcomes.size

    def __iter__(self):
        return _python_ints(self.outcomes)

    def values(self) -> ValuesView:
        return _ShotsView(self)

    def items(self) -> ItemsView:
        return _ItemsView(self)

    def __eq__(self, other):
        if isinstance(other, SparseCounts):
            return bool(
                np.array_equal(self.outcomes, other.outcomes)
                and np.array_equal(self.shots, other.shots)
            )
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"SparseCounts(outcomes={self.outcomes!r}, shots={self.shots!r})"


def _python_ints(array: np.ndarray):
    """The entries of an int64 array as Python ints, converted a block at a
    time so that a large histogram never exists as one list of ints."""
    for start in range(0, array.size, 4096):
        yield from array[start : start + 4096].tolist()


class _ShotsView(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return _python_ints(self._mapping.shots)


class _ItemsView(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(_python_ints(self._mapping.outcomes), _python_ints(self._mapping.shots))


@dataclass(frozen=True)
class OutcomeHistogram:
    """Shot counts per observed basis index.

    Any mapping given as `counts` is stored as a `SparseCounts`.
    """

    counts: SparseCounts
    total_shots: int

    def __post_init__(self):
        if self.total_shots < 1:
            raise ValueError(f"total_shots must be positive, got {self.total_shots}")
        if not isinstance(self.counts, SparseCounts):
            outcomes = sorted(self.counts)
            sparse = SparseCounts(outcomes, [operator.index(self.counts[o]) for o in outcomes])
            object.__setattr__(self, "counts", sparse)
        shots = self.counts.shots
        if shots.size and shots.min() < 0:
            raise ValueError(f"negative shot count {int(shots.min())}")
        if int(shots.sum()) != self.total_shots:
            raise ValueError(f"counts add up to {int(shots.sum())}, not {self.total_shots}")


class EstimateResult(NamedTuple):
    estimate: float
    std_error: float
    qubits_sent: int


def _real_vector(values: ArrayLike) -> tuple[np.ndarray, float, float]:
    """(vec, scale, norm): values as a checked 1-D float64 array, and its
    Euclidean norm as scale * norm.

    The scale is 1 unless the plain sum of squares overflows or underflows
    (it is infinite, zero or subnormal for a nonzero vector); then it is
    max |x|, and norm is the norm of vec / scale. A sum of squares that is
    finite and normal also shows every entry to be finite.
    """
    vec = np.asarray(values, dtype=np.float64).reshape(-1)
    if vec.size == 0:
        raise EmptyVectorError("cannot encode an empty vector")
    with np.errstate(over="ignore", invalid="ignore"):
        squares = float(vec.dot(vec))
    if sys.float_info.min <= squares < math.inf:
        return vec, 1.0, math.sqrt(squares)
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise ValueError(f"vector entries must be finite; entry {bad[0]} is {vec[bad[0]]}")
    scale = float(np.max(np.abs(vec)))
    if scale == 0.0:
        return vec, 1.0, 0.0
    unit = vec / scale
    return vec, scale, math.sqrt(unit.dot(unit))


def _unit(vec: np.ndarray, scale: float, norm: float) -> np.ndarray:
    """vec divided by its norm, scale * norm, and zero-padded to the next
    power of two, as a fresh float64 array."""
    if norm == 0.0:
        raise ZeroVectorError("cannot encode a zero vector")
    unit = np.zeros(1 << qubits_for_parameters(vec.size))
    np.divide(vec if scale == 1.0 else vec / scale, norm, out=unit[: vec.size])
    return unit


def amplitude_encode(values: ArrayLike) -> QuantumState:
    """Encode a real vector as amplitudes of a ceil(log2 n)-qubit state.

    The vector is zero-padded up to the next power of two and divided by
    its Euclidean norm, so padding slots carry exactly zero probability.
    Vectors whose sum of squares leaves the float range, such as
    [1e300, -1e300] or [1e-200, 1e-200], are scaled by their largest
    magnitude first.
    """
    return QuantumState._adopt(_unit(*_real_vector(values)))


def _draw_indices(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The basis index of each draw under the cumulative probabilities `cdf`.

    searchsorted with side="right" skips the flat segments of the CDF, so
    zero-probability outcomes stay unreachable. By rounding, cdf[-1] can
    fall short of 1; a draw at or past it goes to the last slot at which the
    CDF rises, which is the last slot with positive probability unless that
    probability is too small to move the CDF.
    """
    idx = np.searchsorted(cdf, draws, side="right")
    if idx.max() == cdf.size:
        np.minimum(idx, np.searchsorted(cdf, cdf[-1]), out=idx)
    return idx


def _sorted_outcomes(cdf: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The outcomes of `shots` seeded draws under `cdf`, in increasing order.

    Both callers, the histogram and the estimate, use only the multiset of
    outcomes, so the draws are sorted before the search. The draws are freed
    on return; each caller frees its `cdf` before building on the outcomes.
    """
    draws = np.random.default_rng(seed).random(shots)
    draws.sort()
    return _draw_indices(cdf, draws)


def measure_sample(state: QuantumState, shots: int, seed: int) -> OutcomeHistogram:
    """Draw `shots` computational-basis outcomes, deterministic per seed."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = state.probabilities()
    idx = _sorted_outcomes(np.cumsum(cdf, out=cdf), shots, seed)
    del cdf
    run_ends = np.empty(shots, dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=run_ends[:-1])
    run_ends[-1] = True
    ends = np.flatnonzero(run_ends)
    counts = np.empty_like(ends)
    counts[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=counts[1:])
    return OutcomeHistogram(SparseCounts(idx[ends], counts), shots)


def expectation(state: QuantumState, observable: ArrayLike) -> float:
    """Exact mean of a diagonal observable: sum_i amp_i**2 * observable[i]."""
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
    state value and the draws reduce to `shots` seeded i.i.d. samples,
    which are summed in increasing outcome order. qubits_sent counts the
    transfer cost of those rounds: shots * ceil(log2(len(source))).

    The observable may be given at the source length (it is zero-padded
    alongside the data) or at the padded power-of-two length.
    """
    if shots < 2:
        raise ShotsTooFewError(f"need at least 2 shots for a spread estimate, got {shots}")
    vec, scale, norm = _real_vector(source)
    # The encoded state's CDF, without building the state.
    cdf = _unit(vec, scale, norm)
    np.cumsum(np.square(cdf, out=cdf), out=cdf)
    dim = cdf.size
    obs = np.asarray(observable, dtype=np.float64).reshape(-1)
    if obs.size == vec.size and obs.size != dim:
        obs = np.concatenate([obs, np.zeros(dim - obs.size)])
    if obs.size != dim:
        raise DimensionMismatchError(
            f"observable has {obs.size} entries, want {vec.size} or {dim}"
        )
    idx = _sorted_outcomes(cdf, shots, seed)
    del cdf
    samples = obs[idx]
    estimate = float(np.mean(samples))
    std_error = float(np.std(samples, ddof=1) / math.sqrt(shots))
    return EstimateResult(estimate, std_error, shots * (dim.bit_length() - 1))

