"""
Aggregation of per-node encoded states under a shared address register.

K data states of m qubits each are combined into a single state of
m + ceil(log2 K) qubits: branch k of the address register carries the k-th
input, scaled by a branch weight. The address occupies the high-order qubit
positions, so the joined amplitude vector is literally the weighted
concatenation of the input amplitude vectors (address slots k >= K stay at
zero amplitude when K is not a power of two). The join is computed as
tensor arithmetic on amplitudes; no addressing circuit is modeled.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .scaling import qubits_for_parameters
from .statevector import ArrayLike, QuantumState, _real_vector, _unit

BRANCH_PROB_FLOOR = 1e-12


class MixedDimensionsError(ValueError):
    """Join inputs disagree on their qubit count or vector length."""


class NonPositiveWeightError(ValueError):
    """A branch weight is zero, negative, or not finite."""


class AddressOutOfRangeError(IndexError):
    """Address index outside [0, num_sources)."""


class EmptyBranchError(ValueError):
    """Requested address branch carries (numerically) no probability."""


class WeightMode(Enum):
    UNIFORM = "uniform"
    NORM_PROPORTIONAL = "norm_proportional"


@dataclass(frozen=True)
class JoinedState:
    """A K-way join: data qubits plus a ceil(log2 K)-qubit address."""

    state: QuantumState
    num_sources: int
    data_qubits: int
    weight_mode: WeightMode

    def __post_init__(self):
        expected = self.data_qubits + qubits_for_parameters(self.num_sources)
        if self.state.num_qubits != expected:
            raise MixedDimensionsError(
                f"joined state has {self.state.num_qubits} qubits, expected {expected}"
            )

    @property
    def address_qubits(self) -> int:
        return self.state.num_qubits - self.data_qubits


class AddressBranch(NamedTuple):
    probability: float
    conditional: QuantumState


def qram_join(
    states: Sequence[QuantumState],
    weights: Sequence[float] | None = None,
    mode: WeightMode = WeightMode.NORM_PROPORTIONAL,
) -> JoinedState:
    """Join K equal-width states under a ceil(log2 K)-qubit address.

    Branch amplitudes are 1/sqrt(K) in UNIFORM mode and w_k/||w|| in
    NORM_PROPORTIONAL mode. Omitting weights in proportional mode gives
    every branch weight 1, which coincides with the uniform split.
    """
    if len(states) == 0:
        raise ValueError("need at least one state to join")
    k = len(states)
    m = states[0].num_qubits
    if any(s.num_qubits != m for s in states):
        raise MixedDimensionsError("all joined states must have equal qubit count")

    if mode is WeightMode.UNIFORM:
        betas = np.full(k, 1.0 / np.sqrt(k))
    else:
        w = np.ones(k) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != (k,):
            raise MixedDimensionsError(f"got {w.size} weights for {k} states")
        bad = np.flatnonzero(~((w > 0.0) & (w < np.inf)))
        if bad.size:
            i = bad[0]
            raise NonPositiveWeightError(f"weights must be positive and finite; weight {i} is {w[i]}")
        _, scale, norm = _real_vector(w)
        betas = (w if scale == 1.0 else w / scale) / norm

    address_qubits = qubits_for_parameters(k)
    block = 1 << m
    joined = np.zeros((1 << address_qubits) * block)
    for i, (beta, s) in enumerate(zip(betas, states)):
        np.multiply(beta, s.amplitudes, out=joined[i * block : (i + 1) * block])
    return JoinedState(QuantumState._adopt(joined), k, m, mode)


def join_from_raw(vectors: Sequence[ArrayLike]) -> JoinedState:
    """Encode each raw vector, then join weighted by the vectors' norms.

    Equal-length inputs produce the same amplitudes as encoding the
    concatenation of the padded vectors in one go; the join only adds the
    address bookkeeping.
    """
    if len(vectors) == 0:
        raise ValueError("need at least one vector to join")
    arrays = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    if any(a.size != arrays[0].size for a in arrays):
        raise MixedDimensionsError("all joined vectors must have equal length")
    states, norms = [], []
    for a in arrays:
        vec, scale, norm = _real_vector(a)
        states.append(QuantumState._adopt(_unit(vec, scale, norm)))
        norms.append((scale, norm))
    # Only the weights' ratios matter: one common scale keeps them finite
    # and nonzero where a plain sum of squares would leave the float range.
    top = max(scale for scale, _ in norms)
    weights = [norm * (scale / top) for scale, norm in norms]
    return qram_join(states, weights, WeightMode.NORM_PROPORTIONAL)


def address_marginal(joined: JoinedState, k: int) -> AddressBranch:
    """Probability of address k and the renormalized state on that branch."""
    if not 0 <= k < joined.num_sources:
        raise AddressOutOfRangeError(
            f"address {k} outside [0, {joined.num_sources})"
        )
    block = 1 << joined.data_qubits
    branch = joined.state.amplitudes[k * block : (k + 1) * block]
    probability = float(np.sum(np.square(branch)))
    if probability < BRANCH_PROB_FLOOR:
        raise EmptyBranchError(f"address branch {k} has probability < {BRANCH_PROB_FLOOR}")
    conditional = QuantumState._adopt(branch / np.sqrt(probability))
    return AddressBranch(probability, conditional)
