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
from .statevector import ArrayLike, QuantumState, amplitude_encode

BRANCH_PROB_FLOOR = 1e-12


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
            raise ValueError(f"joined state has {self.state.num_qubits} qubits, expected {expected}")

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

    Branch amplitudes are w_k/||w||, the weights normalised as
    `amplitude_encode` normalises a vector. UNIFORM mode, like omitted
    weights, gives every branch weight 1 and so amplitude 1/sqrt(K).
    """
    if len(states) == 0:
        raise ValueError("need at least one state to join")
    k = len(states)
    m = states[0].num_qubits
    for i, s in enumerate(states):
        if s.num_qubits != m:
            raise ValueError(f"all joined states must have equal qubit count; "
                             f"state {i} has {s.num_qubits}, state 0 has {m}")

    if mode is WeightMode.UNIFORM or weights is None:
        w = np.ones(k)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (k,):
            raise ValueError(f"got {w.size} weights for {k} states")
        bad = np.flatnonzero(~((w > 0.0) & (w < np.inf)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"weights must be positive and finite; weight {i} is {w[i]}")
    betas = amplitude_encode(w).amplitudes[:k]

    address_qubits = qubits_for_parameters(k)
    block = 1 << m
    joined = np.zeros((1 << address_qubits) * block)
    for i, (beta, s) in enumerate(zip(betas, states)):
        np.multiply(beta, s.amplitudes, out=joined[i * block : (i + 1) * block])
    return JoinedState(QuantumState._adopt(joined), k, m, mode)


def join_from_raw(vectors: Sequence[ArrayLike]) -> JoinedState:
    """Join raw vectors weighted by their norms: one amplitude encoding.

    That join is the encoding of the concatenated vectors, each zero-padded
    to the next power of two, so the K padded vectors are written into one
    block and encoded once. A zero vector, or one whose norm is negligible
    beside the others', leaves an empty branch.
    """
    if len(vectors) == 0:
        raise ValueError("need at least one vector to join")
    arrays = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    n = arrays[0].size
    for i, a in enumerate(arrays):
        if a.size != n:
            raise ValueError(f"all joined vectors must have equal length; "
                             f"vector {i} has {a.size}, vector 0 has {n}")
    if n == 0:
        raise ValueError("cannot encode an empty vector")
    k, m = len(arrays), qubits_for_parameters(n)
    block = np.zeros((k, 1 << m))
    block[:, :n] = arrays
    return JoinedState(amplitude_encode(block.reshape(-1)), k, m, WeightMode.NORM_PROPORTIONAL)


def address_marginal(joined: JoinedState, k: int) -> AddressBranch:
    """Probability of address k and the renormalized state on that branch."""
    if not 0 <= k < joined.num_sources:
        raise IndexError(f"address {k} outside [0, {joined.num_sources})")
    block = 1 << joined.data_qubits
    branch = joined.state.amplitudes[k * block : (k + 1) * block]
    probability = float(np.sum(np.square(branch)))
    if probability < BRANCH_PROB_FLOOR:
        raise ValueError(f"address branch {k} has probability {probability}, below {BRANCH_PROB_FLOOR}")
    conditional = QuantumState._adopt(branch / np.sqrt(probability))
    return AddressBranch(probability, conditional)
