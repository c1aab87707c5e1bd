"""
Moving load between the classical and quantum planes of one link.

Two conversions exist, both paid for from a stock of pre-shared entangled
pairs (ebits): teleporting a qubit consumes 1 ebit and adds 2 classical
bits, dense-coding 2 classical bits consumes 1 ebit and adds 1 qubit.
`balance_link` picks the integer conversion count that minimizes the worse
of the two plane utilizations. In each direction that score is the maximum
of one falling and one rising utilization, so the optimum sits where the
two cross; integer bisection finds it in O(log stock) steps, scoring each
count with the same float arithmetic as a brute-force scan over every
feasible count, so such a scan reproduces the plan exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .scaling import check_fields, integer


class InfeasibleError(RuntimeError):
    """Even the best plan overflows both planes; the caller must queue.

    Carries the plan in `.plan` so callers can still inspect it.
    """

    def __init__(self, message: str, plan: "TransferPlan"):
        super().__init__(message)
        self.plan = plan


@dataclass(frozen=True)
class LinkLoad:
    """Outstanding demand on one link, split by plane: integers >= 0."""

    cbits: int
    qubits: int

    def __post_init__(self):
        check_fields(self, lambda name, value: integer(value, 0))


@dataclass(frozen=True)
class ResourceLedger:
    """Per-link ebit stock (an integer >= 0) and per-round plane capacities
    (integers >= 1).

    Immutable: a plan never debits it, so a ledger held in a scenario always
    states the stock as given.
    """

    ebits: int
    classical_capacity: int
    quantum_capacity: int

    def __post_init__(self):
        check_fields(self, lambda name, value: integer(value, 0 if name == "ebits" else 1))


@dataclass(frozen=True)
class TransferPlan:
    qubits_teleported: int
    cbits_densecoded: int
    resulting_load: LinkLoad
    ebits_consumed: int
    utilization: tuple[float, float]

    def __post_init__(self):
        if self.cbits_densecoded % 2:
            raise ValueError("dense coding moves classical bits in pairs")
        if self.ebits_consumed != self.qubits_teleported + self.cbits_densecoded // 2:
            raise ValueError("ebits_consumed does not match the conversion counts")

    @property
    def max_utilization(self) -> float:
        return max(self.utilization)


def _plan(load: LinkLoad, ledger: ResourceLedger, x: int, y: int) -> TransferPlan:
    """The plan that teleports x qubits and dense-codes 2y cbits: the one
    place where the conversion rates are applied."""
    resulting = LinkLoad(load.cbits + 2 * x - 2 * y, load.qubits - x + y)
    utilization = (
        resulting.cbits / ledger.classical_capacity,
        resulting.qubits / ledger.quantum_capacity,
    )
    return TransferPlan(
        qubits_teleported=x,
        cbits_densecoded=2 * y,
        resulting_load=resulting,
        ebits_consumed=x + y,
        utilization=utilization,
    )


def _ratio(numerator: int, denominator: int) -> float:
    """One utilization as a scan over int64 arrays computes it (float64 / float64)."""
    return float(numerator) / float(denominator)


def _first(lo: int, hi: int, holds: Callable[[int], bool]) -> int:
    """Smallest n in [lo, hi) where `holds` turns true, or hi; `holds` is monotone."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _min_max(
    lo: int, hi: int, falling: Callable[[int], float], rising: Callable[[int], float]
) -> tuple[float, int]:
    """(score, first n) minimizing max(falling(n), rising(n)) over [lo, hi].

    Left of the first count n0 where rising catches up, the score is
    falling, least at n0 - 1; from n0 on it is rising, least at n0. Float
    division leaves runs of equal utilization at large values, so the left
    candidate is the first count of the run that falling(n0 - 1) ends, as a
    scan's argmin would pick it.
    """
    n0 = _first(lo, hi + 1, lambda n: rising(n) >= falling(n))
    best = None
    if n0 > lo:
        score = falling(n0 - 1)
        best = (score, _first(lo, n0 - 1, lambda n: falling(n) <= score))
    if n0 <= hi and (best is None or rising(n0) < best[0]):
        best = (rising(n0), n0)
    return best


def balance_link(load: LinkLoad, ledger: ResourceLedger) -> TransferPlan:
    """Min-max-utilization conversion plan for one link.

    Teleporting x qubits maps the load to (cbits + 2x, qubits - x); dense
    coding 2y classical bits maps it to (cbits - 2y, qubits + y). A plan
    converts in one direction only (x*y = 0) and is bounded by the load and
    the ledger's ebits. The lowest max(classical, quantum) utilization wins;
    ties fall to the plan with fewer ebits consumed, then to teleportation,
    then to the smaller count. In each direction the score is one falling
    and one rising utilization, so bisection over the counts finds the
    optimum in O(log ebits) time and constant memory, with the same result
    as scoring every feasible count.

    Raises InfeasibleError when the winning plan still overflows both
    planes at once (conversion cannot help; queuing is the caller's call).
    An empty ledger is not an error: the zero-conversion plan is returned.
    """
    c, q = load.cbits, load.qubits
    cap_c, cap_q = ledger.classical_capacity, ledger.quantum_capacity
    x_max = min(q, ledger.ebits)
    y_max = min(c // 2, ledger.ebits)

    x_score, x = _min_max(
        0, x_max, lambda n: _ratio(q - n, cap_q), lambda n: _ratio(c + 2 * n, cap_c)
    )
    y = 0
    if y_max >= 1:
        y_score, best_y = _min_max(
            1, y_max, lambda n: _ratio(c - 2 * n, cap_c), lambda n: _ratio(q + n, cap_q)
        )
        # Dense coding can only tie when teleporting gains nothing (x = 0:
        # it raises the quantum load a useful teleport would lower), and
        # then the zero plan wins on ebits, so only a strictly lower score
        # switches direction.
        if y_score < x_score:
            x, y = 0, best_y

    plan = _plan(load, ledger, x, y)
    over_classical = plan.resulting_load.cbits > cap_c
    over_quantum = plan.resulting_load.qubits > cap_q
    if over_classical and over_quantum:
        raise InfeasibleError(
            f"load exceeds both plane capacities after balancing: demand {c} cbits "
            f"and {q} qubits, capacities {cap_c} cbits and {cap_q} qubits, "
            f"{ledger.ebits} ebits in stock; the best plan leaves "
            f"{plan.resulting_load.cbits} cbits and {plan.resulting_load.qubits} qubits",
            plan,
        )
    return plan
