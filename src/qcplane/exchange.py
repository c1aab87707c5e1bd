"""
Moving load between the classical and quantum planes of one link.

Two conversions exist, both paid for from a stock of pre-shared entangled
pairs (ebits): teleporting a qubit consumes 1 ebit and adds 2 classical
bits, dense-coding 2 classical bits consumes 1 ebit and adds 1 qubit.
`balance_link` picks the integer conversion count that minimizes the worse
of the two plane utilizations. That score is the maximum of one falling and
one rising utilization, so the optimum is one of the two integers next to
the point where they cross; both are scored exactly, in integers.
"""
from __future__ import annotations

from dataclasses import dataclass

from .scaling import check_fields, integer, quotient


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

    @property
    def max_utilization(self) -> float:
        return max(self.utilization)


def _plan(load: LinkLoad, ledger: ResourceLedger, x: int, y: int) -> TransferPlan:
    """The plan that teleports x qubits and dense-codes 2y cbits: the one
    place where the conversion rates are applied."""
    resulting = LinkLoad(load.cbits + 2 * x - 2 * y, load.qubits - x + y)
    utilization = (
        quotient("utilization_classical", resulting.cbits, ledger.classical_capacity),
        quotient("utilization_quantum", resulting.qubits, ledger.quantum_capacity),
    )
    return TransferPlan(
        qubits_teleported=x,
        cbits_densecoded=2 * y,
        resulting_load=resulting,
        ebits_consumed=x + y,
        utilization=utilization,
    )


def balance_link(load: LinkLoad, ledger: ResourceLedger) -> TransferPlan:
    """Min-max-utilization conversion plan for one link.

    Teleporting x qubits maps the load to (cbits + 2x, qubits - x); dense
    coding 2y classical bits maps it to (cbits - 2y, qubits + y). A plan
    converts in one direction only (x*y = 0) and is bounded by the load and
    the ledger's ebits. The lowest max(classical, quantum) utilization wins;
    ties fall to the plan with fewer ebits consumed, then to teleportation,
    then to the smaller count.

    Both directions are one signed count n (x = n > 0 or y = -n > 0),
    leaving (cbits + 2n, qubits - n). Over the common denominator C*Q of
    the capacities, the score max((cbits + 2n)*Q, (qubits - n)*C) is an
    exact integer that falls strictly up to where the terms cross,
    n* = (qubits*C - cbits*Q) / (2Q + C), and rises after it, so the
    optimum is floor(n*) or floor(n*) + 1, clamped to the feasible counts.
    Of two adjacent counts, the one nearer 0 spends fewer ebits, which
    settles a tie.

    Raises InfeasibleError when the winning plan still overflows both
    planes at once (conversion cannot help; queuing is the caller's call).
    An empty ledger is not an error: the zero-conversion plan is returned.
    """
    c, q = load.cbits, load.qubits
    cap_c, cap_q = ledger.classical_capacity, ledger.quantum_capacity
    lo, hi = -min(c // 2, ledger.ebits), min(q, ledger.ebits)
    crossing = (q * cap_c - c * cap_q) // (2 * cap_q + cap_c)
    n = min(
        (min(max(m, lo), hi) for m in (crossing, crossing + 1)),
        key=lambda m: (max((c + 2 * m) * cap_q, (q - m) * cap_c), abs(m)),
    )
    plan = _plan(load, ledger, max(n, 0), max(-n, 0))
    after = plan.resulting_load
    if after.cbits > cap_c and after.qubits > cap_q:
        raise InfeasibleError(
            f"load exceeds both plane capacities after balancing: demand {c} cbits "
            f"and {q} qubits, capacities {cap_c} cbits and {cap_q} qubits, "
            f"{ledger.ebits} ebits in stock; the best plan leaves "
            f"{after.cbits} cbits and {after.qubits} qubits",
            plan,
        )
    return plan
