"""
Reference arithmetic the benchmark checks qcplane against.

Nothing here imports qcplane: every figure is derived again from the model
the README and the docstrings state, so a check that compares the program's
output with these functions is not a copy of the program.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


def ceil_log2(n: int) -> int:
    """Smallest m with 2**m >= n; 0 for n == 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 0
    while (1 << m) < n:
        m += 1
    return m


class Loads(NamedTuple):
    leaf_link_load: int
    controller_ingest: int
    mid_link_load: int
    hypervisor_ingest: int
    hypervisor_state_size: int
    unit: str


def classical_loads(n: int, k: int, p: int, b: int) -> Loads:
    """Raw streaming: every switch sends P*b bits, ingest is N*K*P*b."""
    leaf = p * b
    return Loads(leaf, k * leaf, k * leaf, n * k * leaf, 0, "bits")


def quantum_loads(n: int, k: int, p: int, r: int) -> Loads:
    """Joined encodings: ceil(log2 P) qubits per switch, + ceil(log2 K) per
    controller, + ceil(log2 N) at the hypervisor; R multiplies transfers."""
    m, a_k, a_n = ceil_log2(p), ceil_log2(k), ceil_log2(n)
    return Loads(m * r, k * m * r, (m + a_k) * r, n * (m + a_k) * r, m + a_k + a_n, "qubits")


def topology_loads(topology: dict, mode: str) -> Loads:
    n = topology["num_controllers"]
    k = topology["switches_per_controller"]
    p = topology["params_per_switch"]
    if mode == "classical":
        return classical_loads(n, k, p, topology.get("bits_per_param", 1))
    return quantum_loads(n, k, p, topology.get("shots", 1))


def link_demand(topology: dict) -> dict[str, tuple[int, int]]:
    """(cbits, qubits) one round puts on each ledgered link."""
    c = topology_loads(topology, "classical")
    q = topology_loads(topology, "quantum")
    return {"leaf": (c.leaf_link_load, q.leaf_link_load), "mid": (c.mid_link_load, q.mid_link_load)}


class PlanResult(NamedTuple):
    """One conversion plan: x qubits teleported or y bit pairs dense-coded."""

    x: int
    y: int
    cbits_after: int
    qubits_after: int
    utilization: tuple[Fraction, Fraction]
    feasible: bool

    @property
    def ebits(self) -> int:
        return self.x + self.y


def _make_plan(c, q, cap_c, cap_q, x, y) -> PlanResult:
    cb, qb = c + 2 * x - 2 * y, q - x + y
    util = (Fraction(cb, cap_c), Fraction(qb, cap_q))
    return PlanResult(x, y, cb, qb, util, not (cb > cap_c and qb > cap_q))


def _score(c, q, cap_c, cap_q, x, y) -> Fraction:
    return max(Fraction(c + 2 * x - 2 * y, cap_c), Fraction(q - x + y, cap_q))


def _around(crossing: Fraction, lo: int, hi: int) -> set[int]:
    fl = math.floor(crossing)
    return {min(max(v, lo), hi) for v in (fl, fl + 1)}


def balance_oracle(c: int, q: int, ebits: int, cap_c: int, cap_q: int) -> PlanResult:
    """Min-max-utilization plan, found at the crossing of the two linear terms.

    Teleporting x maps the load to (c + 2x, q - x): the classical term rises
    and the quantum term falls, so their maximum is least at an integer next
    to x* = (q*C - c*Q) / (2Q + C), clamped to [0, min(q, ebits)]. Dense
    coding y pairs is the mirror image, y* = (c*Q - q*C) / (2Q + C) on
    [1, min(c // 2, ebits)]. Tie order: lower score, then fewer ebits, then
    teleportation, then the smaller count. Exact rationals throughout.
    """
    x_max, y_max = min(q, ebits), min(c // 2, ebits)
    cross_x = Fraction(q * cap_c - c * cap_q, 2 * cap_q + cap_c)
    x = min(_around(cross_x, 0, x_max), key=lambda v: (_score(c, q, cap_c, cap_q, v, 0), v))
    best = (_score(c, q, cap_c, cap_q, x, 0), x, 0)
    if y_max >= 1:
        y = min(_around(-cross_x, 1, y_max), key=lambda v: (_score(c, q, cap_c, cap_q, 0, v), v))
        score_y = _score(c, q, cap_c, cap_q, 0, y)
        if (score_y, y) < (best[0], x):
            best = (score_y, 0, y)
    return _make_plan(c, q, cap_c, cap_q, best[1], best[2])


def balance_scan(c: int, q: int, ebits: int, cap_c: int, cap_q: int) -> PlanResult:
    """Brute force over every feasible conversion count (small stocks only)."""
    options = [(_score(c, q, cap_c, cap_q, x, 0), x, 0) for x in range(min(q, ebits) + 1)]
    options += [(_score(c, q, cap_c, cap_q, 0, y), y, 1) for y in range(1, min(c // 2, ebits) + 1)]
    _, count, direction = min(options)
    x, y = (count, 0) if direction == 0 else (0, count)
    return _make_plan(c, q, cap_c, cap_q, x, y)


def selftest_figures() -> dict[str, int]:
    """The headline numbers of the reference round N = K = 1024, P = 2000."""
    m, a = ceil_log2(2000), ceil_log2(1024)
    return {
        "width": m,
        "state": m + a + a,
        "controller_qubits": 1024 * m,
        "hypervisor_qubits": 1024 * (m + a),
        "mid_bits": 2000 * 1024,
        "hypervisor_bits": 2000 * 1024 * 1024,
        "break_even": 2000 // m,
    }
