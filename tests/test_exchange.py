import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcplane.exchange import (
    InfeasibleError,
    LinkLoad,
    ResourceLedger,
    balance_link,
)
from qcplane.netsim import EnergyModel, LinkSpec
from qcplane.scaling import FieldError


def brute_force_plan(load, ledger):
    """Independent scan over every feasible one-direction plan.

    Key order mirrors the documented contract: max utilization, then ebits,
    then teleport before dense coding, then the smaller count.
    """
    candidates = []
    for x in range(0, min(load.qubits, ledger.ebits) + 1):
        cbits, qubits = load.cbits + 2 * x, load.qubits - x
        util = max(cbits / ledger.classical_capacity, qubits / ledger.quantum_capacity)
        candidates.append((util, x, 0, x))
    for y in range(1, min(load.cbits // 2, ledger.ebits) + 1):
        cbits, qubits = load.cbits - 2 * y, load.qubits + y
        util = max(cbits / ledger.classical_capacity, qubits / ledger.quantum_capacity)
        candidates.append((util, y, 1, y))
    util, ebits, direction, amount = min(candidates, key=lambda c: (c[0], c[1], c[2], c[3]))
    return util, (amount, 0) if direction == 0 else (0, amount)


def scan_plan(load, ledger):
    """The former balance_link: score every feasible count with numpy.

    Memory and time grow with the ebit stock, so it serves only as the
    oracle. It divides int64 arrays (float64 / float64 per element), which
    is the arithmetic whose float plateaus the bisection must reproduce.
    Returns the winning (x, y) and its score.
    """
    x_max = min(load.qubits, ledger.ebits)
    y_max = min(load.cbits // 2, ledger.ebits)
    xs = np.arange(x_max + 1)
    x_util = np.maximum(
        (load.cbits + 2 * xs) / ledger.classical_capacity,
        (load.qubits - xs) / ledger.quantum_capacity,
    )
    ys = np.arange(1, y_max + 1)
    y_util = np.maximum(
        (load.cbits - 2 * ys) / ledger.classical_capacity,
        (load.qubits + ys) / ledger.quantum_capacity,
    )
    best_x = int(np.argmin(x_util))
    x, y, score = best_x, 0, float(x_util[best_x])
    if ys.size:
        best_y = int(np.argmin(y_util))
        if y_util[best_y] < x_util[best_x] or (
            y_util[best_y] == x_util[best_x] and ys[best_y] < best_x
        ):
            x, y, score = 0, int(ys[best_y]), float(y_util[best_y])
    return (x, y), score


def plan_or_infeasible(load, ledger):
    try:
        return balance_link(load, ledger), False
    except InfeasibleError as exc:
        return exc.plan, True


class TestBalanceLink:
    def test_offloads_quantum_overload_via_teleport(self):
        # Exhaustive-scan oracle: min-max lands at x=9 or x=10 (both 0.2);
        # the ebit tie-break picks 9.
        plan = balance_link(LinkLoad(cbits=0, qubits=10), ResourceLedger(10, 100, 5))
        assert plan.qubits_teleported == 9
        assert plan.cbits_densecoded == 0
        assert plan.resulting_load == LinkLoad(18, 1)
        assert plan.ebits_consumed == 9
        assert plan.max_utilization == pytest.approx(0.2)

    def test_empty_ledger_returns_zero_plan(self):
        plan = balance_link(LinkLoad(10, 0), ResourceLedger(0, 10, 10))
        assert plan.ebits_consumed == 0
        assert plan.resulting_load == LinkLoad(10, 0)
        assert plan.utilization == (1.0, 0.0)

    def test_balanced_load_stays_put(self):
        plan = balance_link(LinkLoad(4, 4), ResourceLedger(100, 8, 8))
        assert plan.ebits_consumed == 0
        assert plan.utilization == (0.5, 0.5)

    def test_dense_codes_classical_overload(self):
        plan = balance_link(LinkLoad(cbits=100, qubits=0), ResourceLedger(100, 10, 100))
        assert plan.qubits_teleported == 0
        assert plan.cbits_densecoded > 0
        assert plan.max_utilization < 100 / 10

    def test_infeasible_when_both_planes_overflow(self):
        with pytest.raises(InfeasibleError) as exc_info:
            balance_link(LinkLoad(cbits=100, qubits=100), ResourceLedger(0, 10, 10))
        assert exc_info.value.plan.ebits_consumed == 0

    def test_single_plane_overflow_is_not_infeasible(self):
        plan = balance_link(LinkLoad(cbits=0, qubits=10), ResourceLedger(0, 100, 5))
        assert plan.utilization == (0.0, 2.0)

    @given(
        st.integers(0, 200),
        st.integers(0, 200),
        st.integers(0, 300),
        st.integers(1, 400),
        st.integers(1, 400),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, cbits, qubits, ebits, cc, qc):
        load = LinkLoad(cbits, qubits)
        ledger = ResourceLedger(ebits, cc, qc)
        want_util, (want_x, want_y) = brute_force_plan(load, ledger)
        try:
            plan = balance_link(load, ledger)
        except InfeasibleError as exc:
            plan = exc.plan
            assert plan.resulting_load.cbits > cc and plan.resulting_load.qubits > qc
        assert plan.max_utilization == want_util
        assert (plan.qubits_teleported, plan.cbits_densecoded // 2) == (want_x, want_y)

    @given(
        cbits=st.one_of(st.integers(0, 3000), st.integers(2**53, 2**60)),
        qubits=st.one_of(st.integers(0, 3000), st.integers(2**53, 2**60)),
        ebits=st.integers(0, 3000),
        cc=st.one_of(st.integers(1, 50), st.integers(1, 5000), st.integers(10**15, 10**17)),
        qc=st.one_of(st.integers(1, 50), st.integers(1, 5000), st.integers(10**15, 10**17)),
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_numpy_scan(self, cbits, qubits, ebits, cc, qc):
        # Capacities of 1e15 and more, and loads beyond 2**53, make runs of
        # counts share one float utilization; the scan takes the first.
        load, ledger = LinkLoad(cbits, qubits), ResourceLedger(ebits, cc, qc)
        (want_x, want_y), _ = scan_plan(load, ledger)
        plan, infeasible = plan_or_infeasible(load, ledger)
        assert (plan.qubits_teleported, plan.cbits_densecoded // 2) == (want_x, want_y)
        resulting = plan.resulting_load
        assert infeasible == (resulting.cbits > cc and resulting.qubits > qc)

    @pytest.mark.parametrize(
        "load,ledger",
        [
            # Balanced, empty-ledger and zero loads keep the zero plan.
            (LinkLoad(6, 3), ResourceLedger(10, 6, 3)),
            (LinkLoad(10, 7), ResourceLedger(0, 3, 3)),
            (LinkLoad(0, 0), ResourceLedger(5, 3, 3)),
            # Dense coding one pair scores the same as converting nothing in
            # float; the zero plan wins on fewer ebits.
            (LinkLoad(66739242869932083, 20), ResourceLedger(6, 85372399156233187, 243812408540535001)),
            # Float plateaus of the falling term: the scan's argmin takes the
            # first count of the run (134 and 2430), several counts before
            # the crossing (140 and 2434).
            (LinkLoad(691, 39317925257050906), ResourceLedger(1122, 1157, 46785720308160343)),
            (LinkLoad(45895844938485520, 675), ResourceLedger(2434, 4006, 50016796649472460)),
            # Capacities of 1e16 and more, loads beyond 2**53.
            (LinkLoad(0, 2000), ResourceLedger(1000, 10**16, 10**17)),
            (LinkLoad(3000, 0), ResourceLedger(3000, 10**17, 10**16)),
            (LinkLoad(2**55, 2**55 + 7), ResourceLedger(2000, 2**54, 2**54)),
        ],
    )
    def test_edge_cases_match_numpy_scan(self, load, ledger):
        (want_x, want_y), want_score = scan_plan(load, ledger)
        plan, _ = plan_or_infeasible(load, ledger)
        assert (plan.qubits_teleported, plan.cbits_densecoded // 2) == (want_x, want_y)
        # Below 2**50 the plan's exact int division equals the scan's float one.
        if max(load.cbits, load.qubits, ledger.classical_capacity, ledger.quantum_capacity) < 2**50:
            assert plan.max_utilization == want_score

    def test_trillion_ebit_stock_in_constant_memory(self):
        load = LinkLoad(cbits=3 * 10**12, qubits=10**6)
        ledger = ResourceLedger(10**12, 10**13, 10**13)
        tracemalloc.start()
        try:
            plan = balance_link(load, ledger)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # Each direction's score is unimodal in the count, so a plan that
        # beats every count in a window around it is the global optimum.
        y = plan.cbits_densecoded // 2
        window = range(y - 1000, y + 1001)
        scores = [max((load.cbits - 2 * n) / 10**13, (load.qubits + n) / 10**13) for n in window]
        assert plan.qubits_teleported == 0
        assert window[scores.index(min(scores))] == y
        assert plan.max_utilization == min(scores) < load.cbits / 10**13

    def test_infeasible_message_carries_the_values(self):
        with pytest.raises(InfeasibleError) as exc_info:
            balance_link(LinkLoad(cbits=100, qubits=60), ResourceLedger(7, 10, 20))
        message = str(exc_info.value)
        plan = exc_info.value.plan
        assert "demand 100 cbits and 60 qubits" in message
        assert "capacities 10 cbits and 20 qubits" in message
        assert "7 ebits in stock" in message
        assert (
            f"leaves {plan.resulting_load.cbits} cbits and {plan.resulting_load.qubits} qubits"
            in message
        )

    def test_plan_is_reachable_and_consistent(self):
        plan = balance_link(LinkLoad(37, 12), ResourceLedger(9, 40, 10))
        x, y = plan.qubits_teleported, plan.cbits_densecoded // 2
        assert x * y == 0
        assert plan.resulting_load.cbits == 37 + 2 * x - 2 * y
        assert plan.resulting_load.qubits == 12 - x + y
        assert plan.ebits_consumed == x + y <= 9


class TestResourceLedger:
    def test_ledger_is_immutable(self):
        ledger = ResourceLedger(10, 100, 5)
        with pytest.raises(AttributeError):
            ledger.ebits = 0

    def test_negative_stock_rejected(self):
        with pytest.raises(ValueError):
            ResourceLedger(-1, 10, 10)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResourceLedger(0, 0, 10)


# Counts of every kind the constructors might be handed: most are integers,
# the rest floats near them, so some ledgers and loads are refused.
COUNTS = st.integers(0, 60) | st.integers(-2, 10**6) | st.floats(-2.0, 1e6)


class TestEbitStock:
    @example(stock=(1.5, 100, 1), demand=(0, 10))
    @given(stock=st.tuples(COUNTS, COUNTS, COUNTS), demand=st.tuples(COUNTS, COUNTS))
    @settings(max_examples=400, deadline=None)
    def test_accepted_inputs_never_overdraw_the_stock(self, stock, demand):
        try:
            ledger, load = ResourceLedger(*stock), LinkLoad(*demand)
        except ValueError:
            return
        plan, _ = plan_or_infeasible(load, ledger)
        counts = (plan.qubits_teleported, plan.cbits_densecoded, plan.ebits_consumed,
                  plan.resulting_load.cbits, plan.resulting_load.qubits)
        assert all(type(n) is int for n in counts)
        assert plan.ebits_consumed <= ledger.ebits

    @pytest.mark.parametrize(
        "cls,valid,bad",
        [(cls, valid, bad) for cls, valid in ((ResourceLedger, (5, 10, 10)), (LinkLoad, (4, 4)))
         for bad in (1.5, True, "3")]
        + [(LinkSpec, (1e6, 1e6, 1e3), True), (EnergyModel, (1e-9, 1e-10, 1.0, 1e7), True)],
        ids=lambda v: getattr(v, "__name__", repr(v)),
    )
    def test_each_field_refuses_a_wrong_kind(self, cls, valid, bad):
        for f in fields(cls):
            kwargs = {g.name: value for g, value in zip(fields(cls), valid)}
            kwargs[f.name] = bad
            with pytest.raises(FieldError) as exc_info:
                cls(**kwargs)
            assert exc_info.value.field == f.name
