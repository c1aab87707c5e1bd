import tracemalloc
from dataclasses import fields
from fractions import Fraction

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


def exact_score(load, ledger, x, y):
    """max(classical, quantum) utilization after teleporting x qubits and
    dense-coding 2y cbits, as an exact rational."""
    return max(
        Fraction(load.cbits + 2 * x - 2 * y, ledger.classical_capacity),
        Fraction(load.qubits - x + y, ledger.quantum_capacity),
    )


def exact_scan(load, ledger):
    """Independent scan over every feasible one-direction plan, scored with
    exact rationals; memory and time grow with the stock, so it serves only
    as the oracle.

    Key order mirrors the documented contract: max utilization, then ebits,
    then teleport before dense coding, then the smaller count. Returns the
    winning (x, y) and its score.
    """
    candidates = [
        (exact_score(load, ledger, x, 0), x, 0, x)
        for x in range(min(load.qubits, ledger.ebits) + 1)
    ]
    candidates += [
        (exact_score(load, ledger, 0, y), y, 1, y)
        for y in range(1, min(load.cbits // 2, ledger.ebits) + 1)
    ]
    score, _, direction, count = min(candidates)
    return ((count, 0) if direction == 0 else (0, count)), score


def window_argmin(load, ledger, plan, width=1000):
    """The count with the lowest exact score in a window around the plan's,
    in the plan's direction. Each direction's score is unimodal in the
    count, so a plan that wins its window is the global optimum there."""
    x, y = plan.qubits_teleported, plan.cbits_densecoded // 2
    n = x or y
    window = range(max(n - width, 0), n + width + 1)
    scores = [exact_score(load, ledger, m, 0) if x else exact_score(load, ledger, 0, m) for m in window]
    return window[scores.index(min(scores))]


def plan_or_infeasible(load, ledger):
    try:
        return balance_link(load, ledger), False
    except InfeasibleError as exc:
        return exc.plan, True


def assert_consistent(load, ledger, plan):
    """What every plan holds: one direction, bits dense-coded in pairs, one
    ebit per conversion, and c + 2q conserved (a teleported qubit becomes 2
    cbits, 2 dense-coded cbits become 1 qubit)."""
    x, y = plan.qubits_teleported, plan.cbits_densecoded // 2
    assert plan.cbits_densecoded % 2 == 0
    assert x * y == 0
    assert plan.ebits_consumed == x + y <= ledger.ebits
    after = plan.resulting_load
    assert after == LinkLoad(load.cbits + 2 * x - 2 * y, load.qubits - x + y)
    assert after.cbits + 2 * after.qubits == load.cbits + 2 * load.qubits


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
        (want_x, want_y), want_score = exact_scan(load, ledger)
        try:
            plan = balance_link(load, ledger)
        except InfeasibleError as exc:
            plan = exc.plan
            assert plan.resulting_load.cbits > cc and plan.resulting_load.qubits > qc
        assert_consistent(load, ledger, plan)
        assert plan.max_utilization == float(want_score)
        assert (plan.qubits_teleported, plan.cbits_densecoded // 2) == (want_x, want_y)

    @given(
        cbits=st.one_of(st.integers(0, 3000), st.integers(2**53, 2**60)),
        qubits=st.one_of(st.integers(0, 3000), st.integers(2**53, 2**60)),
        ebits=st.integers(0, 3000),
        cc=st.one_of(st.integers(1, 50), st.integers(1, 5000), st.integers(10**15, 10**17)),
        qc=st.one_of(st.integers(1, 50), st.integers(1, 5000), st.integers(10**15, 10**17)),
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_exact_scan(self, cbits, qubits, ebits, cc, qc):
        # Capacities of 1e15 and more, and loads beyond 2**53, make runs of
        # counts share one float utilization; exact scores still tell them apart.
        load, ledger = LinkLoad(cbits, qubits), ResourceLedger(ebits, cc, qc)
        (want_x, want_y), _ = exact_scan(load, ledger)
        plan, infeasible = plan_or_infeasible(load, ledger)
        assert_consistent(load, ledger, plan)
        assert (plan.qubits_teleported, plan.cbits_densecoded // 2) == (want_x, want_y)
        resulting = plan.resulting_load
        assert infeasible == (resulting.cbits > cc and resulting.qubits > qc)

    @pytest.mark.parametrize(
        "load,ledger,want",
        [
            # Balanced, empty-ledger and zero loads keep the zero plan.
            (LinkLoad(6, 3), ResourceLedger(10, 6, 3), (0, 0)),
            (LinkLoad(10, 7), ResourceLedger(0, 3, 3), (0, 0)),
            (LinkLoad(0, 0), ResourceLedger(5, 3, 3), (0, 0)),
            # In float, dense coding any of the 6 pairs scores the same as
            # converting nothing; exactly, each pair lowers the classical load.
            (LinkLoad(66739242869932083, 20), ResourceLedger(6, 85372399156233187, 243812408540535001),
             (0, 6)),
            # The falling term has float plateaus (from 134 and from 2430 on),
            # but the exact optimum is at the crossing (140 and 2434).
            (LinkLoad(691, 39317925257050906), ResourceLedger(1122, 1157, 46785720308160343),
             (140, 0)),
            (LinkLoad(45895844938485520, 675), ResourceLedger(2434, 4006, 50016796649472460),
             (0, 2434)),
            # Capacities of 1e16 and more, loads beyond 2**53.
            (LinkLoad(0, 2000), ResourceLedger(1000, 10**16, 10**17), (95, 0)),
            (LinkLoad(3000, 0), ResourceLedger(3000, 10**17, 10**16), (0, 250)),
            # Infeasible either way, but teleporting 2 lowers the exact
            # maximum from 2**55 + 7 to 2**55 + 5 cbits-equivalents.
            (LinkLoad(2**55, 2**55 + 7), ResourceLedger(2000, 2**54, 2**54), (2, 0)),
        ],
    )
    def test_edge_cases_match_exact_scan(self, load, ledger, want):
        (want_x, want_y), want_score = exact_scan(load, ledger)
        plan, _ = plan_or_infeasible(load, ledger)
        assert (want_x, want_y) == want
        assert (plan.qubits_teleported, plan.cbits_densecoded // 2) == want
        assert plan.max_utilization == float(want_score)

    def test_exact_plan_past_2_to_the_52(self):
        # In float, teleporting 749042475138357 scores the same as the plan;
        # exactly, the plan at the crossing is lower.
        load = LinkLoad(cbits=793609980027828, qubits=1497220575556488)
        ledger = ResourceLedger(4452153678461977, 4375184993185336, 1428382789477268)
        plan = balance_link(load, ledger)
        assert_consistent(load, ledger, plan)
        assert plan.qubits_teleported == 749042475138358
        assert window_argmin(load, ledger, plan) == 749042475138358
        assert exact_score(load, ledger, 0, 1) > exact_score(load, ledger, plan.qubits_teleported, 0)

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
        y = plan.cbits_densecoded // 2
        assert plan.qubits_teleported == 0
        assert window_argmin(load, ledger, plan) == y
        assert plan.max_utilization == float(exact_score(load, ledger, 0, y)) < load.cbits / 10**13

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
        load, ledger = LinkLoad(37, 12), ResourceLedger(9, 40, 10)
        assert_consistent(load, ledger, balance_link(load, ledger))


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
        assert_consistent(load, ledger, plan)

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
