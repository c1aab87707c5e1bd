"""
Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).
Tolerances are fixed here; nothing is calibrated at runtime.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from qcplane.cli import main as cli_main
from qcplane.exchange import InfeasibleError, LinkLoad, ResourceLedger, balance_link
from qcplane.qram import address_marginal, join_from_raw
from qcplane.runner import selftest_checks, selftest_text
from qcplane.scaling import (
    TopologySpec,
    break_even_shots,
    classical_loads,
    quantum_loads,
    qubits_for_parameters,
    scaling_table,
)
from qcplane.statevector import amplitude_encode, estimate_expectation

REPO = Path(__file__).resolve().parent.parent
PAPER_EXAMPLE = REPO / "scenarios" / "paper_example.json"

REFERENCE = TopologySpec(
    num_controllers=1024, switches_per_controller=1024, params_per_switch=2000
)


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def random_join_instances(seed: int, count: int):
    """K <= 16 sources, <= 6 data qubits, <= 10 joined qubits."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 17))
        address_qubits = int(k - 1).bit_length()
        m = int(rng.integers(0, min(6, 10 - address_qubits) + 1))
        length = int(rng.integers(max(1, (1 << m) // 2 + 1), (1 << m) + 1))
        yield [rng.standard_normal(length) + 0.1 for _ in range(k)]


def concat_reference(vectors):
    padded = []
    for v in vectors:
        v = np.asarray(v, dtype=float)
        width = 1 << int(v.size - 1).bit_length()
        padded.append(np.concatenate([v, np.zeros(width - v.size)]))
    return amplitude_encode(np.concatenate(padded))


def test_01_encoding_width():
    verdict(1, "2000 parameters encode into 11 qubits", qubits_for_parameters(2000) == 11)


def test_02_hypervisor_state_width():
    loads = quantum_loads(REFERENCE)
    verdict(2, "hypervisor state occupies 31 qubits", loads.hypervisor_state_size == 31)


def test_03_round_transfer_totals():
    q = quantum_loads(REFERENCE)
    c = classical_loads(REFERENCE)
    ok = (
        q.controller_ingest == 11 * 1024
        and q.hypervisor_ingest == 21 * 1024
        and c.mid_link_load == 2_048_000
        and c.hypervisor_ingest == 2_097_152_000
    )
    verdict(3, "11264/21504 qubit vs 2048000/2097152000 bit totals", ok)


def test_04_repetition_scaling():
    base = quantum_loads(REFERENCE)
    hundred = quantum_loads(replace(REFERENCE, shots=100))
    ok = (
        hundred.leaf_link_load == 100 * base.leaf_link_load
        and hundred.controller_ingest == 100 * base.controller_ingest
        and hundred.mid_link_load == 100 * base.mid_link_load
        and hundred.hypervisor_ingest == 100 * base.hypervisor_ingest
        and hundred.hypervisor_state_size == base.hypervisor_state_size
    )
    verdict(4, "100 repetitions multiply loads by 100 and keep 31 qubits", ok)


def test_05_break_even_with_scan_and_rounded_figure():
    got = break_even_shots(REFERENCE)
    width = qubits_for_parameters(REFERENCE.params_per_switch)
    leaf_bits = REFERENCE.params_per_switch * REFERENCE.bits_per_param
    maximal = max(r for r in range(1, leaf_bits + 1) if width * r <= leaf_bits)
    row = selftest_checks()[-1]
    report = selftest_text([row])
    ok = got == 181 and maximal == 181 and row["check"] == "leaf_break_even" and row["status"] == "PASS"
    ok = ok and "181" in report and "200" in report
    verdict(5, "leaf break-even is 181 shots (headline figure 200)", ok)


def test_06_hypervisor_scaling_shapes():
    # Exact formula comparison at every sweep point; classical ingest is
    # linear in the swept variable, while the quantum-side quantity that
    # shrinks the picture is logarithmic: ingest for a K sweep, final state
    # width for an N sweep (quantum ingest itself is linear in N).
    powers = [2**j for j in range(1, 11)]
    ok = True

    m = qubits_for_parameters(REFERENCE.params_per_switch)
    n, p, b, r = (
        REFERENCE.num_controllers,
        REFERENCE.params_per_switch,
        REFERENCE.bits_per_param,
        REFERENCE.shots,
    )
    for row, k in zip(scaling_table(REFERENCE, "K", powers), powers):
        log_k = int(np.log2(k))
        ok = ok and row.classical_bits == n * k * p * b
        ok = ok and row.quantum_qubits == n * (m + log_k) * r

    k = REFERENCE.switches_per_controller
    log_k = 10
    for row, n_swept in zip(scaling_table(REFERENCE, "N", powers), powers):
        ok = ok and row.classical_bits == n_swept * k * p * b
        ok = ok and row.quantum_qubits == n_swept * (m + log_k) * r
        state = quantum_loads(replace(REFERENCE, num_controllers=n_swept)).hypervisor_state_size
        ok = ok and state == m + log_k + int(np.log2(n_swept))
        ok = ok and row.classical_bits > row.quantum_qubits

    verdict(6, "linear bit vs logarithmic qubit growth across K and N sweeps", ok)


def test_07_join_equals_concatenation_encoding():
    ok = True
    for vectors in random_join_instances(seed=2024, count=100):
        joined = join_from_raw(vectors)
        want = concat_reference(vectors)
        ok = ok and joined.state.num_qubits == want.num_qubits
        ok = ok and bool(
            np.all(np.abs(joined.state.amplitudes - want.amplitudes) <= 1e-10)
        )
    verdict(7, "join matches concatenation encoding on 100 random instances", ok)


def test_08_round_trip_fidelity():
    ok = True
    for vectors in random_join_instances(seed=2024, count=100):
        joined = join_from_raw(vectors)
        for k, v in enumerate(vectors):
            branch = address_marginal(joined, k)
            fidelity = abs(np.vdot(branch.conditional.amplitudes, amplitude_encode(v).amplitudes))
            ok = ok and fidelity >= 1 - 1e-10
    verdict(8, "every joined branch recovered with fidelity >= 1-1e-10", ok)


def test_09_sampling_statistics():
    lo = [estimate_expectation([1, 1], [0, 1], 100, seed) for seed in range(50)]
    hi = [estimate_expectation([1, 1], [0, 1], 10_000, seed) for seed in range(50)]
    mean_estimate = float(np.mean([e.estimate for e in hi]))
    ratio = float(np.mean([e.std_error for e in lo]) / np.mean([e.std_error for e in hi]))
    ok = abs(mean_estimate - 0.5) <= 0.015 and 7.0 <= ratio <= 13.0
    verdict(9, f"mean estimate {mean_estimate:.4f} and spread ratio {ratio:.2f}", ok)


def test_10_exchange_ratios_and_balance_optimality():
    def rates_hold(plan, load):
        """1 ebit + 2 cbits per teleported qubit, 1 ebit + 1 qubit per 2
        dense-coded cbits, one direction per plan."""
        x, y = plan.qubits_teleported, plan.cbits_densecoded // 2
        return (
            x * y == 0
            and plan.resulting_load.cbits == load.cbits + 2 * x - 2 * y
            and plan.resulting_load.qubits == load.qubits - x + y
            and plan.ebits_consumed == x + y
        )

    def oracle(load, ledger):
        best = None
        for x in range(0, min(load.qubits, ledger.ebits) + 1):
            u = max(
                (load.cbits + 2 * x) / ledger.classical_capacity,
                (load.qubits - x) / ledger.quantum_capacity,
            )
            best = u if best is None else min(best, u)
        for y in range(1, min(load.cbits // 2, ledger.ebits) + 1):
            u = max(
                (load.cbits - 2 * y) / ledger.classical_capacity,
                (load.qubits + y) / ledger.quantum_capacity,
            )
            best = min(best, u)
        return best

    ok = True
    rng = np.random.default_rng(12345)
    for cbits in range(0, 201):
        for qubits in range(0, 201):
            load = LinkLoad(cbits, qubits)
            ledger = ResourceLedger(
                ebits=int(rng.integers(0, 301)),
                classical_capacity=int(rng.integers(1, 401)),
                quantum_capacity=int(rng.integers(1, 401)),
            )
            try:
                plan = balance_link(load, ledger)
            except InfeasibleError as exc:
                plan = exc.plan
            if not rates_hold(plan, load) or plan.max_utilization != oracle(load, ledger):
                ok = False
                break
        if not ok:
            break
    verdict(10, "conversion ratios exact and balancing matches brute force", ok)


def test_11_determinism(tmp_path, capsys):
    code_a = cli_main(["run", str(PAPER_EXAMPLE), "--output", str(tmp_path / "a")])
    code_b = cli_main(["run", str(PAPER_EXAMPLE), "--output", str(tmp_path / "b")])
    ok = code_a == 0 and code_b == 0

    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    ok = ok and names_a == names_b
    for name in names_a:
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    cli_main(["selftest", "--output", str(tmp_path / "self_a.txt")])
    cli_main(["selftest", "--output", str(tmp_path / "self_b.txt")])
    capsys.readouterr()  # drop the run subcommand's path listing
    ok = ok and (tmp_path / "self_a.txt").read_bytes() == (tmp_path / "self_b.txt").read_bytes()

    report = json.loads((tmp_path / "a" / "report.json").read_text())
    ok = ok and report["results"]["quantum"]["loads"]["hypervisor_state_size"] == 31
    verdict(11, "selftest and scenario reports byte-identical across runs", ok)
