"""
Tests of the benchmark's own reference code.

    python3 -m pytest -q bench/test_bench.py

They show that the exact-rational balance oracle agrees with a brute-force
scan, that the input generator builds the ledger classes it promises, and
that every output check passes on qcplane's real output and rejects a
deliberately corrupted copy of it.
"""
import contextlib
import io
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckError  # noqa: E402
from oracle import balance_oracle, balance_scan, link_demand  # noqa: E402


def test_rational_oracle_matches_scan():
    rng = random.Random(2106)
    for _ in range(4000):
        case = (rng.randint(0, 80), rng.randint(0, 40), rng.randint(0, 60),
                rng.randint(1, 60), rng.randint(1, 60))
        assert balance_oracle(*case) == balance_scan(*case), case


def test_oracle_tie_order():
    # c/C = q/Q: no conversion helps, the zero plan wins.
    assert balance_oracle(40, 10, 5, 40, 10).ebits == 0
    # Teleporting 1 and dense-coding 1 pair tie at 1; fewer ebits decides,
    # then teleportation.
    plan = balance_scan(2, 2, 3, 4, 2)
    assert balance_oracle(2, 2, 3, 4, 2) == plan


@pytest.mark.parametrize("seed", range(6))
def test_generated_ledgers_have_their_class(seed):
    rng = random.Random(seed)
    for size in ("desk", "paper"):
        for ledgers, consumes in (("tilt", True), ("level", False)):
            scn = inputs.scenario(rng, size, ledgers, 0)
            assert any(inputs.planned_ebits(scn).values()) == consumes
    scn = inputs.heavy_scenario(rng, 1_000_000)
    c, _ = link_demand(scn["topology"])["mid"]
    assert c >= 2 * 1_000_000 and inputs.planned_ebits(scn)["mid"] > 0


def test_round_makeup_is_seed_independent(tmp_path):
    counts = {sum(op.replay_breaks for op in inputs.report_round(s, tmp_path)) for s in range(5)}
    assert counts == {sum(1 for size, led, *_ in inputs.REPORT_MIX if size == "heavy" or led == "tilt")}


# --- every check passes on real output and rejects a corrupted copy --------


def _cli(argv):
    from qcplane import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _replace_cell(text, column, row, new):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = new(cells[header.index(column)])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def report():
    from qcplane import config, runner

    rng = random.Random(7)
    scn = inputs.scenario(rng, "desk", "tilt", 6)
    scn["ledgers"] = {"leaf": inputs.tilted_ledger(rng, *link_demand(scn["topology"])["leaf"], 50)}
    files = runner.build_report_files(config.scenario_from_dict(json.loads(json.dumps(scn))))
    checks.check_report_files(scn, files)
    return scn, files


@pytest.mark.parametrize("name,column,new", [
    ("loads.csv", "hypervisor_ingest", lambda v: str(int(v) + 1)),
    ("loads.csv", "hypervisor_state_size", lambda v: str(int(v) + 1)),
    ("latency.csv", "total", lambda v: repr(float(v) * 1.001)),
    ("latency.csv", "propagation", lambda v: repr(float(v) * 2)),
    ("balance.csv", "resulting_cbits", lambda v: str(int(v) + 2)),
    ("balance.csv", "ebits_remaining", lambda v: str(int(v) - 1)),
    ("balance.csv", "utilization_quantum", lambda v: repr(float(v) + 1e-3)),
    ("sweep.csv", "classical_bits", lambda v: str(int(v) * 2)),
    ("sweep.csv", "ratio", lambda v: repr(float(v) * 1.01)),
])
def test_report_checks_reject_corruption(report, name, column, new):
    scn, files = report
    bad = dict(files, **{name: _replace_cell(files[name], column, 0, new)})
    with pytest.raises(CheckError):
        checks.check_report_files(scn, bad)


def test_plan_check_rejects_suboptimal_plan(report):
    scn, files = report
    row = checks.csv_records(files["balance.csv"])[0]
    c, q = link_demand(scn["topology"])["leaf"]
    ledger = scn["ledgers"]["leaf"]
    plan = balance_oracle(c, q, ledger["ebits"], ledger["classical_capacity"], ledger["quantum_capacity"])
    worse = dict(row)  # one conversion fewer: conserved, within stock, not optimal
    if plan.x:
        worse.update(qubits_teleported=plan.x - 1, ebits_consumed=plan.ebits - 1,
                     resulting_cbits=plan.cbits_after - 2, resulting_qubits=plan.qubits_after + 1)
    else:
        worse.update(cbits_densecoded=2 * plan.y - 2, ebits_consumed=plan.ebits - 1,
                     resulting_cbits=plan.cbits_after + 2, resulting_qubits=plan.qubits_after - 1)
    with pytest.raises(CheckError):
        checks.check_plan(c, q, ledger, worse)


def test_report_json_rejects_nonstandard_constants(report):
    scn, files = report
    with pytest.raises(CheckError):
        checks.check_report_files(scn, dict(files, **{"report.json": files["report.json"].replace(
            '"seed": ', '"extra": NaN, "seed": ', 1)}))


def test_selftest_check():
    text = _cli(["selftest"])
    checks.check_selftest(text)
    with pytest.raises(CheckError):
        checks.check_selftest(text.replace("181", "180"))
    with pytest.raises(CheckError):
        checks.check_selftest(text.replace("31", "30"))


def test_cli_checks(tmp_path):
    ops = {op.kind: op for op in inputs.cli_round(3, tmp_path)}
    scale = _cli(ops["scale"].argv)
    checks.check_scale(ops["scale"].params, scale)
    with pytest.raises(CheckError):
        checks.check_scale(ops["scale"].params, scale.replace('"quantum_qubits": ', '"quantum_qubits": 1', 1))

    simulate = _cli(ops["simulate"].argv)
    checks.check_simulate(ops["simulate"].scenario, simulate)
    with pytest.raises(CheckError):
        checks.check_simulate(ops["simulate"].scenario,
                              _replace_cell(simulate, "end_to_end", 0, lambda v: repr(float(v) * 1.01)))

    balance = _cli(ops["balance"].argv)
    checks.check_balance_cli(ops["balance"].params, balance)
    bad = json.loads(balance)
    bad["resulting_qubits"] += 1
    with pytest.raises(CheckError):
        checks.check_balance_cli(ops["balance"].params, json.dumps(bad))

    encode = _cli(ops["encode"].argv)
    checks.check_encode(ops["encode"].vectors[0], encode)
    with pytest.raises(CheckError):
        checks.check_encode(ops["encode"].vectors[0],
                            _replace_cell(encode, "amplitude_real", 1, lambda v: repr(float(v) + 1e-9)))

    join = _cli(ops["join"].argv)
    checks.check_join(ops["join"].vectors, join)
    bad = json.loads(join)
    bad["amplitudes"][0][0] += 1e-9
    with pytest.raises(CheckError):
        checks.check_join(ops["join"].vectors, json.dumps(bad))


@pytest.fixture(scope="module")
def statevector_round():
    from qcplane import qram, statevector

    op = inputs.statevector_round(5)[0]
    n, k, _ = op.shape
    # P = 200 of 256 data slots, so the state has padding slots to test.
    telemetry = op.telemetry[:, :, :200]
    source = np.zeros((k, 256))
    source[:, :200] = telemetry[0]
    op = replace(op, telemetry=telemetry, norms=np.linalg.norm(telemetry, axis=2), source=source.ravel())
    joins = [qram.qram_join([statevector.amplitude_encode(op.telemetry[c, s]) for s in range(k)],
                            weights=op.norms[c]) for c in range(n)]
    hypervisor = qram.qram_join([j.state for j in joins], mode=qram.WeightMode.UNIFORM)
    out = {
        "joins": joins,
        "hypervisor": hypervisor,
        "branches": [qram.address_marginal(joins[c], s) for c, s in op.branches],
        "histogram": statevector.measure_sample(hypervisor.state, op.shots, op.sample_seed),
        "estimate": statevector.estimate_expectation(op.source, op.observable, op.shots, op.estimate_seed),
    }
    checks.check_statevector_round(op, out)
    return op, out


def test_statevector_checks_reject_corruption(statevector_round):
    from qcplane.statevector import OutcomeHistogram, QuantumState

    op, out = statevector_round
    amps = out["hypervisor"].state.amplitudes.copy()
    amps[[0, 1]] = amps[[1, 0]]
    swapped = dict(out, hypervisor=type(out["hypervisor"])(QuantumState(amps), *(
        out["hypervisor"].num_sources, out["hypervisor"].data_qubits, out["hypervisor"].weight_mode)))
    with pytest.raises(CheckError):
        checks.check_statevector_round(op, swapped)

    wrong_branch = dict(out, branches=[out["branches"][1], out["branches"][0], *out["branches"][2:]])
    if op.branches[0] != op.branches[1]:
        with pytest.raises(CheckError):
            checks.check_statevector_round(op, wrong_branch)

    counts = dict(out["histogram"].counts)
    first = next(iter(counts))
    counts[first] -= 1
    padding = 200  # data slot 200 of switch 0 carries zero amplitude
    counts[padding] = counts.get(padding, 0) + 1
    with pytest.raises(CheckError):
        checks.check_histogram(OutcomeHistogram(counts, op.shots), abs(amps) ** 2, op.shots)

    every_shot_on_one_outcome = OutcomeHistogram({first: op.shots}, op.shots)
    with pytest.raises(CheckError):
        checks.check_histogram(every_shot_on_one_outcome, abs(out["hypervisor"].state.amplitudes) ** 2,
                               op.shots)

    est = out["estimate"]
    with pytest.raises(CheckError):
        checks.check_estimate(op, est._replace(estimate=est.estimate + 10 * max(est.std_error, 1e-6)))
    with pytest.raises(CheckError):
        checks.check_estimate(op, est._replace(qubits_sent=est.qubits_sent + 1))
