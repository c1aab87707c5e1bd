"""
Scenario execution and the built-in arithmetic selftest.

run_scenario computes everything first (loads, latency, energy, balancing,
optional sweep) and only then writes report files, each atomically, so an
error of any kind leaves the output directory untouched. Identical
(config, seed) pairs produce byte-identical reports: nothing here reads
clocks, hostnames, or unseeded randomness.

Every report row is built once, as a record (a dict in column order) taken
from the dataclass it reports: a table's CSV header and cells are the
records' keys and values, and report.json holds the same records (the
balance columns grouped as BALANCE_GROUPS lists). The `simulate`,
`balance` and `scale` commands print the same records.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import reporting
from .config import ScenarioConfig, scenario_to_dict
from .exchange import LinkLoad, TransferPlan, balance_link
from .netsim import CollectionResult, simulate_collection
from .scaling import (
    TopologySpec,
    break_even_shots,
    classical_loads,
    quantum_loads,
    qubits_for_parameters,
    scaling_table,
)


def modes_for(mode: str) -> tuple[str, ...]:
    return ("classical", "quantum") if mode == "both" else (mode,)


@dataclass(frozen=True)
class BalanceOutcome:
    link: str
    demand: LinkLoad
    plan: TransferPlan
    ebits_remaining: int


def run_balancing(cfg: ScenarioConfig) -> list[BalanceOutcome]:
    """Balance each configured link against its hybrid round demand.

    Demand per link is the classical bit load and the quantum qubit load
    that one round places on it, independent of the scenario's reporting
    mode (a balanced link carries both planes). The scenario's ledgers are
    left as given; each outcome records the stock its plan leaves.
    """
    classical = classical_loads(cfg.topology)
    quantum = quantum_loads(cfg.topology)
    outcomes = []
    for link, demand, ledger in (
        ("leaf", LinkLoad(classical.leaf_link_load, quantum.leaf_link_load), cfg.ledgers.leaf),
        ("mid", LinkLoad(classical.mid_link_load, quantum.mid_link_load), cfg.ledgers.mid),
    ):
        if ledger is not None:
            plan = balance_link(demand, ledger)
            outcomes.append(BalanceOutcome(link, demand, plan, ledger.ebits - plan.ebits_consumed))
    return outcomes


def result_record(result: CollectionResult) -> dict:
    """One mode's round as report.json nests it; the tables take their rows
    from its groups."""
    return {
        "latency": {tier: vars(b) for tier, b in result.tier_latency.items()},
        "end_to_end": result.end_to_end,
        "energy_joules": result.energy,
        "loads": {**vars(result.loads), "unit": result.loads.unit.value},
    }


def energy_record(result: CollectionResult) -> dict:
    return {
        "mode": result.mode,
        "symbols_to_hypervisor": result.loads.hypervisor_ingest,
        "instructions": result.instructions,
        "available_bandwidth": result.available_bandwidth,
        "energy_joules": result.energy,
    }


def plan_record(plan: TransferPlan, ebits_remaining: int | None = None) -> dict:
    """A plan's columns of a balance row; without a stock (the `balance`
    command prints the plan alone) the ebits_remaining column is left out."""
    record = {
        "qubits_teleported": plan.qubits_teleported,
        "cbits_densecoded": plan.cbits_densecoded,
        "ebits_consumed": plan.ebits_consumed,
        "ebits_remaining": ebits_remaining,
        "resulting_cbits": plan.resulting_load.cbits,
        "resulting_qubits": plan.resulting_load.qubits,
        "utilization_classical": plan.utilization[0],
        "utilization_quantum": plan.utilization[1],
    }
    if ebits_remaining is None:
        del record["ebits_remaining"]
    return record


def balance_record(outcome: BalanceOutcome) -> dict:
    return {
        "link": outcome.link,
        "cbits_demand": outcome.demand.cbits,
        "qubits_demand": outcome.demand.qubits,
        **plan_record(outcome.plan, outcome.ebits_remaining),
    }


# report.json nests these balance.csv columns: group -> {key: column}.
BALANCE_GROUPS = {
    "demand": {"cbits": "cbits_demand", "qubits": "qubits_demand"},
    "resulting_load": {"cbits": "resulting_cbits", "qubits": "resulting_qubits"},
    "utilization": {"classical": "utilization_classical", "quantum": "utilization_quantum"},
}


def balance_json(record: dict) -> dict:
    entry = {key: value for key, value in record.items() if key != "link"}
    for group, columns in BALANCE_GROUPS.items():
        entry[group] = {key: entry.pop(column) for key, column in columns.items()}
    return entry


def build_report_files(cfg: ScenarioConfig) -> dict[str, str]:
    """All report payloads for a validated scenario, keyed by file name."""
    results = [
        simulate_collection(cfg.topology, cfg.links, cfg.energy, mode)
        for mode in modes_for(cfg.mode)
    ]
    records = {r.mode: result_record(r) for r in results}
    balance = [balance_record(o) for o in run_balancing(cfg)]
    sweep = (
        [vars(row) for row in scaling_table(cfg.topology, cfg.sweep.parameter, cfg.sweep.values)]
        if cfg.sweep is not None
        else None
    )

    files: dict[str, str] = {}
    files["loads.csv"] = reporting.table_csv(
        [{"mode": mode, **record["loads"]} for mode, record in records.items()]
    )
    files["latency.csv"] = reporting.table_csv(
        [
            {"mode": mode, "tier": tier, **breakdown}
            for mode, record in records.items()
            for tier, breakdown in record["latency"].items()
        ]
    )
    files["energy.csv"] = reporting.table_csv([energy_record(r) for r in results])
    if balance:
        files["balance.csv"] = reporting.table_csv(balance)
    if sweep is not None:
        files["sweep.csv"] = reporting.table_csv(sweep)
    report = {
        "scenario": scenario_to_dict(cfg),
        "seed": cfg.seed,
        "results": records,
        "balance": {record["link"]: balance_json(record) for record in balance},
        "sweep": sweep,
    }
    files["report.json"] = reporting.json_text(report)
    return files


def run_scenario(cfg: ScenarioConfig, outdir: str | Path) -> list[Path]:
    """Execute a scenario and write its report files into `outdir`."""
    files = build_report_files(cfg)
    outdir = Path(outdir)
    written = []
    for name in sorted(files):
        path = outdir / name
        reporting.write_atomic(path, files[name])
        written.append(path)
    return written


@dataclass(frozen=True)
class SelftestCheck:
    name: str
    passed: bool
    detail: str


def _reference_topology(shots: int = 1) -> TopologySpec:
    return TopologySpec(
        num_controllers=1024,
        switches_per_controller=1024,
        params_per_switch=2000,
        bits_per_param=1,
        shots=shots,
    )


def selftest_checks() -> list[SelftestCheck]:
    """The headline collection-round arithmetic; all checks are exact."""
    checks = []

    width = qubits_for_parameters(2000)
    checks.append(
        SelftestCheck(
            "parameter_encoding_width",
            width == 11,
            f"2000 parameters encode into {width} qubits (expected 11)",
        )
    )

    q = quantum_loads(_reference_topology())
    checks.append(
        SelftestCheck(
            "hypervisor_state_width",
            q.hypervisor_state_size == 31,
            f"joined state at the hypervisor occupies {q.hypervisor_state_size} qubits (expected 31)",
        )
    )

    c = classical_loads(_reference_topology())
    totals_ok = (
        q.controller_ingest == 11 * 1024
        and q.hypervisor_ingest == 21 * 1024
        and c.mid_link_load == 2000 * 1024
        and c.hypervisor_ingest == 2000 * 1024 * 1024
    )
    checks.append(
        SelftestCheck(
            "round_transfer_totals",
            totals_ok,
            f"quantum {q.controller_ingest}+{q.hypervisor_ingest} qubits (expected 11264+21504); "
            f"classical {c.mid_link_load}+{c.hypervisor_ingest} bits (expected 2048000+2097152000)",
        )
    )

    q100 = quantum_loads(_reference_topology(shots=100))
    repetition_ok = (
        q100.leaf_link_load == 100 * q.leaf_link_load
        and q100.controller_ingest == 100 * q.controller_ingest
        and q100.mid_link_load == 100 * q.mid_link_load
        and q100.hypervisor_ingest == 100 * q.hypervisor_ingest
        and q100.hypervisor_state_size == q.hypervisor_state_size
    )
    checks.append(
        SelftestCheck(
            "repetition_scaling",
            repetition_ok,
            f"100 rounds multiply every transfer count by 100; state stays {q100.hypervisor_state_size} qubits",
        )
    )

    t = _reference_topology()
    be = break_even_shots(t)
    width = qubits_for_parameters(t.params_per_switch)
    leaf_bits = t.params_per_switch * t.bits_per_param
    scan_max = max(r for r in range(1, leaf_bits + 1) if width * r <= leaf_bits)
    checks.append(
        SelftestCheck(
            "leaf_break_even",
            be == 181 and scan_max == be,
            f"largest R with {width}*R <= {leaf_bits} is {be} (expected 181; "
            "approx 200 when rounded to the nearest hundred)",
        )
    )
    return checks


def selftest_text(checks: list[SelftestCheck]) -> str:
    lines = [
        f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in checks
    ]
    verdict = "PASS" if all(c.passed for c in checks) else "FAIL"
    lines.append(f"selftest: {verdict} ({sum(c.passed for c in checks)}/{len(checks)} checks)")
    return "\n".join(lines) + "\n"
