"""
Output checks, computed apart from the program.

Each check raises CheckError with the offending value. The reference
figures come from oracle.py (closed forms and an exact-rational balance
oracle) and from this file's own normalisation of the telemetry; none of
them is a stored copy of an earlier output.
"""
from __future__ import annotations

import json
import math
import re

from oracle import (
    balance_oracle,
    balance_scan,
    ceil_log2,
    link_demand,
    selftest_figures,
    topology_loads,
)

SCAN_LIMIT = 5000  # brute-force the balance plan when the scan is this short
CSV_REL = 1e-10  # CSV reals carry 12 significant digits
AMP_ATOL = 1e-12
SIGMAS = 5.0
HISTOGRAM_BINS = 16


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(got: float, want: float, rel: float = CSV_REL) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want), 1e-300)


def _reject_constant(name: str):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def csv_records(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    expect(bool(lines), "empty CSV")
    header = lines[0].split(",")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        expect(len(cells) == len(header), f"CSV row {line!r} does not match header {header}")
        records.append(dict(zip(header, cells)))
    return records


def modes_of(scn: dict) -> tuple[str, ...]:
    return ("classical", "quantum") if scn["mode"] == "both" else (scn["mode"],)


# --- accounting -------------------------------------------------------------


def check_loads(topology: dict, mode: str, got: dict) -> None:
    want = topology_loads(topology, mode)._asdict()
    for name, value in want.items():
        expect(str(got[name]) == str(value), f"{mode} {name}: got {got[name]}, closed form {value}")


def check_latency(scn: dict, mode: str, tier: str, got: dict) -> None:
    """total = sum of components; propagation = length / speed;
    transmission = message / rate; queuing = (fan-in - 1) * message / rate."""
    link = scn["links"][tier]
    topology = scn["topology"]
    loads = topology_loads(topology, mode)
    size = loads.leaf_link_load if tier == "leaf" else loads.mid_link_load
    fan_in = topology["switches_per_controller" if tier == "leaf" else "num_controllers"]
    rate = link["capacity"] if mode == "classical" else link["q_capacity"]
    parts = {key: float(got[key]) for key in ("propagation", "transmission", "queuing", "processing")}
    want = {
        "propagation": link["length"] / link.get("propagation_speed", 2.0e8),
        "transmission": size / rate,
        "queuing": (fan_in - 1) * size / rate,
        "processing": link.get("per_message_processing", 1e-6),
    }
    for key, value in want.items():
        expect(close(parts[key], value), f"{mode} {tier} {key}: got {parts[key]}, want {value}")
    total = float(got["total"])
    expect(close(total, math.fsum(parts.values())), f"{mode} {tier} total {total} != sum {parts}")


def check_plan(c: int, q: int, ledger: dict, got: dict) -> int:
    """Checks one balance plan; returns the ebits it consumed."""
    ebits, cap_c, cap_q = ledger["ebits"], ledger["classical_capacity"], ledger["quantum_capacity"]
    x, d = int(got["qubits_teleported"]), int(got["cbits_densecoded"])
    used = int(got["ebits_consumed"])
    cb, qb = int(got["resulting_cbits"]), int(got["resulting_qubits"])
    expect(cb + 2 * qb == c + 2 * q, f"cbits + 2*qubits not conserved: {cb}+2*{qb} vs {c}+2*{q}")
    expect(0 <= used <= ebits, f"plan uses {used} ebits, stock holds {ebits}")
    expect(d % 2 == 0 and used == x + d // 2, f"ebits {used} do not match x={x}, dense={d}")
    want = balance_oracle(c, q, ebits, cap_c, cap_q)
    if min(q, ebits) + min(c // 2, ebits) <= SCAN_LIMIT:
        scan = balance_scan(c, q, ebits, cap_c, cap_q)
        expect(scan == want, f"rational oracle {want} disagrees with the scan {scan}")
    expect((x, d // 2) == (want.x, want.y), f"plan x={x}, y={d // 2}; optimum x={want.x}, y={want.y}")
    expect((cb, qb) == (want.cbits_after, want.qubits_after), "resulting load differs from the optimum")
    for got_u, want_u in zip((got["utilization_classical"], got["utilization_quantum"]), want.utilization):
        expect(close(float(got_u), float(want_u)), f"utilization {got_u} != {float(want_u)}")
    return used


def check_sweep(topology: dict, parameter: str, values: list[int], rows: list[dict]) -> None:
    field = {"N": "num_controllers", "K": "switches_per_controller", "P": "params_per_switch",
             "R": "shots"}.get(parameter.upper(), parameter.lower())
    expect(len(rows) == len(values), f"{len(rows)} sweep rows for {len(values)} values")
    for value, row in zip(values, rows):
        t = {**topology, field: value}
        bits = topology_loads(t, "classical").hypervisor_ingest
        qubits = topology_loads(t, "quantum").hypervisor_ingest
        expect(int(row["sweep_value"]) == value, f"sweep value {row['sweep_value']} != {value}")
        expect(int(row["classical_bits"]) == bits and int(row["quantum_qubits"]) == qubits,
               f"sweep {parameter}={value}: got {row['classical_bits']}/{row['quantum_qubits']}, "
               f"closed form {bits}/{qubits}")
        expect(close(float(row["ratio"]), bits / qubits), f"ratio {row['ratio']} != {bits / qubits}")


def check_report_files(scn: dict, files: dict[str, str]) -> None:
    """The files of one `run` / build_report_files, against the scenario."""
    modes = modes_of(scn)
    loads = csv_records(files["loads.csv"])
    expect([r["mode"] for r in loads] == list(modes), f"loads.csv modes {loads}")
    for row in loads:
        check_loads(scn["topology"], row["mode"], row)
    latency = csv_records(files["latency.csv"])
    expect([(r["mode"], r["tier"]) for r in latency] == [(m, t) for m in modes for t in ("leaf", "mid")],
           "latency.csv rows")
    for row in latency:
        check_latency(scn, row["mode"], row["tier"], row)
    ledgers = scn.get("ledgers", {})
    expect(("balance.csv" in files) == bool(ledgers), "balance.csv presence")
    if ledgers:
        demand = link_demand(scn["topology"])
        rows = csv_records(files["balance.csv"])
        expect([r["link"] for r in rows] == [k for k in ("leaf", "mid") if k in ledgers], "balance links")
        for row in rows:
            c, q = demand[row["link"]]
            expect((int(row["cbits_demand"]), int(row["qubits_demand"])) == (c, q),
                   f"{row['link']} demand {row['cbits_demand']}/{row['qubits_demand']} != {c}/{q}")
            ledger = ledgers[row["link"]]
            used = check_plan(c, q, ledger, row)
            expect(int(row["ebits_remaining"]) == ledger["ebits"] - used, "ebits_remaining")
    sweep = scn.get("sweep")
    expect(("sweep.csv" in files) == bool(sweep), "sweep.csv presence")
    if sweep:
        check_sweep(scn["topology"], sweep["parameter"], sweep["values"], csv_records(files["sweep.csv"]))
    report = strict_json(files["report.json"])
    expect(sorted(report["results"]) == sorted(modes), "report.json modes")
    for mode in modes:
        check_loads(scn["topology"], mode, report["results"][mode]["loads"])


# --- cold CLI outputs -------------------------------------------------------


def check_selftest(text: str) -> None:
    """Each headline figure must appear as a computed value, not only inside
    the "(expected ...)" note the program prints next to it."""
    computed = re.sub(r"\(expected[^)]*\)", "", text)
    numbers = {int(tok) for tok in re.findall(r"\d+", computed)}
    for name, value in selftest_figures().items():
        expect(value in numbers, f"selftest output lacks {name} = {value}")
    expect("FAIL" not in text and "PASS" in text, "selftest verdict")


def check_scale(params: dict, text: str) -> None:
    topology = {"num_controllers": params["n"], "switches_per_controller": params["k"],
                "params_per_switch": params["p"], "bits_per_param": params["b"], "shots": params["r"]}
    check_sweep(topology, params["parameter"], params["values"], strict_json(text))


def check_simulate(scn: dict, text: str) -> None:
    rows = csv_records(text)
    expect([r["mode"] for r in rows] == list(modes_of(scn)), "simulate modes")
    for row in rows:
        check_loads(scn["topology"], row["mode"], row)
        for tier in ("leaf", "mid"):
            part = {key: row[f"{tier}_{key}"]
                    for key in ("propagation", "transmission", "queuing", "processing", "total")}
            check_latency(scn, row["mode"], tier, part)
        e2e = float(row["leaf_total"]) + float(row["mid_total"])
        expect(close(float(row["end_to_end"]), e2e), f"end_to_end {row['end_to_end']} != {e2e}")


def check_balance_cli(params: dict, text: str) -> None:
    check_plan(params["cbits"], params["qubits"], params, strict_json(text))


def _unit(vec: list[float]) -> list[float]:
    norm = math.sqrt(math.fsum(v * v for v in vec))
    return [v / norm for v in vec]


def _padded(vec: list[float], width: int) -> list[float]:
    return vec + [0.0] * (width - len(vec))


def _close_amplitudes(name: str, got, want) -> None:
    import numpy as np

    got, want = np.asarray(got), np.asarray(want)
    expect(got.shape == want.shape, f"{name}: {got.shape} amplitudes, want {want.shape}")
    worst = float(np.max(np.abs(got - want)))
    expect(worst <= AMP_ATOL, f"{name}: amplitudes off by {worst}")


def check_encode(vec: list[float], text: str) -> None:
    rows = csv_records(text)
    want = _padded(_unit(vec), 1 << ceil_log2(len(vec)))
    _close_amplitudes("encode", [complex(float(r["amplitude_real"]), float(r["amplitude_imag"]))
                                 for r in rows], want)
    for row, amp in zip(rows, want):
        expect(abs(float(row["probability"]) - amp * amp) <= AMP_ATOL, f"probability {row}")


def check_join(vectors: list[list[float]], text: str) -> None:
    """Norm-proportional join = normalised concatenation of padded vectors."""
    got = strict_json(text)
    width = 1 << ceil_log2(len(vectors[0]))
    concat = [v for vec in vectors for v in _padded(vec, width)]
    want = _padded(_unit(concat), width << ceil_log2(len(vectors)))
    expect(got["num_qubits"] == ceil_log2(len(want)) and got["num_sources"] == len(vectors),
           "join widths")
    _close_amplitudes("join", [complex(re, im) for re, im in got["amplitudes"]], want)


# --- statevector rounds -----------------------------------------------------


def reference_join(op):
    """Per-controller states (norm-proportional join of the padded switch
    vectors) and the hypervisor state (uniform join of the controllers)."""
    import numpy as np

    n, k, p = op.telemetry.shape
    block = 1 << ceil_log2(p)
    controllers = []
    for c in range(n):
        amps = np.zeros(block << ceil_log2(k))
        amps.reshape(-1, block)[:k, :p] = op.telemetry[c]
        controllers.append(amps / math.sqrt(math.fsum((op.telemetry[c] ** 2).ravel())))
    width = controllers[0].size
    hypervisor = np.zeros(width << ceil_log2(n))
    for c, amps in enumerate(controllers):
        hypervisor[c * width:(c + 1) * width] = amps / math.sqrt(n)
    return controllers, hypervisor


def check_histogram(hist, probabilities, shots: int) -> None:
    import numpy as np

    expect(hist.total_shots == shots and sum(hist.counts.values()) == shots,
           f"histogram holds {sum(hist.counts.values())} of {shots} shots")
    outcomes = np.fromiter(hist.counts.keys(), dtype=np.int64, count=len(hist.counts))
    counts = np.fromiter(hist.counts.values(), dtype=np.int64, count=len(hist.counts))
    expect(outcomes.min() >= 0 and outcomes.max() < probabilities.size, "outcome out of range")
    padding = outcomes[probabilities[outcomes] == 0.0]
    expect(padding.size == 0, f"padding slots observed: {padding[:5].tolist()}")
    bins = outcomes * HISTOGRAM_BINS // probabilities.size
    observed = np.bincount(bins, weights=counts, minlength=HISTOGRAM_BINS) / shots
    expected = probabilities.reshape(HISTOGRAM_BINS, -1).sum(axis=1)
    sigma = np.sqrt(expected * (1.0 - expected) / shots)
    excess = np.abs(observed - expected) - SIGMAS * sigma
    expect(bool(np.all(excess <= 1e-12)), f"bin frequencies beyond {SIGMAS} sigma: {excess.max()}")


def check_estimate(op, est) -> None:
    import numpy as np

    probs = op.source ** 2 / np.sum(op.source ** 2)
    exact = float(np.dot(probs, op.observable))
    spread = math.sqrt(max(float(np.dot(probs, op.observable ** 2)) - exact ** 2, 0.0) / op.shots)
    expect(abs(est.estimate - exact) <= SIGMAS * spread,
           f"estimate {est.estimate} vs exact {exact}, {SIGMAS} standard errors = {SIGMAS * spread}")
    expect(est.qubits_sent == op.shots * ceil_log2(op.source.size),
           f"qubits_sent {est.qubits_sent} != {op.shots} * ceil(log2 {op.source.size})")


def check_statevector_round(op, out: dict) -> None:
    import numpy as np

    controllers, hypervisor = reference_join(op)
    for c, (joined, want) in enumerate(zip(out["joins"], controllers)):
        _close_amplitudes(f"controller {c}", joined.state.amplitudes, want)
    _close_amplitudes("hypervisor", out["hypervisor"].state.amplitudes, hypervisor)
    p = op.telemetry.shape[2]
    for (c, s), branch in zip(op.branches, out["branches"]):
        vec = op.telemetry[c, s]
        want_p = float(np.sum(vec ** 2) / np.sum(op.telemetry[c] ** 2))
        expect(close(branch.probability, want_p, 1e-12), f"branch ({c},{s}) probability")
        overlap = abs(complex(np.vdot(branch.conditional.amplitudes[:p], vec / np.linalg.norm(vec))))
        expect(abs(overlap - 1.0) <= AMP_ATOL, f"branch ({c},{s}) overlap {overlap}")
    check_histogram(out["histogram"], np.abs(hypervisor) ** 2, op.shots)
    check_estimate(op, out["estimate"])
