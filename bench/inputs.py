"""
Seeded input generation for the three workloads.

Every round of a workload has the same make-up whatever the seed: the seed
picks topologies, link constants, ledger stocks and telemetry inside fixed
ranges, so the cost of a round and the number of operations that fail
today stay the same from seed to seed. Only the standard library is used
for the scenarios; telemetry for the statevector rounds comes from numpy's
PCG64, imported only by that generator.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import balance_oracle, link_demand

# --- scenarios -------------------------------------------------------------


def _link(rng: random.Random, cap_lo: int, cap_hi: int, len_lo: int, len_hi: int) -> dict:
    capacity = float(rng.randrange(cap_lo, cap_hi))
    return {
        "capacity": capacity,
        "q_capacity": capacity if rng.random() < 0.75 else float(rng.randrange(cap_lo, cap_hi)),
        "length": float(rng.randrange(len_lo, len_hi)),
        "propagation_speed": rng.choice([2.0e8, 1.5e8, 2.998e8]),
        "per_message_processing": rng.choice([1e-6, 1e-5, 1e-4]),
    }


def _base(rng: random.Random, topology: dict) -> dict:
    return {
        "topology": topology,
        "links": {
            "leaf": _link(rng, 10_000, 1_000_000, 1_000, 200_000),
            "mid": _link(rng, 1_000_000, 1_000_000_000, 10_000, 1_000_000),
        },
        "energy": {
            "per_bit_tx": rng.choice([1e-10, 5e-10, 1e-9, 2e-9]),
            "per_instruction": rng.choice([1e-11, 1e-10, 5e-10]),
            "instructions_per_bit_processed": rng.choice([0.5, 1.0, 2.0, 4.0]),
            "bandwidth_scaling": rng.choice([1e5, 1e6, 1e9]),
        },
        "seed": rng.randrange(2**31),
        "mode": "both",
    }


def desk_topology(rng: random.Random) -> dict:
    return {
        "num_controllers": rng.randint(2, 8),
        "switches_per_controller": rng.randint(2, 16),
        "params_per_switch": rng.randint(3, 64),
        "bits_per_param": rng.randint(1, 8),
        "shots": rng.randint(1, 4),
    }


def paper_topology(rng: random.Random) -> dict:
    return {
        "num_controllers": rng.randint(512, 1024),
        "switches_per_controller": rng.randint(512, 1024),
        "params_per_switch": rng.randint(1000, 2000),
        "bits_per_param": 1,
        "shots": 1,
    }


def tilted_ledger(rng: random.Random, c: int, q: int, ebits: int) -> dict:
    """Capacities under which converting one unit beats converting none.

    Classical-heavy: (q + 1) / Q < c / C, so one dense-coded pair lowers the
    worse utilization. Quantum-heavy: (c + 2) / C < q / Q, so one teleported
    qubit does. C + 2Q > c + 2q keeps the best plan inside one plane.
    Needs c >= 2 and q >= 1.
    """
    u = rng.uniform(0.5, 1.2)
    if rng.random() < 0.5:
        cap_c = max(1, int(c / u))
        cap_q = (q + 1) * cap_c // c + 1 + rng.randrange(4)
        cap_q = max(cap_q, (c + 2 * q - cap_c) // 2 + 1)
    else:
        cap_q = max(1, int(q / u))
        cap_c = (c + 2) * cap_q // q + 1 + rng.randrange(4)
        cap_c = max(cap_c, c + 2 * q - 2 * cap_q + 1)
    return {"ebits": ebits, "classical_capacity": cap_c, "quantum_capacity": cap_q}


def level_ledger(rng: random.Random, c: int, q: int, ebits: int) -> dict:
    """Capacities proportional to the load: every conversion makes it worse."""
    k = rng.randint(1, 4)
    return {"ebits": ebits, "classical_capacity": c * k, "quantum_capacity": q * k}


def _sweep(rng: random.Random, length: int) -> dict:
    start = rng.randint(1, 8)
    return {
        "parameter": rng.choice(["N", "K", "P", "R", "switches_per_controller"]),
        "values": [start * 2**i for i in range(length)],
    }


def scenario(rng: random.Random, size: str, ledgers: str, sweep: int,
             links: tuple[str, ...] = ("leaf", "mid")) -> dict:
    """size: desk | paper; ledgers: none | level | tilt (the first of `links`
    tilted, the others level); sweep: number of values."""
    topology = desk_topology(rng) if size == "desk" else paper_topology(rng)
    scn = _base(rng, topology)
    if ledgers != "none":
        demand = link_demand(topology)
        scn["ledgers"] = {}
        for i, link in enumerate(links):
            maker = tilted_ledger if ledgers == "tilt" and i == 0 else level_ledger
            scn["ledgers"][link] = maker(rng, *demand[link], rng.randint(1, 4096))
    if sweep:
        scn["sweep"] = _sweep(rng, sweep)
    return scn


def heavy_scenario(rng: random.Random, ebits: int) -> dict:
    """A stock of `ebits` on a mid link whose classical load is > 2 * ebits,
    so balance_link scans the whole stock; classical-heavy, so the plan
    dense-codes. Capacities keep Q * C below about 2e14: two utilisations
    that differ exactly then differ by more than float rounding, and the
    program's float comparison picks the exact optimum."""
    k, p = 1024, rng.randint(1800, 2048)
    b = -(-22 * ebits // (10 * k * p))
    topology = {"num_controllers": rng.randint(1, 4), "switches_per_controller": k,
                "params_per_switch": p, "bits_per_param": b, "shots": 1}
    scn = _base(rng, topology)
    c, q = link_demand(topology)["mid"]
    cap_q = int(ebits * rng.uniform(0.98, 1.02))
    cap_c = int(max(c * 0.5, c + 2 * q - 2 * cap_q) * rng.uniform(1.0, 1.02))
    scn["ledgers"] = {"mid": {"ebits": ebits, "classical_capacity": cap_c, "quantum_capacity": cap_q}}
    return scn


def planned_ebits(scn: dict) -> dict[str, int]:
    """Ebits the optimal plan consumes on each ledgered link (oracle)."""
    demand = link_demand(scn["topology"])
    out = {}
    for link, ledger in scn.get("ledgers", {}).items():
        plan = balance_oracle(*demand[link], ledger["ebits"], ledger["classical_capacity"],
                              ledger["quantum_capacity"])
        if not plan.feasible:
            raise AssertionError(f"generated ledger on {link} is infeasible: {ledger}")
        out[link] = plan.ebits
    return out


# Round make-up of scenario_reports: (size, ledgers, sweep values, ledgered
# links), or ("heavy", index into HEAVY_STOCKS). The seed never changes this
# make-up, so the cost of a round and its count of replay failures stay put.
# All 13 light scenarios report both modes with a sweep, so their costs
# differ only by their ledgers and the median op sits among near-equals.
# Heavy stocks are jittered upward by at most 3 %, so 1e6 <= stock <= 1e7.
REPORT_MIX = (
    ("desk", "tilt", 6, ("leaf", "mid")), ("desk", "level", 6, ("leaf",)), ("desk", "none", 6, ()),
    ("paper", "tilt", 6, ("mid",)), ("heavy", 0), ("desk", "tilt", 6, ("leaf",)),
    ("paper", "level", 6, ("leaf", "mid")), ("heavy", 2), ("paper", "none", 6, ()),
    ("desk", "tilt", 6, ("mid", "leaf")), ("heavy", 1), ("desk", "level", 6, ("mid",)),
    ("paper", "tilt", 6, ("leaf",)), ("desk", "none", 6, ()), ("desk", "tilt", 6, ("mid",)),
    ("heavy", 3), ("desk", "level", 6, ("leaf", "mid")),
)
HEAVY_STOCKS = (1_000_000, 3_000_000, 9_700_000, 9_700_000)


@dataclass
class ReportOp:
    path: Path
    scenario: dict
    ebits: dict[str, int]  # oracle plan per ledgered link

    @property
    def replay_breaks(self) -> bool:
        """The ledger is debited inside the config, so report.json records
        the post-debit stock and a replay differs whenever a plan uses ebits."""
        return any(self.ebits.values())


def report_round(seed: int, workdir: Path) -> list[ReportOp]:
    rng = random.Random(f"scenario_reports/{seed}")
    ops = []
    for i, (size, *shape) in enumerate(REPORT_MIX):
        if size == "heavy":
            scn = heavy_scenario(rng, int(HEAVY_STOCKS[shape[0]] * rng.uniform(1.0, 1.03)))
        else:
            scn = scenario(rng, size, *shape)
        path = workdir / f"scenario{i:02d}.json"
        path.write_text(json.dumps(scn, indent=2), encoding="utf-8")
        ops.append(ReportOp(path, scn, planned_ebits(scn)))
    return ops


# --- cold CLI ops ----------------------------------------------------------


@dataclass
class CliOp:
    kind: str
    argv: list[str]
    outdir: Path | None = None
    scenario: dict | None = None
    vectors: list[list[float]] = field(default_factory=list)
    params: dict = field(default_factory=dict)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _balance_args(rng: random.Random) -> dict:
    c, q = rng.randint(10, 4000), rng.randint(1, 60)
    ledger = tilted_ledger(rng, c, q, rng.randint(1, 2000))
    return {"cbits": c, "qubits": q, "ebits": ledger["ebits"],
            "classical_capacity": ledger["classical_capacity"],
            "quantum_capacity": ledger["quantum_capacity"]}


def cli_round(seed: int, workdir: Path) -> list[CliOp]:
    """Ten cold invocations: eight accounting subcommands, encode and join."""
    rng = random.Random(f"cli_cold/{seed}")
    ops: list[CliOp] = []

    def run(size, ledgers, sweep):
        i = len(ops)
        scn = scenario(rng, size, ledgers, sweep)
        planned_ebits(scn)
        path = _write_json(workdir / f"cli{i:02d}.json", scn)
        outdir = workdir / f"cli{i:02d}.out"
        ops.append(CliOp("run", ["run", str(path), "--output", str(outdir)], outdir, scn))

    run("desk", "tilt", 6)
    run("paper", "tilt", 0)
    ops.append(CliOp("selftest", ["selftest"]))
    run("desk", "none", 6)

    sweep = _sweep(rng, 6)
    base = {"n": rng.randint(1, 16), "k": rng.randint(1, 16), "p": rng.randint(2, 64),
            "b": rng.randint(1, 8), "r": rng.randint(1, 4)}
    values = ",".join(str(v) for v in sweep["values"])
    argv = ["scale", "--sweep", sweep["parameter"], "--values", values]
    for name, value in base.items():
        argv += [f"--{name}", str(value)]
    ops.append(CliOp("scale", argv + ["--format", "json"], params={**base, **sweep}))

    scn = scenario(rng, "paper", "none", 0)
    path = _write_json(workdir / f"cli{len(ops):02d}.json", scn)
    ops.append(CliOp("simulate", ["simulate", "--config", str(path)], scenario=scn))

    run("paper", "level", 6)

    args = _balance_args(rng)
    argv = ["balance"]
    for name, value in args.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    ops.append(CliOp("balance", argv + ["--format", "json"], params=args))

    vec = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(33, 256))]
    path = workdir / f"cli{len(ops):02d}.txt"
    path.write_text("".join(f"{v!r}\n" for v in vec), encoding="utf-8")
    ops.append(CliOp("encode", ["encode", "--input", str(path)], vectors=[vec]))

    length = rng.randint(9, 32)
    vecs = [[rng.uniform(0.1, 10.0) for _ in range(length)] for _ in range(rng.randint(3, 8))]
    path = _write_json(workdir / f"cli{len(ops):02d}.vectors.json", vecs)
    ops.append(CliOp("join", ["join", "--input", str(path), "--format", "json"], vectors=vecs))
    return ops


# --- desk-scale statevector rounds ----------------------------------------

# (controllers N, switches K, data qubits m, shots). P is drawn from
# (0.9 * 2**m, 2**m] except for the reference round, which keeps P = 2000.
# Total width m + ceil(log2 K) + ceil(log2 N) runs from 16 to 21 qubits.
# The median op falls inside the eight 18-qubit ops and the tail inside
# the six 19-qubit, 3e5-shot ops for any run of 4 to 9 rounds, so neither
# figure jumps between two kinds of op when the machine's speed changes
# the round count.
STATEVECTOR_MIX = (
    (4, 64, 8, 10_000),
    (4, 64, 8, 30_000),
    (2, 128, 9, 30_000),
    (2, 128, 9, 100_000),
    *[(4, 128, 9, 100_000)] * 8,
    (1, 512, 11, 10_000),
    (2, 256, 10, 100_000),
    *[(2, 256, 10, 300_000)] * 6,
    (1, 1024, 11, 1_000_000),
)


@dataclass
class StatevectorOp:
    telemetry: "object"  # float64 array (N, K, P)
    norms: "object"  # float64 array (N, K)
    shots: int
    sample_seed: int
    estimate_seed: int
    source: "object"  # controller 0's padded concatenation, 2**(m + a_k) entries
    observable: "object"  # parameter slot index of each source entry
    branches: list[tuple[int, int]]  # (controller, switch) pairs to marginalize

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.telemetry.shape


def statevector_round(seed: int) -> list[StatevectorOp]:
    import numpy as np

    ops = []
    for i, (n, k, m, shots) in enumerate(STATEVECTOR_MIX):
        rng = np.random.default_rng([seed, i])
        p = 2000 if (k, m) == (1024, 11) else int(rng.integers(int(0.9 * 2**m) + 1, 2**m + 1))
        telemetry = rng.uniform(0.1, 10.0, size=(n, k, p))
        block = 1 << m
        source = np.zeros((k, block))
        source[:, :p] = telemetry[0]
        ops.append(StatevectorOp(
            telemetry=telemetry,
            norms=np.linalg.norm(telemetry, axis=2),
            shots=int(shots * rng.uniform(0.98, 1.02)),
            sample_seed=int(rng.integers(2**63)),
            estimate_seed=int(rng.integers(2**63)),
            source=source.reshape(-1),
            observable=np.tile(np.arange(block, dtype=np.float64), k),
            branches=[(int(rng.integers(n)), int(rng.integers(k))) for _ in range(4)],
        ))
    return ops
