"""
Command-line front end.

Subcommands: encode, join, scale, simulate, balance, selftest, run. Every
subcommand accepts --output; all but `run`, which writes every report
file, accept --format csv|json, and only `run` takes --seed, which it
records in report.json in place of the scenario's seed. Outputs are
deterministic for fixed inputs. Exit codes, each with the error class that
`main` maps to it: 0 success; 2 `config.ParseError`, an input that is not
well-formed (argparse also exits 2 on a bad command line); 3 ValueError,
either `scaling.FieldError` (printed as "invalid field" and its dotted
path) or another, such as a vector that cannot be encoded or a result
that is not finite (the diagnostic names the value); 4 OSError;
5 `exchange.InfeasibleError`. `selftest` exits 1 when a check fails.

When QCPLANE_OUTPUT_DIR is set, relative --output paths resolve under it
and it becomes the default report directory for `run`.

Only `encode` and `join` import the statevector layer, and with it numpy,
when they run; the accounting subcommands never load numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import runner
from .config import ParseError, load_scenario
from .exchange import InfeasibleError, LinkLoad, ResourceLedger, balance_link
from .netsim import simulate_collection
from .reporting import csv_text, json_text, table_csv, write_atomic
from .scaling import FieldError, TopologySpec, scaling_table, shown

if TYPE_CHECKING:
    from .qram import JoinedState
    from .statevector import QuantumState

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_INFEASIBLE = 5


def _entry(where: str, value) -> float:
    """One vector entry as a finite float; `where` names its file and place."""
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            raise ParseError(f"{where}: not a number: {value!r}") from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: not a number: {value!r}")
    else:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    if not math.isfinite(number):
        got = value if isinstance(value, str) else shown(number)
        raise ValueError(f"{where}: vector entries must be finite, got {got}")
    return number


def read_vectors(path: Path, many: bool) -> list[list[float]]:
    """The vectors in a file.

    One vector is a JSON array of numbers or one number per line; with
    `many`, the file is a JSON array of arrays or one whitespace-separated
    vector per line. Entries that are not numbers are a parse error;
    NaN, infinities and literals that overflow (1e999) are refused too,
    naming the file, the line or JSON index, and the value.
    """
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if not many:
            return [[_entry(f"{path}[{j}]", v) for j, v in enumerate(data)]]
        if not all(isinstance(row, list) for row in data):
            raise ParseError(f"{path}: expected a JSON array of arrays")
        return [
            [_entry(f"{path}[{i}][{j}]", v) for j, v in enumerate(row)]
            for i, row in enumerate(data)
        ]
    rows = [
        [_entry(f"{path}:{lineno}", tok) for tok in (line.split() if many else [line.strip()])]
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    return rows if many else [[value for row in rows for value in row]]


def resolve_output(path_str: str | None) -> Path | None:
    if path_str is None:
        return None
    path = Path(path_str)
    base = os.environ.get("QCPLANE_OUTPUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        write_atomic(output, text)


def state_text(state: QuantumState, fmt: str, joined: JoinedState | None = None) -> str:
    """The `encode` or `join` state table in `fmt`.

    The table is one set of columns: index, then for a join the address and
    the data index, then each amplitude, an imaginary part kept for format
    stability (always 0.0, as amplitudes are real) and the probability. The
    CSV prints every column; the JSON holds the amplitude and probability
    columns with the state's width and, for a join, its shape.
    """
    index = range(state.dim)
    columns = {"index": list(index)}
    if joined is not None:
        block = 1 << joined.data_qubits
        columns["address"] = [i // block for i in index]
        columns["data_index"] = [i % block for i in index]
    columns["amplitude_real"] = state.amplitudes.tolist()
    columns["amplitude_imag"] = [0.0] * state.dim
    columns["probability"] = state.probabilities().tolist()
    if fmt == "csv":
        return csv_text(list(columns), zip(*columns.values()))
    payload = {
        "num_qubits": state.num_qubits,
        "amplitudes": list(zip(columns["amplitude_real"], columns["amplitude_imag"])),
        "probabilities": columns["probability"],
    }
    if joined is not None:
        payload.update(
            num_sources=joined.num_sources,
            data_qubits=joined.data_qubits,
            address_qubits=joined.address_qubits,
            weight_mode=joined.weight_mode.value,
        )
    return json_text(payload)


def cmd_encode(args) -> int:
    from .statevector import amplitude_encode

    state = amplitude_encode(read_vectors(Path(args.input), many=False)[0])
    emit(state_text(state, args.format), resolve_output(args.output))
    return EXIT_OK


def cmd_join(args) -> int:
    from .qram import WeightMode, join_from_raw, qram_join
    from .statevector import amplitude_encode

    vectors = read_vectors(Path(args.input), many=True)
    if args.weight_mode == "uniform":
        states = [amplitude_encode(v) for v in vectors]
        joined = qram_join(states, mode=WeightMode.UNIFORM)
    else:
        joined = join_from_raw(vectors)
    emit(state_text(joined.state, args.format, joined), resolve_output(args.output))
    return EXIT_OK


def _sweep_values(args) -> list[int]:
    if args.values:
        try:
            values = [int(tok) for tok in args.values.split(",")]
        except ValueError as exc:
            raise ParseError(f"--values must be comma-separated integers: {exc}") from exc
        for value in values:
            if value < 1:
                raise ParseError(f"--values must be >= 1, got {value}")
        return values
    if args.start is None or args.stop is None:
        raise ParseError("provide either --values or both --from and --to")
    if args.start < 1:
        raise ParseError(f"--from must be >= 1, got {args.start}")
    if args.factor < 2:
        raise ParseError(f"--factor must be >= 2, got {args.factor}")
    values, v = [], args.start
    while v <= args.stop:
        values.append(v)
        v *= args.factor
    if not values:
        raise ParseError("--from/--to/--factor yield an empty sweep")
    return values


def cmd_scale(args) -> int:
    base = TopologySpec(
        num_controllers=args.n,
        switches_per_controller=args.k,
        params_per_switch=args.p,
        bits_per_param=args.b,
        shots=args.r,
    )
    records = [vars(row) for row in scaling_table(base, args.sweep, _sweep_values(args))]
    text = json_text(records) if args.format == "json" else table_csv(records)
    emit(text, resolve_output(args.output))
    return EXIT_OK


def _simulate_row(mode: str, record: dict) -> dict:
    """A round's report.json record as one flat `simulate` row."""
    record = dict(record)
    latency, loads = record.pop("latency"), record.pop("loads")
    return {
        "mode": mode,
        **{f"{tier}_{name}": value for tier, b in latency.items() for name, value in b.items()},
        **record,
        **loads,
    }


def cmd_simulate(args) -> int:
    cfg = load_scenario(args.config)
    records = {
        m: runner.result_record(simulate_collection(cfg.topology, cfg.links, cfg.energy, m))
        for m in runner.modes_for(args.mode or cfg.mode)
    }
    if args.format == "json":
        text = json_text(records)
    else:
        text = table_csv([_simulate_row(mode, record) for mode, record in records.items()])
    emit(text, resolve_output(args.output))
    return EXIT_OK


def cmd_balance(args) -> int:
    load = LinkLoad(cbits=args.cbits, qubits=args.qubits)
    ledger = ResourceLedger(
        ebits=args.ebits,
        classical_capacity=args.classical_capacity,
        quantum_capacity=args.quantum_capacity,
    )
    record = runner.plan_record(balance_link(load, ledger))
    text = json_text(record) if args.format == "json" else table_csv([record])
    emit(text, resolve_output(args.output))
    return EXIT_OK


def cmd_selftest(args) -> int:
    checks = runner.selftest_checks()
    records = [
        {"check": c.name, "status": "PASS" if c.passed else "FAIL", "detail": c.detail}
        for c in checks
    ]
    if args.format == "json":
        text = json_text(records)
    elif args.format == "csv":
        text = table_csv(records)
    else:
        text = runner.selftest_text(checks)
    emit(text, resolve_output(args.output))
    return EXIT_OK if all(c.passed for c in checks) else 1


def cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    outdir = resolve_output(args.output)
    if outdir is None:
        outdir = Path(os.environ.get("QCPLANE_OUTPUT_DIR", "reports"))
    written = runner.run_scenario(cfg, outdir)
    for path in written:
        sys.stdout.write(f"{path}\n")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, default_format: str | None = "csv"):
    parser.add_argument("--output", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help="report format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcplane",
        description="Hybrid classical-quantum control-plane load, latency and energy accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="amplitude-encode a vector file into a state table")
    p.add_argument("--input", required=True, help="vector file: JSON array or one value per line")
    _add_common(p)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("join", help="join a vector set under an address register")
    p.add_argument("--input", required=True, help="JSON array of arrays, or one vector per line")
    p.add_argument(
        "--weight-mode",
        choices=("norm_proportional", "uniform"),
        default="norm_proportional",
        help="branch weighting",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_join)

    p = sub.add_parser("scale", help="classical vs quantum hypervisor ingest across a sweep")
    p.add_argument("--sweep", required=True, help="parameter to sweep: N, K, P or R")
    p.add_argument("--from", dest="start", type=int, default=None, help="first swept value")
    p.add_argument("--to", dest="stop", type=int, default=None, help="last swept value (inclusive)")
    p.add_argument("--factor", type=int, default=2, help="geometric step (default 2)")
    p.add_argument("--values", default=None, help="explicit comma-separated values (overrides --from/--to)")
    p.add_argument("--n", type=int, default=1, help="controllers")
    p.add_argument("--k", type=int, default=1, help="switches per controller")
    p.add_argument("--p", type=int, default=2, help="parameters per switch")
    p.add_argument("--b", type=int, default=1, help="bits per parameter")
    p.add_argument("--r", type=int, default=1, help="repetitions")
    _add_common(p)
    p.set_defaults(handler=cmd_scale)

    p = sub.add_parser("simulate", help="one collection round from a scenario config")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--mode", choices=("classical", "quantum", "both"), default=None,
                   help="override the scenario's mode")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("balance", help="min-max-utilization conversion plan for one link")
    p.add_argument("--cbits", type=int, required=True)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--ebits", type=int, required=True)
    p.add_argument("--classical-capacity", type=int, required=True)
    p.add_argument("--quantum-capacity", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_balance)

    p = sub.add_parser("selftest", help="check the headline round arithmetic")
    _add_common(p, default_format=None)
    p.set_defaults(handler=cmd_selftest)

    p = sub.add_parser("run", help="run a full scenario and write report files")
    p.add_argument("config", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="seed recorded in the reports")
    p.add_argument("--output", default=None, help="report directory (default: reports)")
    p.set_defaults(handler=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        kind = "invalid field " if isinstance(exc, FieldError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
