"""
The three closed-loop workloads: one caller, one op at a time.

Each workload generates its inputs from the seed in `__init__` (that is
the set-up that `setup_s` times), then `run(i, op)` performs one op and
returns (seconds, output) and `check(i, op, output)` verifies the output
and returns True when the op failed. The first time an op's output is
seen it gets the full checks from checks.py; later rounds of the same op
must reproduce it exactly (a digest match), which also shows that seeded
outputs repeat across calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from checks import expect

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Runs `python -m qcplane ARGS` and reports, on stderr at exit, how many
# modules the process loaded and whether numpy was among them.
PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: sys.stderr.write('\\n@probe %d %d\\n' % "
    "(len(sys.modules), 'numpy' in sys.modules)))\n"
    "sys.argv[0] = 'qcplane'\n"
    "runpy.run_module('qcplane', run_name='__main__', alter_sys=True)\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("QCPLANE_OUTPUT_DIR", None)
    return env


def spawn(argv: list[str], stdout, stderr) -> tuple[float, int, float]:
    """Run a child to exit: (seconds from spawn to exit, exit code, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=SRC.parent)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def empty(directory: Path) -> None:
    """Remove the previous round's reports before an op, outside its time.

    Renaming a new file over an existing one makes ext4 start writeback of
    the new data (auto_da_alloc), so its cost follows the load on a shared
    disk rather than qcplane; every op therefore writes into an empty
    directory, as a first run into a fresh report directory does.
    """
    if directory.is_dir():
        for old in directory.iterdir():
            old.unlink()


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.seen: dict[int, str] = {}

    def verify(self, i: int, key: str, full_check) -> None:
        """Full checks the first time op i yields `key`; a repeat is already checked."""
        if self.seen.get(i) != key:
            full_check()
            if i in self.seen:
                raise checks.CheckError(f"op {i}: output differs between rounds of the same input")
            self.seen[i] = key

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ScenarioReports(Workload):
    name = "scenario_reports"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from qcplane import config, reporting, runner

        self.config, self.reporting, self.runner = config, reporting, runner
        self.ops = inputs.report_round(seed, workdir)

    def run(self, i, op):
        config, runner, reporting = self.config, self.runner, self.reporting
        outdir = self.workdir / f"reports{i:02d}"
        empty(outdir)
        start = time.perf_counter()
        files = runner.build_report_files(config.load_scenario(op.path))
        built = time.perf_counter()
        # The writes are not part of the op's latency: on a shared disk their
        # cost swung 4x within minutes, more than the whole build. The traced
        # run still times them (reporting.write_s).
        for name in sorted(files):
            reporting.write_atomic(outdir / name, files[name])
        written = time.perf_counter()
        recorded = config.scenario_from_dict(json.loads(files["report.json"])["scenario"])
        replay = runner.build_report_files(recorded)
        seconds = (built - start) + (time.perf_counter() - written)
        return seconds, (files, replay == files, outdir)

    def check(self, i, op, out) -> bool:
        files, replayed, outdir = out

        def full():
            checks.check_report_files(op.scenario, files)
            on_disk = {name: (outdir / name).read_text(encoding="utf-8") for name in files}
            expect(on_disk == files, "written files differ from the built ones")

        self.verify(i, digest(sorted(files.items())), full)
        return not replayed

    def expected_failures(self) -> int:
        return sum(op.replay_breaks for op in self.ops)


class CliCold(Workload):
    name = "cli_cold"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        import qcplane  # noqa: F401  (set-up parity with the in-process workloads)

        self.ops = inputs.cli_round(seed, workdir)
        self.peak = 0.0
        self.probes: list[tuple[int, int]] = []
        self.probe = False

    def run(self, i, op):
        out_path, err_path = self.workdir / f"cli{i:02d}.stdout", self.workdir / f"cli{i:02d}.stderr"
        if op.outdir is not None:
            empty(op.outdir)
        head = ["-c", PROBE] if self.probe else ["-m", "qcplane"]
        with out_path.open("wb") as out, err_path.open("wb") as err:
            seconds, code, peak = spawn([sys.executable, *head, *op.argv], out, err)
        self.peak = max(self.peak, peak)
        stdout = out_path.read_text(encoding="utf-8")
        if self.probe:
            tail = err_path.read_text(encoding="utf-8").rsplit("@probe ", 1)[-1].split()
            self.probes.append((int(tail[0]), int(tail[1])))
        files = {}
        if op.outdir is not None:
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(op.outdir.iterdir())}
        return seconds, (code, stdout, files)

    def check(self, i, op, out) -> bool:
        code, stdout, files = out
        expect(code == 0, f"`qcplane {' '.join(op.argv)}` exited {code}")

        def full():
            if op.kind == "run":
                checks.check_report_files(op.scenario, files)
                expect(sorted(stdout.split()) == sorted(str(op.outdir / n) for n in files),
                       "run did not list the files it wrote")
            elif op.kind == "selftest":
                checks.check_selftest(stdout)
            elif op.kind == "scale":
                checks.check_scale(op.params, stdout)
            elif op.kind == "simulate":
                checks.check_simulate(op.scenario, stdout)
            elif op.kind == "balance":
                checks.check_balance_cli(op.params, stdout)
            elif op.kind == "encode":
                checks.check_encode(op.vectors[0], stdout)
            else:
                checks.check_join(op.vectors, stdout)

        self.verify(i, digest(stdout, sorted(files.items())), full)
        return False

    def peak_rss_mb(self) -> float:
        return self.peak

    def warm_main(self, op) -> int:
        """In-process `cli.main(argv)`, stdout captured and discarded."""
        from qcplane import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(op.argv))


class DeskStatevector(Workload):
    name = "desk_statevector"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from qcplane import qram, statevector

        self.sv, self.qram = statevector, qram
        self.ops = inputs.statevector_round(seed)

    def run(self, i, op):
        sv, qram = self.sv, self.qram
        n, k, _ = op.shape
        start = time.perf_counter()
        joins = [
            qram.qram_join([sv.amplitude_encode(op.telemetry[c, s]) for s in range(k)], weights=op.norms[c])
            for c in range(n)
        ]
        hypervisor = qram.qram_join([j.state for j in joins], mode=qram.WeightMode.UNIFORM)
        branches = [qram.address_marginal(joins[c], s) for c, s in op.branches]
        histogram = sv.measure_sample(hypervisor.state, op.shots, op.sample_seed)
        estimate = sv.estimate_expectation(op.source, op.observable, op.shots, op.estimate_seed)
        seconds = time.perf_counter() - start
        return seconds, {"joins": joins, "hypervisor": hypervisor, "branches": branches,
                         "histogram": histogram, "estimate": estimate}

    def check(self, i, op, out) -> bool:
        import numpy as np

        hist = out["histogram"]
        key = digest(
            *(j.state.amplitudes.tobytes() for j in out["joins"]),
            out["hypervisor"].state.amplitudes.tobytes(),
            [(b.probability, b.conditional.amplitudes.tobytes()) for b in out["branches"]],
            np.fromiter(hist.counts.keys(), np.int64, len(hist.counts)).tobytes(),
            np.fromiter(hist.counts.values(), np.int64, len(hist.counts)).tobytes(),
            tuple(out["estimate"]),
        )
        self.verify(i, key, lambda: checks.check_statevector_round(op, out))
        return False


WORKLOADS = {w.name: w for w in (CliCold, ScenarioReports, DeskStatevector)}
