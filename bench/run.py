#!/usr/bin/env python3
"""
qcplane benchmark: three closed-loop workloads, one caller each.

    python3 bench/run.py --workload cli_cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports qcplane from ./src and writes
only under bench/results/. --trace 0 times the ops untraced and prints the
end-to-end metrics; --trace 1 wraps qcplane's public functions in spans and
prints the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See bench/README.md for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7  # fresh set-ups per run, at least; setup_s is their median
FLOOR_SAMPLES = 7  # `python -c pass` / `import qcplane.cli` samples in a traced run
MIN_ROUNDS = 2  # the second round shows that seeded outputs repeat


def tail(ordered: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it: the
    value that exactly ten samples exceed (p = 100 - 1000 / n)."""
    return ordered[max(len(ordered) - 11, 0)]


class Sampler:
    """Times fresh child processes, spread over a run: one sample per
    `seconds / count` between rounds, topped up to `count` at the end, so
    that their median sees the same machine as the ops around them."""

    def __init__(self, argv: list[str], count: int, seconds: float):
        self.argv, self.count, self.every = argv, count, seconds / count
        self.start = time.perf_counter()
        self.samples: list[float] = []

    def take(self) -> None:
        from workloads import spawn

        seconds, code, _ = spawn(self.argv, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"{self.argv} exited {code}")
        self.samples.append(seconds)

    def between_rounds(self) -> None:
        if len(self.samples) <= (time.perf_counter() - self.start) / self.every:
            self.take()

    def median(self) -> float:
        while len(self.samples) < self.count:
            self.take()
        return statistics.median(self.samples)


class Loop:
    """Whole rounds of the workload's ops until `seconds` have passed."""

    def __init__(self, workload, seconds: float):
        self.workload, self.seconds = workload, seconds
        self.latencies: list[float] = []
        self.failed = 0
        self.rounds = 0
        self.errors: list[str] = []

    def one(self, i, op, call=None) -> None:
        from checks import CheckError

        try:
            seconds, out = call(i, op) if call else self.workload.run(i, op)
        except Exception as exc:  # an op the program could not complete
            self.latencies.append(float("nan"))
            self.failed += 1
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        self.latencies.append(seconds)
        try:
            self.failed += bool(self.workload.check(i, op, out))
        except CheckError as exc:
            self.errors.append(f"op {i}: {exc}")

    def run(self, call=None, per_round=None) -> None:
        deadline = time.perf_counter() + self.seconds
        while self.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for i, op in enumerate(self.workload.ops):
                self.one(i, op, call)
            if per_round:
                per_round()
            self.rounds += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> bool:
        return not self.errors


def end_to_end(loop: Loop, workload, setup_s: float) -> dict:
    done = sorted(x for x in loop.latencies if not math.isnan(x))
    info(f"{len(done)} ops in {loop.rounds} rounds; op_tail_s is p{100 - 1000 / len(done):.1f}"
         " (ten ops beyond it)")
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(done), "s"),
        "op_tail_s": (tail(done), "s"),
        "ops_per_s": (len(done) / math.fsum(done), "1/s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MiB"),
    }


def per_layer(loop: Loop, workload, tracer, floors: list[Sampler]) -> dict:
    """Per-op means of layer self times, allocation peaks and import costs."""
    from tracing import OP, PEAK_LAYERS, SPAN_LAYERS
    from workloads import child_env

    ops = loop.attempted
    selfs = tracer.layer_self_times()
    metrics = {layer: (selfs[layer] / ops, "s") for layer in SPAN_LAYERS}
    for key in PEAK_LAYERS.values():
        metrics[key] = (tracer.peaks.get(key, 0.0), "MiB")
    floor = floors[0].median()
    imported = floors[1].median()
    metrics["interpreter.start_s"] = (floor, "s")
    metrics["package.import_s"] = (imported - floor, "s")
    if workload.name == "cli_cold":
        probes = workload.probes[: len(workload.ops)]
        metrics["package.modules_loaded"] = (statistics.mean(m for m, _ in probes), "count")
        metrics["package.numpy_loaded_ops"] = (sum(n for _, n in probes), "count")
        cold = statistics.mean(loop.latencies)
        main_s = tracer.op_time() / ops
        metrics["cli.main_s"] = (main_s, "s")
        info(f"traced cold op {cold:.4f} s = interpreter {floor:.4f} + import {imported - floor:.4f}"
             f" + warm cli.main {main_s:.4f} + rest {cold - imported - main_s:.4f}")
    else:
        count = subprocess.run([sys.executable, "-c", "import sys, qcplane.cli; print(len(sys.modules))"],
                               env=child_env(), capture_output=True, text=True, check=True).stdout
        metrics["package.modules_loaded"] = (float(count), "count")
        metrics["package.numpy_loaded_ops"] = (len(workload.ops) if "numpy" in sys.modules else 0, "count")
        metrics["cli.main_s"] = (0.0, "s")
        op_s = tracer.op_time() / ops
        layers = sum(selfs[layer] for layer in SPAN_LAYERS) / ops
        info(f"traced op {op_s:.6f} s: layer self times {layers:.6f} s ({100 * layers / op_s:.1f} %),"
             f" benchmark glue {selfs[OP] / ops:.6f} s")
    return metrics


def traced(workload, seconds: float) -> tuple[Loop, dict]:
    from tracing import OP, Tracer

    tracer = Tracer()
    tracer.install()
    if workload.name == "cli_cold":
        # Cold ops run through the probe; each is followed by the same argv
        # through a warm in-process cli.main, whose spans give the layers.
        workload.probe = True

        def call(i, op):
            result = workload.run(i, op)
            if tracer.span(OP, workload.warm_main, op) != 0:
                raise RuntimeError(f"warm cli.main({op.argv}) failed")
            return result
    else:
        def call(i, op):
            return tracer.span(OP, workload.run, i, op)

    warmup = Loop(workload, 0)  # one memory round: tracemalloc on, spans dropped
    tracer.start_memory()
    for i, op in enumerate(workload.ops):
        warmup.one(i, op, call)
    tracer.stop_memory()
    if workload.name == "cli_cold":
        workload.probes.clear()

    floors = [Sampler([sys.executable, "-c", code], FLOOR_SAMPLES, seconds)
              for code in ("pass", "import qcplane.cli")]

    def between_rounds():
        for sampler in floors:
            sampler.between_rounds()

    loop = Loop(workload, seconds)
    loop.errors = warmup.errors
    loop.run(call, between_rounds)
    tracer.uninstall()
    tracer.dump(RESULTS / f"spans-{workload.name}-{os.getpid()}.jsonl")
    return loop, per_layer(loop, workload, tracer, floors)


def info(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_cold", "scenario_reports", "desk_statevector"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "qcplane" / "__init__.py").is_file():
        print(f"error: {SRC / 'qcplane'} not found; run from the root of a qcplane checkout",
              file=sys.stderr)
        return 2
    from workloads import THREAD_ENV, WORKLOADS

    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    from workloads import WORKLOADS, spawn

    import qcplane

    if not Path(qcplane.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {qcplane.__file__}, not the checkout's src/")
    # Fill the bytecode caches first: users run with them warm.
    spawn([sys.executable, "-c", "import qcplane.cli"], subprocess.DEVNULL, subprocess.DEVNULL)
    if args.trace:
        loop, metrics = traced(WORKLOADS[args.workload](args.seed, workdir), args.seconds)
    else:
        setup_argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
                      args.workload, "--seed", str(args.seed), "--seconds", "0"]
        setups = Sampler(setup_argv, SETUP_SAMPLES, args.seconds)
        setups.take()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload, args.seconds)
        loop.run(per_round=setups.between_rounds)
        metrics = end_to_end(loop, workload, setups.median())
    workload = loop.workload
    if hasattr(workload, "expected_failures"):
        info(f"replay failures {loop.failed}; oracle predicts {workload.expected_failures() * loop.rounds}"
             " (plans that consume ebits debit the recorded scenario)")
    for error in loop.errors[:10]:
        info(f"CHECK FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
