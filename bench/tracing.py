"""
Spans around calls into qcplane, installed only for the traced run.

`Tracer.install` replaces each listed public function, in every qcplane
module namespace that holds it, with a wrapper that appends a span
(name, start, end, parent) to an in-memory list. The untraced runs never
import this file. Self time is a span's duration minus the time its child
spans cover; spans nest strictly (one caller, one thread), so that is the
sum of the children's durations.

With `memory` set, the outermost call into a tracked layer also records
the tracemalloc peak reached inside it.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# Span layer -> qcplane functions whose calls count as that layer. Helpers a
# listed function calls (format_cell, qubits_for_parameters, ...) are left
# unwrapped and count as its self time.
SPAN_LAYERS = {
    "config.parse_s": ("config", ("load_scenario", "scenario_from_dict", "scenario_to_dict")),
    "scaling.loads_s": ("scaling", ("classical_loads", "quantum_loads", "scaling_table")),
    "netsim.simulate_s": ("netsim", ("simulate_collection",)),
    "runner.build_s": ("runner", ("build_report_files", "run_balancing")),
    "reporting.serialise_s": ("reporting", ("csv_text", "json_text")),
    "reporting.write_s": ("reporting", ("write_atomic",)),
    "exchange.balance_s": ("exchange", ("balance_link",)),
    "statevector.encode_s": ("statevector", ("amplitude_encode",)),
    "statevector.sample_s": ("statevector", ("measure_sample",)),
    "statevector.estimate_s": ("statevector", ("estimate_expectation",)),
    "qram.join_s": ("qram", ("qram_join", "join_from_raw")),
    "qram.marginal_s": ("qram", ("address_marginal",)),
}
# tracemalloc peak inside the outermost call into these modules.
PEAK_LAYERS = {"exchange": "exchange.peak_alloc_mb", "statevector": "statevector.peak_alloc_mb",
               "qram": "qram.peak_alloc_mb"}
OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.memory = False
        self.peaks: dict[str, float] = defaultdict(float)
        self._in_peak = False
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0, 0, parent]
        self.spans.append(record)
        self._stack.append(index)
        module = name.split(".", 1)[0]
        owner = self.memory and not self._in_peak and module in PEAK_LAYERS
        if owner:
            self._in_peak = True
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
            if owner:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                key = PEAK_LAYERS[module]
                self.peaks[key] = max(self.peaks[key], peak)
                self._in_peak = False

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Swap every listed function for its traced wrapper, wherever a
        qcplane module (or the package) holds a reference to it."""
        for module_name in {m for m, _ in SPAN_LAYERS.values()} | {"cli"}:
            importlib.import_module(f"qcplane.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "qcplane" or n.startswith("qcplane.")]
        for layer, (module_name, names) in SPAN_LAYERS.items():
            module = sys.modules[f"qcplane.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrapper(f"{module_name}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._installed.append((holder, attr, value))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._installed):
            setattr(holder, attr, value)
        self._installed.clear()

    def start_memory(self) -> None:
        self.memory = True
        tracemalloc.start()

    def stop_memory(self) -> None:
        tracemalloc.stop()
        self.memory = False
        self.spans.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over all spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            totals[name] += (end - start - inner) / 1e9
        return totals

    def layer_self_times(self) -> dict[str, float]:
        by_function = self.self_times()
        layers = {}
        for layer, (module_name, names) in SPAN_LAYERS.items():
            layers[layer] = sum(by_function.get(f"{module_name}.{n}", 0.0) for n in names)
        layers[OP] = by_function.get(OP, 0.0)
        return layers

    def op_time(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == OP) / 1e9

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent}) + "\n")
