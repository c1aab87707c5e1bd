"""
Closed-form bit/qubit accounting for one hierarchical collection round.

Topology: N controllers, each fed by K switches, each switch holding P
telemetry parameters of b bits. Classical transport streams raw parameters
upward; quantum transport sends one ceil(log2 P)-qubit encoding per switch
and joins per hop, so link loads grow with the logarithm of the data they
summarize. R repeats the round shot-for-shot (fresh encodings each time),
scaling every transfer count but not the final aggregate state width.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from functools import cache
from types import MappingProxyType
from typing import Callable, Iterable


class FieldError(ValueError):
    """A dataclass field violates its contract; `field` names it (as a dotted
    path when it was read from a scenario file) and `message` says how."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def shown(value) -> str:
    """`value` as a diagnostic shows it: a non-finite float as its JSON token
    (NaN, Infinity, -Infinity), as in the scenario file; anything else as its
    repr."""
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    return repr(value)


def integer(value, minimum: int) -> int:
    """`value` if it is an int (not a bool) of at least `minimum`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"must be an integer, got {shown(value)}")
    if value < minimum:
        raise ValueError(f"must be >= {minimum}, got {value}")
    return value


def number(value, positive: bool) -> float:
    """`value` as a finite float, > 0 if `positive`, else >= 0.

    json.loads turns NaN, Infinity, -Infinity and literals like 1e999 into
    non-finite floats, and keeps integers too large for any float; all of
    them are refused here.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"must be finite, got {shown(result)}")
    if positive and not result > 0:
        raise ValueError(f"must be > 0, got {value}")
    if result < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return result


def instance(value, cls: type):
    """`value` if it is a `cls`."""
    if not isinstance(value, cls):
        raise ValueError(f"must be a {cls.__name__}, got {shown(value)}")
    return value


@cache
def schema(cls: type) -> Mapping[str, object]:
    """The fields of dataclass `cls`, in field order, each with its default
    (MISSING for a required field); computed once per class."""
    return MappingProxyType({f.name: f.default for f in fields(cls)})


def check_fields(obj, check: Callable[[str, object], object]) -> None:
    """Hold each field of dataclass `obj`, in field order, to
    `check(name, value)` and store what it returns.

    A field passed as `dataclasses.MISSING` is missing; a ValueError from
    the check becomes a FieldError naming the field, and a FieldError (one
    naming a part of the field) passes through as it is.
    """
    for name in schema(type(obj)):
        value = getattr(obj, name)
        if value is MISSING:
            raise FieldError(name, "missing required field")
        try:
            checked = check(name, value)
        except FieldError:
            raise
        except ValueError as exc:
            raise FieldError(name, str(exc)) from None
        if checked is not value:
            object.__setattr__(obj, name, checked)


class Unit(str, Enum):
    BITS = "bits"
    QUBITS = "qubits"


@dataclass(frozen=True)
class TopologySpec:
    """N x K x P collection hierarchy with per-parameter width and repetitions."""

    num_controllers: int
    switches_per_controller: int
    params_per_switch: int
    bits_per_param: int = 1
    shots: int = 1

    def __post_init__(self):
        check_fields(self, lambda name, value: integer(value, 1))


@dataclass(frozen=True)
class LoadReport:
    """Per-link and aggregate transfer counts for one collection round.

    hypervisor_state_size is only meaningful for qubit rounds (the width of
    the fully joined state); it is 0 for bit rounds.
    """

    leaf_link_load: int
    controller_ingest: int
    mid_link_load: int
    hypervisor_ingest: int
    hypervisor_state_size: int
    unit: Unit


def qubits_for_parameters(params: int) -> int:
    """Qubits to amplitude-encode, or to address, `params` values:
    ceil(log2 P), 0 for P=1."""
    if params < 1:
        raise ValueError(f"parameter count must be >= 1, got {params}")
    return int(params - 1).bit_length()


def classical_loads(t: TopologySpec) -> LoadReport:
    """Bit counts when every parameter is streamed upward unmodified."""
    leaf = t.params_per_switch * t.bits_per_param
    mid = t.switches_per_controller * leaf
    return LoadReport(
        leaf_link_load=leaf,
        controller_ingest=mid,
        mid_link_load=mid,
        hypervisor_ingest=t.num_controllers * mid,
        hypervisor_state_size=0,
        unit=Unit.BITS,
    )


def quantum_loads(t: TopologySpec) -> LoadReport:
    """Qubit counts when each hop joins what it received under an address.

    Per round: every switch sends m = ceil(log2 P) qubits; every controller
    joins K such states and sends m + ceil(log2 K) qubits; the hypervisor
    joins N of those into m + ceil(log2 K) + ceil(log2 N) qubits. R rounds
    multiply the transfers, never the final state width.
    """
    m = qubits_for_parameters(t.params_per_switch)
    a_k = qubits_for_parameters(t.switches_per_controller)
    a_n = qubits_for_parameters(t.num_controllers)
    r = t.shots
    return LoadReport(
        leaf_link_load=m * r,
        controller_ingest=t.switches_per_controller * m * r,
        mid_link_load=(m + a_k) * r,
        hypervisor_ingest=t.num_controllers * (m + a_k) * r,
        hypervisor_state_size=m + a_k + a_n,
        unit=Unit.QUBITS,
    )


def break_even_shots(t: TopologySpec) -> int:
    """Largest repetition count R with leaf qubit traffic <= leaf bit traffic.

    floor(P*b / ceil(log2 P)). Undefined for P=1, where the encoding is
    zero qubits wide and any R wins.
    """
    if t.params_per_switch == 1:
        raise ValueError("params_per_switch=1 encodes into 0 qubits; break-even is unbounded")
    leaf_bits = t.params_per_switch * t.bits_per_param
    return leaf_bits // qubits_for_parameters(t.params_per_switch)


_SWEEP_FIELDS = {
    "N": "num_controllers",
    "K": "switches_per_controller",
    "P": "params_per_switch",
    "R": "shots",
}


@dataclass(frozen=True)
class ScalingRow:
    sweep_param: str
    sweep_value: int
    classical_bits: int
    quantum_qubits: int
    ratio: float


def normalize_sweep_parameter(name: str) -> str:
    """Map a sweep name (short or field name, any case) to N/K/P/R."""
    upper = name.upper()
    if upper in _SWEEP_FIELDS:
        return upper
    lower = name.lower()
    for short, field in _SWEEP_FIELDS.items():
        if lower == field:
            return short
    raise ValueError(f"cannot sweep over {name!r}; pick one of N, K, P, R")


def scaling_table(
    t_base: TopologySpec, parameter: str, values: Iterable[int]
) -> list[ScalingRow]:
    """Classical vs quantum hypervisor ingest at each swept topology point."""
    short = normalize_sweep_parameter(parameter)
    field = _SWEEP_FIELDS[short]
    rows = []
    for value in values:
        t = replace(t_base, **{field: value})
        classical = classical_loads(t).hypervisor_ingest
        quantum = quantum_loads(t).hypervisor_ingest
        ratio = classical / quantum if quantum > 0 else math.inf
        rows.append(ScalingRow(short, value, classical, quantum, ratio))
    return rows
