"""
Scenario files: JSON schema and strict validation.

A scenario is one JSON object (see README for the full schema):

    {
      "topology": {"num_controllers": ..., "switches_per_controller": ...,
                   "params_per_switch": ..., "bits_per_param": ..., "shots": ...},
      "links": {"leaf": {...}, "mid": {...}},
      "energy": {...},
      "ledgers": {"leaf": {"ebits": ..., "classical_capacity": ...,
                           "quantum_capacity": ...}},   # optional
      "sweep": {"parameter": "K", "values": [...]},     # optional
      "seed": 7,
      "mode": "classical" | "quantum" | "both"
    }

The dataclasses state the schema once: the walk order, the allowed keys and
the defaults of each section are the fields of `ScenarioConfig`,
`TopologySpec`, `TierLinks`/`LinkSpec`, `EnergyModel`,
`TierLedgers`/`ResourceLedger` and `SweepSpec`. Each holds its own fields to
their contract in `__post_init__`, whether it is built here or in Python,
and raises `scaling.FieldError` naming the field. `_section` reads a file
in one recursive walk over them: it rejects unknown keys and puts the
dotted path in front of the field, so a bad file always produces the same
diagnostic. A file that is not JSON, or whose value is not an object,
raises `ParseError`, the error that the CLI also raises for a malformed
vector file or sweep. `scenario_to_dict` leaves an absent section (no
sweep, no ledger on any link) out.

The `seed` is recorded in report.json for provenance. The accounting is
exact and draws nothing at random, so no other report byte depends on it.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass
from pathlib import Path

from .exchange import ResourceLedger
from .netsim import EnergyModel, LinkSpec, TierLinks
from .scaling import FieldError, TopologySpec, check_fields, instance, normalize_sweep_parameter, schema, shown

MODES = ("classical", "quantum", "both")


class ParseError(ValueError):
    """An input is not well-formed: a scenario or vector file that is not
    JSON or not of the expected shape, a vector entry that is not a number,
    or a malformed `scale` sweep."""


def _sweep_field(name: str, value):
    if name == "parameter":
        if not isinstance(value, str):
            raise ValueError("must be a string")
        return normalize_sweep_parameter(value)
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("must be a non-empty list")
    for i, v in enumerate(value):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise FieldError(f"values[{i}]", f"must be an integer >= 1, got {shown(v)}")
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """A topology sweep: `parameter` is N, K, P or R (or a field name, in any
    case), `values` a non-empty list of integers >= 1, stored as a tuple."""

    parameter: str
    values: tuple[int, ...]

    def __post_init__(self):
        check_fields(self, _sweep_field)


def _scenario_field(name: str, value):
    if name == "seed" and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError("must be present and an integer")
    if name == "mode" and value not in MODES:
        raise ValueError(f"must be one of {MODES}, got {shown(value)}")
    if name in _PARTS[ScenarioConfig] and (value is not None or name != "sweep"):
        instance(value, _PARTS[ScenarioConfig][name])
    return value


@dataclass(frozen=True)
class TierLedgers:
    """Each link's ebit ledger, by the names of `TierLinks`; None for none."""

    leaf: ResourceLedger | None = None
    mid: ResourceLedger | None = None

    def __post_init__(self):
        check_fields(self, lambda name, value: value if value is None else instance(value, ResourceLedger))


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario. `seed` and `mode` default to None only so the fields
    keep the file's order; both are required."""

    topology: TopologySpec
    links: TierLinks
    energy: EnergyModel
    ledgers: TierLedgers = TierLedgers()
    sweep: SweepSpec | None = None
    seed: int | None = None
    mode: str | None = None

    def __post_init__(self):
        check_fields(self, _scenario_field)


# The fields of each class that are sections themselves, with their kinds:
# the fields `_section` descends into.
_PARTS = {
    ScenarioConfig: {"topology": TopologySpec, "links": TierLinks, "energy": EnergyModel,
                     "ledgers": TierLedgers, "sweep": SweepSpec},
    TierLinks: dict.fromkeys(schema(TierLinks), LinkSpec),
    TierLedgers: dict.fromkeys(schema(TierLedgers), ResourceLedger),
}


def _section(cls, obj, path: str):
    """Build dataclass `cls` from the JSON object found at `path` (MISSING
    if absent): reject unknown keys, build each section field that is
    present or required by the same walk, pass an absent field its default
    (MISSING if required), and raise the FieldError of `cls` again with
    `path` in front of the field."""
    if obj is MISSING:
        raise FieldError(path, "missing required field")
    if not isinstance(obj, dict):
        raise FieldError(path, "must be an object")
    prefix = f"{path}." if path else ""
    defaults = schema(cls)
    for key in obj:
        if key not in defaults:
            raise FieldError(prefix + key, "unknown field")
    parts = _PARTS.get(cls, {})
    values = {}
    for name, default in defaults.items():
        value = obj.get(name, default)
        if name in parts and (name in obj or default is MISSING):
            value = _section(parts[name], value, prefix + name)
        values[name] = value
    try:
        return cls(**values)
    except FieldError as exc:
        raise FieldError(prefix + exc.field, exc.message) from None


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed scenario object, reporting the first bad field."""
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    return _section(ScenarioConfig, data, "")


def _plain(obj) -> dict:
    """A dataclass as a JSON object: nested ones likewise, tuples as lists,
    and a field that holds nothing (None, or a section whose fields all do)
    left out. Shallow vars() rather than dataclasses.asdict, which
    deep-copies every leaf and costs ten times as much here."""
    data = {}
    for key, value in vars(obj).items():
        if isinstance(value, tuple):
            value = list(value)
        elif value is not None and not isinstance(value, (int, float, str)):
            value = _plain(value) or None
        if value is not None:
            data[key] = value
    return data


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Inverse of scenario_from_dict: the result re-validates identically.
    It has no key for an absent sweep or ledger, nor `ledgers` for none."""
    return _plain(cfg)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file.

    Raises OSError for unreadable paths, ParseError for malformed JSON or a
    value that is not an object, FieldError for contract violations.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data)
