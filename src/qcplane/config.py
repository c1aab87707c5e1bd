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
the defaults of each section are the fields of `TopologySpec`,
`TierLinks`/`LinkSpec`, `EnergyModel`, `ResourceLedger` and `SweepSpec`, and
the top-level keys are those of `ScenarioConfig`. Each of those dataclasses
holds its own fields to their contract in `__post_init__`, whether it is
built here or in Python, and raises `FieldError` (a ValueError, alias
`ScenarioValidationError`) naming the field. This module only walks the
JSON, rejects unknown keys and puts the section's dotted path in front of
the field, so the first offender is reported by its full path and a bad
file always produces the same diagnostic.

The `seed` is recorded in report.json for provenance. The accounting is
exact and draws nothing at random, so no other report byte depends on it.
"""
from __future__ import annotations

import json
from collections.abc import Collection, Mapping
from dataclasses import MISSING, dataclass
from pathlib import Path
from types import MappingProxyType

from .exchange import ResourceLedger
from .netsim import EnergyModel, LinkSpec, TierLinks
from .scaling import FieldError, TopologySpec, check_fields, instance, normalize_sweep_parameter, schema, shown

MODES = ("classical", "quantum", "both")

# A scenario field violates its contract; `field` is its dotted path.
ScenarioValidationError = FieldError


class ScenarioParseError(ValueError):
    """The scenario file is not well-formed JSON (or not an object)."""


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


_LINKS = tuple(schema(TierLinks))
# The kind of each section; only `sweep` may be None.
_SECTIONS = {"topology": TopologySpec, "links": TierLinks, "energy": EnergyModel, "sweep": SweepSpec}


def _scenario_field(name: str, value):
    if name == "seed" and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError("must be present and an integer")
    if name == "mode" and value not in MODES:
        raise ValueError(f"must be one of {MODES}, got {shown(value)}")
    if name == "ledgers":
        value = MappingProxyType(dict(instance(value, Mapping)))
        for link, ledger in value.items():
            if link not in _LINKS:
                raise FieldError(f"ledgers.{link}", "unknown field")
            if not isinstance(ledger, ResourceLedger):
                raise FieldError(f"ledgers.{link}", f"must be a ResourceLedger, got {ledger!r}")
    if name in _SECTIONS and (value is not None or name != "sweep"):
        instance(value, _SECTIONS[name])
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; `ledgers` maps names of `TierLinks` fields to ledgers
    and is held as a read-only copy of the mapping given."""

    topology: TopologySpec
    links: TierLinks
    energy: EnergyModel
    ledgers: Mapping[str, ResourceLedger]
    sweep: SweepSpec | None
    seed: int
    mode: str

    def __post_init__(self):
        check_fields(self, _scenario_field)


def _object(obj, path: str, allowed: Collection[str]) -> dict:
    """`obj`, the JSON found at `path` (MISSING if absent), if it is an object
    whose keys are all in `allowed`."""
    if obj is MISSING:
        raise FieldError(path, "missing required field")
    if not isinstance(obj, dict):
        raise FieldError(path, "must be an object")
    for key in obj:
        if key not in allowed:
            raise FieldError(f"{path}.{key}" if path else key, "unknown field")
    return obj


def _section(cls, obj, path: str):
    """Build dataclass `cls` from the JSON object `obj` found at `path`.

    Only the keys are read here: an unknown one is rejected and an absent
    one is passed as the field's default, MISSING for a required field.
    `cls` holds every value to its contract; its FieldError is raised again
    with `path` in front of the field.
    """
    defaults = schema(cls)
    obj = _object(obj, path, defaults)
    try:
        return cls(**{name: obj.get(name, default) for name, default in defaults.items()})
    except FieldError as exc:
        raise FieldError(f"{path}.{exc.field}", exc.message) from None


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed scenario object, reporting the first bad field."""
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    _object(data, "", schema(ScenarioConfig))
    topology = _section(TopologySpec, data.get("topology", MISSING), "topology")
    given = _object(data.get("links", MISSING), "links", _LINKS)
    links = TierLinks(**{
        link: _section(LinkSpec, given.get(link, MISSING), f"links.{link}") for link in _LINKS
    })
    energy = _section(EnergyModel, data.get("energy", MISSING), "energy")
    given = _object(data.get("ledgers", {}), "ledgers", _LINKS)
    ledgers = {
        link: _section(ResourceLedger, given[link], f"ledgers.{link}")
        for link in _LINKS
        if link in given
    }
    sweep = _section(SweepSpec, data["sweep"], "sweep") if "sweep" in data else None
    return ScenarioConfig(
        topology=topology,
        links=links,
        energy=energy,
        ledgers=ledgers,
        sweep=sweep,
        seed=data.get("seed"),
        mode=data.get("mode"),
    )


def _plain(obj) -> dict:
    """A dataclass, dict or mappingproxy as a JSON object: nested ones
    likewise, tuples as lists. Shallow vars() rather than dataclasses.asdict,
    which deep-copies every leaf and costs ten times as much here."""
    data = {}
    for key, value in (obj if isinstance(obj, (dict, MappingProxyType)) else vars(obj)).items():
        if isinstance(value, tuple):
            value = list(value)
        elif value is not None and not isinstance(value, (int, float, str)):
            value = _plain(value)
        data[key] = value
    return data


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Inverse of scenario_from_dict: the result re-validates identically.

    Every field of the scenario's dataclasses, by name; `ledgers` and
    `sweep` are left out when the scenario has none.
    """
    data = _plain(cfg)
    if not cfg.ledgers:
        del data["ledgers"]
    if cfg.sweep is None:
        del data["sweep"]
    return data


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file.

    Raises OSError for unreadable paths, ScenarioParseError for malformed
    JSON, ScenarioValidationError for contract violations.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data)
