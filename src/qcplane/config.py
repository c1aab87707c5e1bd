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
`TierLinks`/`LinkSpec`, `EnergyModel` and `ResourceLedger`, and the top-level
keys are those of `ScenarioConfig`. Validation walks them in that order and
reports the first offender by its dotted path, so a bad file always produces
the same diagnostic.

The `seed` is recorded in report.json for provenance. The accounting is
exact and draws nothing at random, so no other report byte depends on it.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .exchange import ResourceLedger
from .netsim import EnergyModel, LinkSpec, TierLinks
from .scaling import TopologySpec, UnknownParameterError, normalize_sweep_parameter

MODES = ("classical", "quantum", "both")


class ScenarioParseError(ValueError):
    """The scenario file is not well-formed JSON (or not an object)."""


class ScenarioValidationError(ValueError):
    """A scenario field violates its contract; `field` is the dotted path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    topology: TopologySpec
    links: TierLinks
    energy: EnergyModel
    ledgers: dict[str, ResourceLedger]
    sweep: SweepSpec | None
    seed: int
    mode: str


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise ScenarioValidationError(f"{path}{field}", "missing required field")
    return obj[field]


def _reject_unknown(obj: dict, allowed: list[str], path: str):
    for key in obj:
        if key not in allowed:
            raise ScenarioValidationError(f"{path}{key}", "unknown field")


def _names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _int_field(obj: dict, field: str, path: str, minimum: int = 1) -> int:
    value = _require(obj, field, path)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioValidationError(f"{path}{field}", f"must be an integer, got {value!r}")
    if value < minimum:
        raise ScenarioValidationError(f"{path}{field}", f"must be >= {minimum}, got {value}")
    return value


def _number(obj: dict, field: str, path: str) -> float:
    """The field as a finite float.

    json.loads turns NaN, Infinity, -Infinity and literals like 1e999 into
    non-finite floats, and keeps integers too large for any float; all of
    them are rejected here by field name.
    """
    value = _require(obj, field, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(f"{path}{field}", f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioValidationError(f"{path}{field}", f"must be finite, got {json.dumps(number)}")
    return number


def _pos_number(obj: dict, field: str, path: str) -> float:
    number = _number(obj, field, path)
    if not number > 0:
        raise ScenarioValidationError(f"{path}{field}", f"must be > 0, got {obj[field]}")
    return number


def _nonneg_number(obj: dict, field: str, path: str) -> float:
    number = _number(obj, field, path)
    if number < 0:
        raise ScenarioValidationError(f"{path}{field}", f"must be >= 0, got {obj[field]}")
    return number


def _section(cls, obj, path: str, read):
    """Build dataclass `cls` from the JSON object `obj` found at `path`.

    The allowed keys, their order and the optional ones are the fields of
    `cls`: an unknown key is rejected, each present or required field is
    read by `read(obj, name, prefix)`, and an absent field with a default
    keeps the dataclass's own default.
    """
    if not isinstance(obj, dict):
        raise ScenarioValidationError(path, "must be an object")
    prefix = f"{path}."
    schema = fields(cls)
    _reject_unknown(obj, [f.name for f in schema], prefix)
    return cls(**{
        f.name: read(obj, f.name, prefix)
        for f in schema
        if f.name in obj or f.default is MISSING
    })


def _link_field(obj: dict, field: str, path: str) -> LinkSpec:
    return _section(LinkSpec, _require(obj, field, path), f"{path}{field}", _pos_number)


def _ledger_field(obj: dict, field: str, path: str) -> int:
    return _int_field(obj, field, path, minimum=0 if field == "ebits" else 1)


def _ledgers(obj) -> dict[str, ResourceLedger]:
    if not isinstance(obj, dict):
        raise ScenarioValidationError("ledgers", "must be an object")
    links = _names(TierLinks)
    _reject_unknown(obj, links, "ledgers.")
    return {
        link: _section(ResourceLedger, obj[link], f"ledgers.{link}", _ledger_field)
        for link in links
        if link in obj
    }


def _sweep(obj) -> SweepSpec:
    if not isinstance(obj, dict):
        raise ScenarioValidationError("sweep", "must be an object")
    path = "sweep."
    _reject_unknown(obj, _names(SweepSpec), path)
    parameter = _require(obj, "parameter", path)
    if not isinstance(parameter, str):
        raise ScenarioValidationError("sweep.parameter", "must be a string")
    try:
        short = normalize_sweep_parameter(parameter)
    except UnknownParameterError as exc:
        raise ScenarioValidationError("sweep.parameter", str(exc)) from exc
    values = _require(obj, "values", path)
    if not isinstance(values, list) or not values:
        raise ScenarioValidationError("sweep.values", "must be a non-empty list")
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ScenarioValidationError(
                f"sweep.values[{i}]", f"must be an integer >= 1, got {v!r}"
            )
    return SweepSpec(parameter=short, values=tuple(values))


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed scenario object, reporting the first bad field."""
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    _reject_unknown(data, _names(ScenarioConfig), "")
    topology = _section(TopologySpec, _require(data, "topology", ""), "topology", _int_field)
    links = _section(TierLinks, _require(data, "links", ""), "links", _link_field)
    energy = _section(EnergyModel, _require(data, "energy", ""), "energy", _nonneg_number)
    ledgers = _ledgers(data["ledgers"]) if "ledgers" in data else {}
    sweep = _sweep(data["sweep"]) if "sweep" in data else None
    seed = data.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioValidationError("seed", "must be present and an integer")
    mode = data.get("mode")
    if mode not in MODES:
        raise ScenarioValidationError("mode", f"must be one of {MODES}, got {mode!r}")
    return ScenarioConfig(
        topology=topology,
        links=links,
        energy=energy,
        ledgers=ledgers,
        sweep=sweep,
        seed=seed,
        mode=mode,
    )


def _plain(obj) -> dict:
    """A dataclass or dict as a JSON object: nested ones likewise, tuples as
    lists. Shallow vars() rather than dataclasses.asdict, which deep-copies
    every leaf and costs ten times as much here."""
    data = {}
    for key, value in (obj if isinstance(obj, dict) else vars(obj)).items():
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
