import json
import math
from pathlib import Path

import pytest

from qcplane.config import (
    ParseError,
    ScenarioConfig,
    SweepSpec,
    TierLedgers,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from qcplane.exchange import ResourceLedger
from qcplane.netsim import LinkSpec, TierLinks
from qcplane.scaling import FieldError, TopologySpec, schema

REPO = Path(__file__).resolve().parent.parent
PAPER_EXAMPLE = REPO / "scenarios" / "paper_example.json"
DESK_EXAMPLE = REPO / "scenarios" / "desk_example.json"
# A field left out of a constructor call.
ABSENT = object()


def minimal_scenario() -> dict:
    return {
        "topology": {
            "num_controllers": 2,
            "switches_per_controller": 3,
            "params_per_switch": 50,
        },
        "links": {
            "leaf": {"capacity": 1e6, "q_capacity": 1e6, "length": 1e3},
            "mid": {"capacity": 1e7, "q_capacity": 1e7, "length": 1e4},
        },
        "energy": {
            "per_bit_tx": 1e-9,
            "per_instruction": 1e-10,
            "instructions_per_bit_processed": 1.0,
            "bandwidth_scaling": 1e7,
        },
        "seed": 0,
        "mode": "both",
    }


class TestValidation:
    def test_bundled_scenarios_validate(self):
        for path in (PAPER_EXAMPLE, DESK_EXAMPLE):
            cfg = load_scenario(path)
            assert cfg.mode == "both"

    def test_minimal_scenario_fills_defaults(self):
        cfg = scenario_from_dict(minimal_scenario())
        assert cfg.topology.bits_per_param == TopologySpec.bits_per_param == 1
        assert cfg.topology.shots == TopologySpec.shots == 1
        for link in (cfg.links.leaf, cfg.links.mid):
            assert link.propagation_speed == LinkSpec.propagation_speed == 2e8
            assert link.per_message_processing == LinkSpec.per_message_processing == 1e-6
        assert cfg.ledgers == TierLedgers()
        assert cfg.sweep is None

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("topology"), "topology: missing required field"),
            (lambda d: d["topology"].pop("params_per_switch"),
             "topology.params_per_switch: missing required field"),
            (lambda d: d["topology"].update(params_per_switch=0),
             "topology.params_per_switch: must be >= 1, got 0"),
            (lambda d: d["topology"].update(shots="many"),
             "topology.shots: must be an integer, got 'many'"),
            (lambda d: d["links"].pop("mid"), "links.mid: missing required field"),
            (lambda d: d["links"]["leaf"].update(capacity=-1),
             "links.leaf.capacity: must be > 0, got -1"),
            (lambda d: d["energy"].update(per_bit_tx=-2), "energy.per_bit_tx: must be >= 0, got -2"),
            (lambda d: d.update(seed="zero"), "seed: must be present and an integer"),
            (lambda d: d.pop("seed"), "seed: must be present and an integer"),
            (lambda d: d.update(mode="fancy"),
             "mode: must be one of ('classical', 'quantum', 'both'), got 'fancy'"),
            (lambda d: d.update(unexpected=1), "unexpected: unknown field"),
            (lambda d: d["topology"].update(extra=2), "topology.extra: unknown field"),
            (lambda d: d["links"].update(leaf=[1]), "links.leaf: must be an object"),
            (lambda d: d["links"]["mid"].update(speed=3e8), "links.mid.speed: unknown field"),
            (lambda d: d["energy"].pop("bandwidth_scaling"),
             "energy.bandwidth_scaling: missing required field"),
            (lambda d: d.update(ledgers={"mid": 5}), "ledgers.mid: must be an object"),
            (lambda d: d.update(ledgers={"mid": {"ebits": 1, "classical_capacity": 2,
                                                 "quantum_capacity": 0}}),
             "ledgers.mid.quantum_capacity: must be >= 1, got 0"),
        ],
        ids=lambda v: v.split(": ")[0] if isinstance(v, str) else None,
    )
    def test_first_invalid_field_is_named(self, mutate, message):
        data = minimal_scenario()
        mutate(data)
        with pytest.raises(FieldError) as exc_info:
            scenario_from_dict(data)
        assert str(exc_info.value) == message
        assert exc_info.value.field == message.split(": ")[0]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "section,field",
        [("links.leaf", "capacity"), ("links.mid", "q_capacity"), ("energy", "per_bit_tx"),
         ("energy", "bandwidth_scaling")],
    )
    def test_non_finite_numbers_rejected(self, section, field, value):
        data = minimal_scenario()
        obj = data
        for key in section.split("."):
            obj = obj[key]
        obj[field] = value
        with pytest.raises(FieldError) as exc_info:
            scenario_from_dict(data)
        assert exc_info.value.field == f"{section}.{field}"
        assert json.dumps(value) in str(exc_info.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "where,place",
        [
            ("topology.shots", lambda d: (d["topology"], "shots")),
            ("ledgers.leaf.ebits", lambda d: (d["ledgers"]["leaf"], "ebits")),
            ("sweep.values[1]", lambda d: (d["sweep"]["values"], 1)),
            ("mode", lambda d: (d, "mode")),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_non_finite_values_are_shown_as_their_json_token(self, where, place, value):
        # Integer, list-item and choice fields show a non-finite value as
        # the real fields do: as the token a scenario file would hold.
        data = minimal_scenario()
        data["ledgers"] = {"leaf": {"ebits": 1, "classical_capacity": 2, "quantum_capacity": 2}}
        data["sweep"] = {"parameter": "K", "values": [1, 2]}
        obj, key = place(data)
        obj[key] = value
        with pytest.raises(FieldError) as exc_info:
            scenario_from_dict(data)
        assert exc_info.value.field == where
        assert str(exc_info.value).endswith(f", got {json.dumps(value)}")

    def test_non_finite_section_is_shown_as_its_json_token(self):
        with pytest.raises(FieldError) as exc_info:
            TierLinks(leaf=math.inf, mid=LinkSpec(1.0, 1.0, 1.0))
        assert str(exc_info.value) == "leaf: must be a LinkSpec, got Infinity"

    @pytest.mark.parametrize(
        "token", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400], ids=lambda t: t[:9]
    )
    def test_non_finite_tokens_in_a_file_rejected(self, tmp_path, token):
        text = json.dumps(minimal_scenario()).replace('"per_instruction": 1e-10', f'"per_instruction": {token}')
        assert f'"per_instruction": {token}' in text
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(FieldError) as exc_info:
            load_scenario(bad)
        assert exc_info.value.field == "energy.per_instruction"

    def test_ledger_validation(self):
        data = minimal_scenario()
        data["ledgers"] = {"leaf": {"ebits": -1, "classical_capacity": 2, "quantum_capacity": 2}}
        with pytest.raises(FieldError) as exc_info:
            scenario_from_dict(data)
        assert exc_info.value.field == "ledgers.leaf.ebits"

    def test_sweep_validation(self):
        data = minimal_scenario()
        data["sweep"] = {"parameter": "Z", "values": [1]}
        with pytest.raises(FieldError) as exc_info:
            scenario_from_dict(data)
        assert exc_info.value.field == "sweep.parameter"
        data["sweep"] = {"parameter": "K", "values": [2, 0]}
        with pytest.raises(FieldError) as exc_info:
            scenario_from_dict(data)
        assert exc_info.value.field == "sweep.values[1]"

    def test_sweep_built_in_python_is_held_to_the_same_contract(self):
        assert SweepSpec("switches_per_controller", [2, 4]) == SweepSpec("K", (2, 4))
        with pytest.raises(FieldError) as exc_info:
            SweepSpec("K", [2, True])
        assert str(exc_info.value) == "values[1]: must be an integer >= 1, got True"

    @pytest.mark.parametrize("args, field, message", [
        ((3, [2]), "parameter", "must be a string"),
        (("K", []), "values", "must be a non-empty list"),
    ], ids=["parameter-not-a-string", "no-values"])
    def test_sweep_of_the_wrong_shape_names_its_field(self, args, field, message):
        with pytest.raises(FieldError) as exc_info:
            SweepSpec(*args)
        assert (exc_info.value.field, str(exc_info.value)) == (field, f"{field}: {message}")

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda: {"seed": True}, "seed: must be present and an integer"),
            (lambda: {"seed": 1.5}, "seed: must be present and an integer"),
            (lambda: {"ledgers": {"leaf": ResourceLedger(1, 2, 2)}},
             "ledgers: must be a TierLedgers, got {'leaf': ResourceLedger(ebits=1, "
             "classical_capacity=2, quantum_capacity=2)}"),
            (lambda: {"ledgers": TierLedgers(leaf=ResourceLedger(1, 2, 2), mid=5)},
             "mid: must be a ResourceLedger, got 5"),
            (lambda: {"mode": "bogus"},
             "mode: must be one of ('classical', 'quantum', 'both'), got 'bogus'"),
            (lambda: {"seed": ABSENT}, "seed: must be present and an integer"),
            (lambda: {"mode": ABSENT}, "mode: must be one of ('classical', 'quantum', 'both'), got None"),
        ],
        ids=["seed-bool", "seed-float", "ledgers-dict", "ledgers-non-ledger", "mode-bogus",
             "seed-absent", "mode-absent"],
    )
    def test_scenario_built_in_python_is_held_to_the_file_contract(self, change, message):
        # Each of these would build reports whose recorded scenario the file
        # reader refuses with the same message.
        given = vars(load_scenario(DESK_EXAMPLE))
        with pytest.raises(FieldError) as exc_info:
            given = {**given, **change()}
            ScenarioConfig(**{name: value for name, value in given.items() if value is not ABSENT})
        assert str(exc_info.value) == message

    def test_ledgers_and_links_name_the_same_links(self):
        # A ledger can only be held for a link the scenario has.
        assert list(schema(TierLedgers)) == list(schema(TierLinks))

    def test_malformed_json_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_scenario(bad)

    def test_non_object_json_is_parse_error(self):
        with pytest.raises(ParseError):
            scenario_from_dict([1, 2, 3])

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "absent.json")


class TestRoundTrip:
    @pytest.mark.parametrize("path", [PAPER_EXAMPLE, DESK_EXAMPLE])
    def test_serialize_parse_fixpoint(self, path):
        cfg = load_scenario(path)
        data = scenario_to_dict(cfg)
        again = scenario_from_dict(json.loads(json.dumps(data)))
        assert scenario_to_dict(again) == data

    def test_round_trip_preserves_semantics(self):
        cfg = scenario_from_dict(minimal_scenario())
        again = scenario_from_dict(scenario_to_dict(cfg))
        assert again.topology == cfg.topology
        assert again.links == cfg.links
        assert again.energy == cfg.energy
        assert again.seed == cfg.seed and again.mode == cfg.mode
