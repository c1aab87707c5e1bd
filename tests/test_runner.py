import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane.config import (
    ScenarioConfig,
    SweepSpec,
    TierLedgers,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from qcplane.exchange import ResourceLedger
from qcplane.netsim import EnergyModel, LinkSpec, TierLinks
from qcplane.runner import build_report_files
from qcplane.scaling import TopologySpec

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = [REPO / "scenarios" / "paper_example.json", REPO / "scenarios" / "desk_example.json"]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_same_config_builds_equal_files_twice(path):
    cfg = load_scenario(path)
    first = build_report_files(cfg)
    assert build_report_files(cfg) == first


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_recorded_scenario_replays_to_identical_files(path):
    files = build_report_files(load_scenario(path))
    recorded = json.loads(files["report.json"])["scenario"]
    assert build_report_files(scenario_from_dict(recorded)) == files


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_report_records_the_stock_as_given(path):
    cfg = load_scenario(path)
    given = scenario_to_dict(cfg)
    report = json.loads(build_report_files(cfg)["report.json"])
    assert report["scenario"] == given
    assert scenario_to_dict(cfg) == given
    for link, outcome in report["balance"].items():
        stock = given["ledgers"][link]["ebits"]
        assert outcome["ebits_remaining"] == stock - outcome["ebits_consumed"]


def test_python_built_scenario_replays_to_identical_files():
    # Integer link and energy figures are stored as the floats a scenario
    # file gives, so the recorded scenario is the one the reports came from.
    cfg = ScenarioConfig(
        topology=TopologySpec(4, 8, 50, bits_per_param=2),
        links=TierLinks(leaf=LinkSpec(1000, 1000, 200, per_message_processing=1),
                        mid=LinkSpec(10000, 10000, 2000, propagation_speed=200000000)),
        energy=EnergyModel(1, 0, 2, 1000),
        ledgers=TierLedgers(leaf=ResourceLedger(100, 400, 8)),
        sweep=SweepSpec("K", (2, 4)),
        seed=3,
        mode="both",
    )
    files = build_report_files(cfg)
    recorded = json.loads(files["report.json"])["scenario"]
    assert recorded == scenario_to_dict(cfg)
    assert build_report_files(scenario_from_dict(recorded)) == files


def test_bundled_scenarios_consume_ebits():
    # Replay would not show a debited ledger if no plan spent an ebit.
    for path in SCENARIOS:
        report = json.loads(build_report_files(load_scenario(path))["report.json"])
        assert any(o["ebits_consumed"] > 0 for o in report["balance"].values())


# --- generated scenarios ----------------------------------------------------
# Ranges follow the benchmark's scenario generator: desk- and paper-sized
# topologies, link and energy constants of the same magnitudes, optional
# ledgers (capacities and stocks up to 2**62) and sweeps.

def _link():
    return st.fixed_dictionaries(
        {"capacity": st.floats(1e3, 1e12), "q_capacity": st.floats(1e3, 1e12),
         "length": st.floats(1.0, 1e7)},
        optional={"propagation_speed": st.sampled_from([2.0e8, 1.5e8, 2.998e8]),
                  "per_message_processing": st.floats(1e-7, 1e-3)},
    )


def _topology(size):
    if size == "desk":
        ranges = {"num_controllers": (2, 8), "switches_per_controller": (2, 16),
                  "params_per_switch": (1, 64), "bits_per_param": (1, 8), "shots": (1, 4)}
    else:
        ranges = {"num_controllers": (512, 1024), "switches_per_controller": (512, 1024),
                  "params_per_switch": (1000, 2000), "bits_per_param": (1, 1), "shots": (1, 1)}
    ints = {name: st.integers(lo, hi) for name, (lo, hi) in ranges.items()}
    required = ("num_controllers", "switches_per_controller", "params_per_switch")
    return st.fixed_dictionaries({name: ints[name] for name in required},
                                 optional={name: ints[name] for name in ("bits_per_param", "shots")})


@st.composite
def _ledger(draw):
    # A plane whose capacity exceeds any generated demand twice over can
    # take every conversion, so the plan is always feasible.
    roomy = st.integers(2**40, 2**62)
    any_capacity = st.integers(1, 2**62)
    classical, quantum = (roomy, any_capacity) if draw(st.booleans()) else (any_capacity, roomy)
    return {"ebits": draw(st.integers(0, 2**62)), "classical_capacity": draw(classical),
            "quantum_capacity": draw(quantum)}


@st.composite
def scenario_dicts(draw):
    data = {
        "topology": draw(st.sampled_from(["desk", "paper"]).flatmap(_topology)),
        "links": {"leaf": draw(_link()), "mid": draw(_link())},
        "energy": draw(st.fixed_dictionaries(
            {"per_bit_tx": st.floats(0.0, 1e-8), "per_instruction": st.floats(0.0, 1e-9),
             "instructions_per_bit_processed": st.floats(0.0, 8.0),
             "bandwidth_scaling": st.floats(1e5, 1e9)})),
        "seed": draw(st.integers(-2**63, 2**63)),
        "mode": draw(st.sampled_from(["classical", "quantum", "both"])),
    }
    # No ledgers key, `"ledgers": {}`, or ledgers on any subset of the links.
    links = draw(st.lists(st.sampled_from(["leaf", "mid"]), max_size=2, unique=True))
    if links or draw(st.booleans()):
        data["ledgers"] = {link: draw(_ledger()) for link in links}
    if draw(st.booleans()):
        data["sweep"] = {
            "parameter": draw(st.sampled_from(["N", "K", "P", "R", "k", "switches_per_controller"])),
            "values": draw(st.lists(st.integers(1, 2**20), min_size=1, max_size=6)),
        }
    return data


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@given(scenario_dicts())
@settings(max_examples=150, deadline=None)
def test_generated_scenarios_round_trip_and_replay(data):
    cfg = scenario_from_dict(data)
    recorded = scenario_to_dict(cfg)
    assert ("ledgers" in recorded) == bool(data.get("ledgers"))
    assert scenario_from_dict(recorded) == cfg
    files = build_report_files(cfg)
    report = _strict_json(files["report.json"])
    assert report["scenario"] == recorded
    assert build_report_files(scenario_from_dict(report["scenario"])) == files
