import json
from pathlib import Path

import pytest

from qcplane.config import load_scenario, scenario_from_dict, scenario_to_dict
from qcplane.runner import build_report_files

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


def test_bundled_scenarios_consume_ebits():
    # Replay would not show a debited ledger if no plan spent an ebit.
    for path in SCENARIOS:
        report = json.loads(build_report_files(load_scenario(path))["report.json"])
        assert any(o["ebits_consumed"] > 0 for o in report["balance"].values())
