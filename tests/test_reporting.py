import json
import math

import pytest

from qcplane.reporting import csv_text, format_cell, json_text, write_atomic


class TestFormatCell:
    def test_integers_verbatim(self):
        assert format_cell(2_097_152_000) == "2097152000"
        assert format_cell(0) == "0"
        assert format_cell(-7) == "-7"

    def test_reals_get_twelve_significant_digits(self):
        assert format_cell(1 / 3) == "0.333333333333"
        assert format_cell(0.0031) == "0.0031"
        assert format_cell(2.3068672) == "2.3068672"
        assert format_cell(1e-9) == "1e-09"

    def test_infinities(self):
        assert format_cell(math.inf) == "inf"
        assert format_cell(-math.inf) == "-inf"

    def test_booleans_rejected(self):
        with pytest.raises(TypeError):
            format_cell(True)


def test_csv_text_layout():
    text = csv_text(("a", "b"), [(1, 0.5), (2, 1.25)])
    assert text == "a,b\n1,0.5\n2,1.25\n"


def test_json_text_is_sorted_and_stable():
    assert json_text({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_json_text_writes_infinities_as_their_csv_cell():
    text = json_text({"ratio": math.inf, "rows": [(-math.inf, 1.5)]})
    assert json.loads(text, parse_constant=_reject) == {"ratio": "inf", "rows": [["-inf", 1.5]]}


def test_json_text_refuses_nan():
    with pytest.raises(ValueError):
        json_text({"energy_joules": math.nan})


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out" / "report.csv"
        write_atomic(target, "x,y\n1,2\n")
        assert target.read_text() == "x,y\n1,2\n"
        write_atomic(target, "x,y\n3,4\n")
        assert target.read_text() == "x,y\n3,4\n"

    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "report.csv"
        write_atomic(target, "data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
