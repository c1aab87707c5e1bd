import json
import math
import os
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcplane.reporting import csv_text, format_cell, json_text, write_atomic
from qcplane.scaling import Unit


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


def oracle_standard(obj):
    """`obj` with each infinite float as its CSV cell and tuples as lists:
    what the stdlib encoder is given."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {key: oracle_standard(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_standard(value) for value in obj]
    return obj


def oracle_json(obj) -> str:
    return json.dumps(oracle_standard(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


# Control characters, quotes, backslashes, non-ASCII and astral text.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028😀'), st.characters()), max_size=8)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf]),
    st.sampled_from(list(Unit)),
    TEXT,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    )


TREES = st.recursive(LEAVES, containers, max_leaves=40)
SIBLINGS = st.recursive(LEAVES, containers, max_leaves=6)


def holding(leaf):
    """Trees with `leaf` somewhere in them, at any depth."""
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(st.lists(SIBLINGS, max_size=2), inner, st.lists(SIBLINGS, max_size=2)).map(
                lambda t: [*t[0], t[1], *t[2]]
            ),
            st.tuples(st.dictionaries(TEXT, SIBLINGS, max_size=2), TEXT, inner).map(
                lambda t: {**t[0], t[1]: t[2]}
            ),
        ),
        max_leaves=4,
    )


class TestJsonTextAgainstTheStdlib:
    @given(TREES)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_json_dumps(self, tree):
        assert json_text(tree) == oracle_json(tree)

    @pytest.mark.parametrize(
        "tree",
        [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], 2**64 + 1, -(2**63) - 1,
         {"x": [-0.0, 5e-324, 1.7976931348623157e308, -math.inf]}, Unit.QUBITS,
         {"\x00\"\\é😀": "\u2028\x7f"}, None, True],
    )
    def test_edge_cases(self, tree):
        assert json_text(tree) == oracle_json(tree)

    @given(holding(st.just(math.nan)))
    @settings(max_examples=150, deadline=None)
    def test_nan_at_any_depth_is_refused(self, tree):
        with pytest.raises(ValueError, match="not JSON compliant: nan"):
            json_text(tree)

    @given(holding(st.dictionaries(st.one_of(st.integers(), st.floats(), st.none(), st.booleans()),
                                   SIBLINGS, min_size=1, max_size=3)))
    @settings(max_examples=150, deadline=None)
    def test_non_string_key_is_refused(self, tree):
        with pytest.raises(TypeError):
            json_text(tree)


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

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_new_and_replaced_files_get_the_umask_mode(self, tmp_path, umask):
        target = tmp_path / "report.json"
        old = os.umask(umask)
        try:
            write_atomic(target, "{}\n")
            new_mode = stat.S_IMODE(target.stat().st_mode)
            target.chmod(0o600)
            write_atomic(target, "[]\n")
            replaced_mode = stat.S_IMODE(target.stat().st_mode)
        finally:
            os.umask(old)
        assert new_mode == replaced_mode == 0o666 & ~umask

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        write_atomic(fifo, "x,y\n1,2\n")
        reader.join(timeout=10)
        assert received == ["x,y\n1,2\n"]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]

    def test_symlink_is_written_through(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_atomic(link, "new\n")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
