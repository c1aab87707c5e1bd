import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcplane import runner
from qcplane.cli import main
from qcplane.scaling import TopologySpec, scaling_table

REPO = Path(__file__).resolve().parent.parent
PAPER_EXAMPLE = REPO / "scenarios" / "paper_example.json"
DESK_EXAMPLE = REPO / "scenarios" / "desk_example.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_csv_table(self, tmp_path, capsys):
        vec = tmp_path / "vec.json"
        vec.write_text("[3, 4]")
        code, out, _ = run_cli(capsys, "encode", "--input", str(vec))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,amplitude_real,amplitude_imag,probability"
        assert lines[1] == "0,0.6,0,0.36"
        assert lines[2] == "1,0.8,0,0.64"

    def test_line_format_input(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("3\n\n4\n")
        code, out, _ = run_cli(capsys, "encode", "--input", str(vec))
        assert code == 0
        assert "0.6" in out and "0.8" in out

    def test_json_output(self, tmp_path, capsys):
        vec = tmp_path / "vec.json"
        vec.write_text("[1, 1, 1]")
        code, out, _ = run_cli(capsys, "encode", "--input", str(vec), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_qubits"] == 2
        assert len(payload["amplitudes"]) == 4

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        vec = tmp_path / "vec.txt"
        vec.write_text("3\nnot-a-number\n")
        code, _, err = run_cli(capsys, "encode", "--input", str(vec))
        assert code == 2
        assert "not a number" in err

    def test_zero_vector_exits_3(self, tmp_path, capsys):
        vec = tmp_path / "vec.json"
        vec.write_text("[0, 0]")
        code, out, err = run_cli(capsys, "encode", "--input", str(vec))
        assert (code, out, err) == (3, "", "error: cannot encode a zero vector\n")

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "encode", "--input", str(tmp_path / "absent.json"))
        assert code == 4


class TestJoin:
    def test_json_array_of_arrays(self, tmp_path, capsys):
        vecs = tmp_path / "vectors.json"
        vecs.write_text("[[1, 0], [0, 1]]")
        code, out, _ = run_cli(capsys, "join", "--input", str(vecs), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_sources"] == 2
        assert payload["data_qubits"] == 1
        assert payload["address_qubits"] == 1
        amps = payload["amplitudes"]
        assert amps[0][0] == pytest.approx(2**-0.5)
        assert amps[3][0] == pytest.approx(2**-0.5)

    def test_line_format_and_uniform_mode(self, tmp_path, capsys):
        vecs = tmp_path / "vectors.txt"
        vecs.write_text("3 4\n1 0\n")
        code, out, _ = run_cli(
            capsys, "join", "--input", str(vecs), "--weight-mode", "uniform"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,address,data_index,amplitude_real,amplitude_imag,probability"
        assert len(lines) == 5

    def test_zero_vector_is_an_empty_branch_unless_uniform(self, tmp_path, capsys):
        vecs = tmp_path / "vectors.txt"
        vecs.write_text("0 0\n3 4\n")
        code, out, err = run_cli(capsys, "join", "--input", str(vecs))
        assert (code, err) == (0, "")
        assert out.splitlines()[1:3] == ["0,0,0,0,0,0", "1,0,1,0,0,0"]
        code, out, err = run_cli(capsys, "join", "--input", str(vecs), "--weight-mode", "uniform")
        assert (code, out, err) == (3, "", "error: cannot encode a zero vector\n")

    def test_empty_vectors_exit_3(self, tmp_path, capsys):
        vecs = tmp_path / "vectors.json"
        vecs.write_text("[[], []]")
        code, out, err = run_cli(capsys, "join", "--input", str(vecs))
        assert (code, out, err) == (3, "", "error: cannot encode an empty vector\n")

    def test_mixed_lengths_exit_3(self, tmp_path, capsys):
        vecs = tmp_path / "vectors.json"
        vecs.write_text("[[1, 0], [1, 2, 3]]")
        code, out, err = run_cli(capsys, "join", "--input", str(vecs))
        err_want = "error: all joined vectors must have equal length; vector 1 has 3, vector 0 has 2\n"
        assert (code, out, err) == (3, "", err_want)


@pytest.mark.parametrize("command,text,want", [
    ("encode", "1e300\n-1e300\n", [2**-0.5, -(2**-0.5)]),
    ("encode", "1e-200\n1e-200\n", [2**-0.5, 2**-0.5]),
    ("join", "1e300 -1e300\n3e300 4e300\n", [x / 27**0.5 for x in (1, -1, 3, 4)]),
    ("join", "1e-200 1e-200\n3e-200 4e-200\n", [x / 27**0.5 for x in (1, 1, 3, 4)]),
])
def test_sum_of_squares_out_of_float_range_encodes(tmp_path, capsys, command, text, want):
    path = tmp_path / "v.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--input", str(path), "--format", "json")
    assert (code, err) == (0, "")
    got = [re for re, _ in json.loads(out)["amplitudes"]]
    assert got == pytest.approx(want, abs=1e-12)


SIGNED_ENTRIES = ["-3", "0", "4", "-0.0", "1e300", "-1e-300", "-7"]


@pytest.mark.parametrize("argv,text", [
    (("encode",), "\n".join(SIGNED_ENTRIES)),
    (("join", "--weight-mode", "uniform"), " ".join(SIGNED_ENTRIES) + "\n2 0 -5 0 -0.0 1 -1\n"),
    (("join", "--weight-mode", "norm_proportional"), " ".join(SIGNED_ENTRIES) + "\n-1 0 0 -2 0 1 3\n"),
], ids=["encode", "join-uniform", "join-norm"])
def test_imaginary_column_is_zero_on_every_row(tmp_path, capsys, argv, text):
    # Amplitudes are real: the column stays only to keep the table's format.
    path = tmp_path / "v.txt"
    path.write_text(text)
    _, out, _ = run_cli(capsys, *argv, "--input", str(path), "--format", "csv")
    lines = out.splitlines()
    imag = lines[0].split(",").index("amplitude_imag")
    assert len(lines) > 1
    assert all(line.split(",")[imag] == "0" for line in lines[1:])
    _, out, _ = run_cli(capsys, *argv, "--input", str(path), "--format", "json")
    amplitudes = json.loads(out)["amplitudes"]
    assert any(re < 0 for re, _ in amplitudes)
    assert all(im == 0.0 and math.copysign(1.0, im) == 1.0 for _, im in amplitudes)


# (JSON token, as the error shows it): Python's json reads 1e999 and an
# integer beyond the float range as overflowing numbers.
JSON_NON_FINITE = [("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
                   ("1e999", "Infinity"), ("1" + "0" * 400, "Infinity")]
LINE_NON_FINITE = ["NaN", "nan", "inf", "-Infinity", "1e999"]
# (command, file name, text with the entry at {}, where the error says it is)
VECTOR_FILES = {
    "json": [("encode", "v.json", "[1, {}, 2]", "[1]"), ("join", "s.json", "[[1, 2], [3, {}]]", "[1][1]")],
    "lines": [("encode", "v.txt", "1\n\n{}\n2\n", ":3"), ("join", "s.txt", "1 2\n3 {}\n", ":2")],
}


@pytest.mark.parametrize("command,name,text,where,token,shown", [
    *(file + pair for file in VECTOR_FILES["json"] for pair in JSON_NON_FINITE),
    *(file + (token, token) for file in VECTOR_FILES["lines"] for token in LINE_NON_FINITE),
])
def test_non_finite_vector_entry_exits_3_naming_it(tmp_path, capsys, command, name, text, where,
                                                    token, shown):
    path = tmp_path / name
    path.write_text(text.format(token))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 3
    assert out == ""
    assert err == f"error: {path}{where}: vector entries must be finite, got {shown}\n"


@pytest.mark.parametrize("command,text,message", [
    ("encode", "[1, 2", "{path}: Expecting ',' delimiter: line 1 column 6 (char 5)"),
    ("encode", "[1, null]", "{path}[1]: not a number: None"),
    ("join", "[[1], 2]", "{path}: expected a JSON array of arrays"),
], ids=["not-json", "null-entry", "row-not-an-array"])
def test_malformed_vector_file_exits_2_naming_it(tmp_path, capsys, command, text, message):
    path = tmp_path / "vectors.json"
    path.write_text(text)
    want = (2, "", f"error: {message.format(path=path)}\n")
    assert run_cli(capsys, command, "--input", str(path)) == want


class TestScale:
    def test_geometric_sweep_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "scale", "--sweep", "K", "--from", "2", "--to", "1024",
            "--p", "2000", "--n", "1024",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sweep_param,sweep_value,classical_bits,quantum_qubits,ratio"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        base = TopologySpec(1024, 1, 2000)
        want = scaling_table(base, "K", [2**j for j in range(1, 11)])
        for row, ref in zip(rows, want):
            assert int(row[1]) == ref.sweep_value
            assert int(row[2]) == ref.classical_bits
            assert int(row[3]) == ref.quantum_qubits
        classical = [int(r[2]) for r in rows]
        quantum = [int(r[3]) for r in rows]
        assert all(b == 2 * a for a, b in zip(classical, classical[1:]))  # linear in K
        diffs = [b - a for a, b in zip(quantum, quantum[1:])]
        assert all(d == diffs[0] for d in diffs)  # affine in log2 K

    def test_explicit_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "scale", "--sweep", "P", "--values", "2,4,8", "--n", "2", "--k", "2"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_unknown_sweep_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "scale", "--sweep", "Q", "--values", "2")
        assert code == 3

    def test_missing_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "scale", "--sweep", "K", "--from", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--from", "0"), ("--from", "-1"), ("--values", "0"), ("--values", "-1")],
        ids=["0", "-1", "values0", "values-1"],
    )
    def test_from_below_one_exits_2_naming_it(self, flag, value):
        # A start below 1 never grows geometrically, and a listed value below
        # 1 is no topology. Run it in a child with a time limit and a 1 GiB
        # address-space cap, so an endless sweep fails this test instead of
        # hanging the suite or filling memory.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run(
            [sys.executable, "-m", "qcplane", "scale", "--sweep", "K", flag, value, "--to", "8"],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"error: {flag} must be >= 1, got {value}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--values", "2,x"],
         "--values must be comma-separated integers: invalid literal for int() with base 10: 'x'"),
        (["--from", "16", "--to", "8"], "--from/--to/--factor yield an empty sweep"),
    ], ids=["values-not-integers", "empty-range"])
    def test_malformed_sweep_exits_2(self, capsys, flags, message):
        assert run_cli(capsys, "scale", "--sweep", "K", *flags) == (2, "", f"error: {message}\n")

    def test_factor_below_two_exits_2_naming_it(self, capsys):
        code, out, err = run_cli(capsys, "scale", "--sweep", "K", "--from", "1", "--to", "8", "--factor", "1")
        assert (code, out, err) == (2, "", "error: --factor must be >= 2, got 1\n")

    def test_byte_identical_output(self, tmp_path, capsys):
        argv = ["scale", "--sweep", "P", "--values", "2,64,2000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_both_modes_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--config", str(DESK_EXAMPLE))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("classical,")
        assert lines[2].startswith("quantum,")

    def test_mode_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(DESK_EXAMPLE), "--mode", "quantum",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["quantum"]
        assert payload["quantum"]["loads"]["unit"] == "qubits"


class TestBalance:
    def test_plan_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "balance", "--cbits", "0", "--qubits", "10", "--ebits", "10",
            "--classical-capacity", "100", "--quantum-capacity", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",")[:5] == ["9", "0", "9", "18", "1"]

    def test_infeasible_exits_5(self, capsys):
        code, _, err = run_cli(
            capsys, "balance", "--cbits", "100", "--qubits", "100", "--ebits", "0",
            "--classical-capacity", "10", "--quantum-capacity", "10",
        )
        assert code == 5
        assert "exceeds both" in err


@pytest.mark.parametrize(
    "argv,err",
    [
        (["balance", "--cbits", "-1", "--qubits", "1", "--ebits", "1",
          "--classical-capacity", "1", "--quantum-capacity", "1"],
         "error: invalid field cbits: must be >= 0, got -1\n"),
        (["balance", "--cbits", "1", "--qubits", "1", "--ebits", "1",
          "--classical-capacity", "0", "--quantum-capacity", "1"],
         "error: invalid field classical_capacity: must be >= 1, got 0\n"),
        (["scale", "--sweep", "K", "--values", "1,2", "--n", "0"],
         "error: invalid field num_controllers: must be >= 1, got 0\n"),
    ],
    ids=["cbits", "classical_capacity", "n"],
)
def test_bad_argument_exits_3_naming_its_field(capsys, argv, err):
    assert run_cli(capsys, *argv) == (3, "", err)


class TestSelftest:
    def test_text_report_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "selftest: PASS (5/5 checks)" in out
        for number in ("11", "31", "11264", "21504", "2048000", "2097152000", "181", "200"):
            assert number in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--format", "json")
        assert code == 0
        checks = json.loads(out)
        assert len(checks) == 5
        assert all(c["status"] == "PASS" for c in checks)

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(capsys, "selftest")
        _, second, _ = run_cli(capsys, "selftest")
        assert first == second

    def test_failing_check_exits_1_in_every_format(self, capsys, monkeypatch):
        monkeypatch.setattr(runner, "break_even_shots", lambda t: 180)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 1
        assert "[FAIL] leaf_break_even: largest R with 11*R <= 2000 is 180" in out
        assert out.count("[PASS]") == 4
        assert out.endswith("selftest: FAIL (4/5 checks)\n")
        code, out, _ = run_cli(capsys, "selftest", "--format", "csv")
        assert code == 1
        assert out.splitlines()[5].startswith("leaf_break_even,FAIL,")
        code, out, _ = run_cli(capsys, "selftest", "--format", "json")
        assert code == 1
        assert [c["status"] for c in json.loads(out)] == ["PASS"] * 4 + ["FAIL"]


class TestRun:
    def test_paper_example_report(self, tmp_path, capsys):
        outdir = tmp_path / "rep"
        code, out, _ = run_cli(capsys, "run", str(PAPER_EXAMPLE), "--output", str(outdir))
        assert code == 0
        loads = (outdir / "loads.csv").read_text().splitlines()
        assert loads[1] == "classical,2000,2048000,2048000,2097152000,0,bits"
        assert loads[2] == "quantum,11,11264,21,21504,31,qubits"
        report = json.loads((outdir / "report.json").read_text())
        assert report["results"]["quantum"]["loads"]["hypervisor_state_size"] == 31
        assert report["scenario"]["seed"] == 7
        assert "seed" not in report
        assert set(report["balance"]) == {"leaf", "mid"}

    def test_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "run", str(PAPER_EXAMPLE), "--output", str(a))[0] == 0
        assert run_cli(capsys, "run", str(PAPER_EXAMPLE), "--output", str(b))[0] == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_file_emitted(self, tmp_path, capsys):
        outdir = tmp_path / "rep"
        code, _, _ = run_cli(capsys, "run", str(DESK_EXAMPLE), "--output", str(outdir))
        assert code == 0
        sweep = (outdir / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "sweep_param,sweep_value,classical_bits,quantum_qubits,ratio"
        assert len(sweep) == 8

    def test_validation_error_names_field_and_writes_nothing(self, tmp_path, capsys):
        config = json.loads(PAPER_EXAMPLE.read_text())
        config["topology"]["params_per_switch"] = -5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        outdir = tmp_path / "rep"
        code, _, err = run_cli(capsys, "run", str(bad), "--output", str(outdir))
        assert code == 3
        assert "topology.params_per_switch" in err
        assert not outdir.exists()

    def test_infeasible_balance_leaves_no_reports(self, tmp_path, capsys):
        config = json.loads(PAPER_EXAMPLE.read_text())
        config["ledgers"] = {
            "leaf": {"ebits": 0, "classical_capacity": 1, "quantum_capacity": 1}
        }
        bad = tmp_path / "infeasible.json"
        bad.write_text(json.dumps(config))
        outdir = tmp_path / "rep"
        code, _, _ = run_cli(capsys, "run", str(bad), "--output", str(outdir))
        assert code == 5
        assert not outdir.exists()

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, _ = run_cli(capsys, "run", str(bad))
        assert code == 2

    def test_output_dir_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QCPLANE_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "run", str(PAPER_EXAMPLE), "--output", "nested/rep")
        assert code == 0
        assert (tmp_path / "nested" / "rep" / "loads.csv").exists()

    def test_empty_output_dir_env_is_unset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QCPLANE_OUTPUT_DIR", "")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "run", str(DESK_EXAMPLE))
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["reports"]
        assert out.splitlines()[0] == str(Path("reports") / "balance.csv")
        code, _, _ = run_cli(capsys, "selftest", "--output", "self.txt")
        assert code == 0
        assert (tmp_path / "self.txt").exists()

    def test_write_error_leaves_the_files_replaced_before_it_whole(self, tmp_path, capsys):
        # Files are replaced one at a time in name order: a directory where
        # latency.csv goes stops the run after balance.csv and energy.csv,
        # and loads.csv keeps its old bytes.
        outdir = tmp_path / "rep"
        (outdir / "latency.csv").mkdir(parents=True)
        (outdir / "balance.csv").write_text("old\n")
        (outdir / "loads.csv").write_text("old\n")
        code, out, err = run_cli(capsys, "run", str(DESK_EXAMPLE), "--output", str(outdir))
        assert (code, out, err) == (4, "", f"error: [Errno 21] Is a directory: '{outdir / 'latency.csv'}'\n")
        names = ["balance.csv", "energy.csv", "latency.csv", "loads.csv"]
        assert sorted(p.name for p in outdir.iterdir()) == names
        golden = REPO / "tests" / "golden" / "run-desk"
        for name in ("balance.csv", "energy.csv"):
            assert (outdir / name).read_bytes() == (golden / name).read_bytes()
        assert (outdir / "loads.csv").read_text() == "old\n"

    def test_no_temp_files_left_behind(self, tmp_path, capsys):
        outdir = tmp_path / "rep"
        run_cli(capsys, "run", str(PAPER_EXAMPLE), "--output", str(outdir))
        assert not [p for p in outdir.iterdir() if p.suffix == ".tmp"]


def test_output_flag_writes_file_atomically(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "scale", "--sweep", "K", "--values", "2,4", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("sweep_param,")


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestStandardJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", "--sweep", "K", "--values", "1", "--n", "1", "--k", "1", "--p", "1"],
            ["scale", "--sweep", "P", "--values", "1,2,2000", "--n", "3", "--k", "5"],
            ["simulate", "--config", str(PAPER_EXAMPLE)],
            ["simulate", "--config", str(DESK_EXAMPLE)],
            ["balance", "--cbits", "0", "--qubits", "10", "--ebits", "10",
             "--classical-capacity", "100", "--quantum-capacity", "5"],
            ["selftest"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_json_outputs_parse_strictly(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        _strict_json(out)

    def test_vector_outputs_parse_strictly(self, tmp_path, capsys):
        vec, vecs = tmp_path / "v.json", tmp_path / "s.json"
        vec.write_text("[1, 2, 3]")
        vecs.write_text("[[1, 2], [3, 4]]")
        for argv in (["encode", "--input", str(vec)], ["join", "--input", str(vecs)]):
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            _strict_json(out)

    def test_zero_quantum_ingest_ratio_is_the_inf_cell(self, capsys):
        argv = ["scale", "--sweep", "K", "--values", "1", "--n", "1", "--k", "1", "--p", "1"]
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *argv)
        assert _strict_json(out)[0]["ratio"] == "inf"
        assert csv_out.splitlines()[1].split(",")[-1] == "inf"

    @pytest.mark.parametrize("path", [PAPER_EXAMPLE, DESK_EXAMPLE], ids=lambda p: p.stem)
    def test_report_json_parses_strictly(self, tmp_path, capsys, path):
        assert run_cli(capsys, "run", str(path), "--output", str(tmp_path))[0] == 0
        _strict_json((tmp_path / "report.json").read_text())


NUMBER_FIELDS = [
    ("links", "leaf", "capacity"),
    ("links", "leaf", "q_capacity"),
    ("links", "mid", "length"),
    ("links", "mid", "per_message_processing"),
    ("energy", "per_bit_tx"),
    ("energy", "instructions_per_bit_processed"),
]


@given(field=st.sampled_from(NUMBER_FIELDS), token=st.sampled_from(["NaN", "Infinity", "-Infinity"]),
       command=st.sampled_from(["simulate", "run"]))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_non_finite_scenario_values_exit_3(tmp_path, capsys, field, token, command):
    data = json.loads(DESK_EXAMPLE.read_text())
    obj = data
    for key in field[:-1]:
        obj = obj[key]
    obj[field[-1]] = "__TOKEN__"
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(data).replace('"__TOKEN__"', token))
    outdir = tmp_path / f"rep-{token}"
    argv = ["simulate", "--config", str(bad)] if command == "simulate" else ["run", str(bad)]
    code, out, err = run_cli(capsys, *argv, "--output", str(outdir))
    assert code == 3
    assert ".".join(field) in err and token in err
    assert not outdir.exists()


OVERFLOWS = {
    "nan-energy": (
        {("energy", "per_bit_tx"): 0, ("energy", "bandwidth_scaling"): 1e300,
         ("links", "mid", "capacity"): 1e-10, ("links", "mid", "q_capacity"): 1e-10},
        "classical energy is nan: per_bit_tx * symbols_sent * (bandwidth_scaling / available bandwidth)"
        " + per_instruction * instructions = 0.0 * 1024 * (1e+300 / 1e-10) + 1e-10 * 2048.0",
    ),
    "inf-latency": (
        {("links", "leaf", "capacity"): 1e-306},
        "classical leaf link latency is inf: propagation + transmission + queuing + processing ="
        " 5000.0 / 200000000.0 + 64 / 1e-306 + 192 / 1e-306 + 1e-05",
    ),
    "inf-quantum-mid-latency": (
        {("links", "mid", "q_capacity"): 1e-307},
        "quantum mid link latency is inf: propagation + transmission + queuing + processing ="
        " 50000.0 / 200000000.0 + 10 / 1e-307 + 30 / 1e-307 + 1e-05",
    ),
    "inf-end-to-end": (
        {("links", "leaf", "capacity"): 2e-306, ("links", "mid", "capacity"): 1e-305},
        "classical end-to-end latency is inf: leaf + mid = 1.28e+308 + 1.024e+308",
    ),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
@pytest.mark.parametrize(
    "argv",
    [["simulate", "--config"], ["simulate", "--format", "json", "--config"], ["run"]],
    ids=["simulate-csv", "simulate-json", "run"],
)
def test_finite_scenario_whose_figures_overflow_exits_3(tmp_path, capsys, case, argv):
    # Every value is finite and valid, but a latency or the energy is not.
    changes, message = OVERFLOWS[case]
    data = json.loads(DESK_EXAMPLE.read_text())
    for path, value in changes.items():
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(data))
    outdir = tmp_path / "reports"
    code, out, err = run_cli(capsys, *argv, str(scenario), "--output", str(outdir))
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert not outdir.exists()


HUGE = 10**400


@pytest.mark.parametrize("argv,changes,message", [
    (["simulate", "--config"], {"num_controllers": HUGE}, "classical mid backlog"),
    (["run"], {"num_controllers": HUGE}, "classical mid backlog"),
    (["simulate", "--format", "json", "--config"], {"shots": 10**309}, "quantum leaf message_size"),
    # Both backlogs fit a float; the hypervisor's ingest of 1.8e308 bits does not.
    (["simulate", "--config"],
     {"num_controllers": 180, "switches_per_controller": 1, "params_per_switch": 10**306, "bits_per_param": 1},
     "classical hypervisor_ingest"),
    (["scale", "--sweep", "N", "--values", "1", "--p", str(HUGE)], None, "ratio at N = 1"),
    (["balance", "--cbits", str(HUGE), "--qubits", "1", "--ebits", "1",
      "--classical-capacity", "1", "--quantum-capacity", "1"], None, "utilization_classical"),
], ids=["simulate-controllers", "run-controllers", "simulate-shots", "simulate-ingest", "scale", "balance"])
def test_integer_too_large_for_a_float_exits_3(tmp_path, capsys, argv, changes, message):
    outdir = tmp_path / "reports"
    if changes is not None:
        data = json.loads(DESK_EXAMPLE.read_text())
        data["topology"].update(changes)
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps(data))
        argv = [*argv, str(scenario), "--output", str(outdir)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message} is too large for a float\n")
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["selftest", "--seed", "5"],
    ["scale", "--sweep", "K", "--values", "2", "--seed", "5"],
    ["simulate", "--config", str(DESK_EXAMPLE), "--seed", "5"],
    ["run", str(DESK_EXAMPLE), "--format", "json"],
    ["run", str(DESK_EXAMPLE), "--seed", "5"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_flags_that_change_nothing_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
