"""
Golden outputs of every subcommand, compared byte for byte.

Each case is one command line. Its exit code and stderr are stored in
tests/golden/status.json, its stdout in tests/golden/<case>.stdout and,
for `run`, every report file under tests/golden/<case>/. The only
normalisation is the report directory that `run` prints, which becomes
"<out>". After a deliberate output change, regenerate with

    python tests/test_golden.py

and list the change in CHANGES.md.

Every case but `encode` and `join` also runs in a child process in which
numpy cannot be imported, and must give the same bytes there: the
accounting path never loads numpy.

tests/golden/scenario-diagnostics.json holds the scenario validator's
verdict on a seeded sample of mutated scenarios: for each, the field and
message it is refused with, or the scenario it reads as.
"""
import contextlib
import copy
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
INPUTS = GOLDEN / "inputs"
PAPER = str(REPO / "scenarios" / "paper_example.json")
DESK = str(REPO / "scenarios" / "desk_example.json")
OUT = "<out>"
# Runs `qcplane argv` with every import of numpy failing.
NO_NUMPY = "import sys; sys.modules['numpy'] = None; from qcplane.cli import main; sys.exit(main(sys.argv[1:]))"

BASE = {
    "encode-json": ["encode", "--input", str(INPUTS / "vector.json")],
    "encode-lines": ["encode", "--input", str(INPUTS / "vector.txt")],
    "join-json": ["join", "--input", str(INPUTS / "vectors.json")],
    "join-json-uniform": ["join", "--input", str(INPUTS / "vectors.json"), "--weight-mode", "uniform"],
    "join-lines": ["join", "--input", str(INPUTS / "vectors.txt")],
    "join-lines-uniform": ["join", "--input", str(INPUTS / "vectors.txt"), "--weight-mode", "uniform"],
    "join-underflow": ["join", "--input", str(INPUTS / "underflow.txt")],
    "scale-range": ["scale", "--sweep", "K", "--from", "2", "--to", "1024",
                    "--n", "1024", "--k", "1024", "--p", "2000"],
    "scale-values": ["scale", "--sweep", "P", "--values", "1,2,2000", "--n", "3", "--k", "5",
                     "--b", "8", "--r", "4"],
    "scale-inf": ["scale", "--sweep", "K", "--values", "1", "--n", "1", "--k", "1", "--p", "1"],
    "simulate-paper": ["simulate", "--config", PAPER],
    "simulate-desk": ["simulate", "--config", DESK],
    "simulate-desk-quantum": ["simulate", "--config", DESK, "--mode", "quantum"],
    "balance-teleport": ["balance", "--cbits", "0", "--qubits", "10", "--ebits", "10",
                         "--classical-capacity", "100", "--quantum-capacity", "5"],
    "balance-densecode": ["balance", "--cbits", "4000", "--qubits", "3", "--ebits", "700",
                          "--classical-capacity", "1000", "--quantum-capacity", "900"],
    "balance-exact-large": ["balance", "--cbits", "793609980027828", "--qubits", "1497220575556488",
                            "--ebits", "4452153678461977", "--classical-capacity", "4375184993185336",
                            "--quantum-capacity", "1428382789477268"],
    "balance-infeasible": ["balance", "--cbits", "100", "--qubits", "100", "--ebits", "0",
                           "--classical-capacity", "10", "--quantum-capacity", "10"],
    "selftest": ["selftest"],
}
CASES = {
    **{f"{name}-{fmt}": argv + ["--format", fmt] for name, argv in BASE.items() for fmt in ("csv", "json")},
    "selftest-text": ["selftest"],
    "run-paper": ["run", PAPER, "--output", OUT],
    "run-desk": ["run", DESK, "--output", OUT],
}


DIAGNOSTICS = GOLDEN / "scenario-diagnostics.json"
# A leaf is set to one of these; the strings in TOKENS go into the file as
# bare JSON tokens, which Python's json reads as non-finite floats.
LEAF_VALUES = [None, True, "x", -1, 0, 1.5, [], {}, "NaN", "Infinity", "1e999"]
TOKENS = ("NaN", "Infinity", "1e999")


def _locations(obj, path=""):
    """(dotted path, container, key) of every entry under obj, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}".lstrip(".")
        yield where, obj, key
        if isinstance(value, (dict, list)):
            yield from _locations(value, where)


def scenario_mutations(count: int = 300, seed: int = 19):
    """(base, mutation, scenario text): `count` seeded single mutations of
    the minimal test scenario and the two bundled ones. Each drops a key,
    adds an unknown key or sets a leaf to one of LEAF_VALUES."""
    from test_config import minimal_scenario

    bases = {
        "minimal": minimal_scenario(),
        "paper": json.loads(Path(PAPER).read_text(encoding="utf-8")),
        "desk": json.loads(Path(DESK).read_text(encoding="utf-8")),
    }
    rng = random.Random(seed)
    for _ in range(count):
        base = rng.choice(sorted(bases))
        data = copy.deepcopy(bases[base])
        entries = list(_locations(data))
        kind = rng.choice(["drop", "add", "set"])
        if kind == "drop":
            where, parent, key = rng.choice([e for e in entries if isinstance(e[1], dict)])
            del parent[key]
            mutation = f"drop {where}"
        elif kind == "add":
            sections = [("", data)] + [(w, p[k]) for w, p, k in entries if isinstance(p[k], dict)]
            where, section = rng.choice(sections)
            section["extra"] = 1
            mutation = f"add {where + '.' if where else ''}extra"
        else:
            where, parent, key = rng.choice([e for e in entries if not isinstance(e[1][e[2]], (dict, list))])
            value = rng.choice(LEAF_VALUES)
            parent[key] = value
            mutation = f"set {where} = {value if value in TOKENS else json.dumps(value)}"
        text = json.dumps(data)
        for token in TOKENS:
            text = text.replace(f'"{token}"', token)
        yield base, mutation, text


def scenario_diagnostics() -> str:
    """The verdict on every mutation, one JSON object a line in one array."""
    from qcplane.config import scenario_from_dict, scenario_to_dict
    from qcplane.scaling import FieldError

    records = []
    for base, mutation, text in scenario_mutations():
        record = {"base": base, "mutation": mutation}
        try:
            record["scenario"] = scenario_to_dict(scenario_from_dict(json.loads(text)))
        except FieldError as exc:
            record.update(field=exc.field, error=str(exc))
        records.append(json.dumps(record, sort_keys=True, allow_nan=False))
    return "[\n" + ",\n".join(records) + "\n]\n"


def execute(argv: list[str], outdir: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout and stderr of `qcplane argv`, and the files it wrote
    to `outdir` (where "<out>" in argv points)."""
    from qcplane.cli import main

    out, err = io.StringIO(), io.StringIO()
    argv = [str(outdir) if arg == OUT else arg for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().replace(str(outdir), OUT), err.getvalue(), written(outdir)


def execute_without_numpy(argv: list[str], outdir: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """As `execute`, in a child process where numpy cannot be imported."""
    argv = [str(outdir) if arg == OUT else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, *argv],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, timeout=60,
    )
    stdout = proc.stdout.decode("utf-8").replace(str(outdir), OUT)
    return proc.returncode, stdout, proc.stderr.decode("utf-8"), written(outdir)


def written(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())} if outdir.exists() else {}


@pytest.fixture(scope="module")
def status():
    return json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))


def assert_golden(case, status, code, stdout, stderr, files):
    assert {"exit": code, "stderr": stderr} == status[case]
    assert stdout.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()
    want = written(GOLDEN / case)
    assert sorted(files) == sorted(want)
    for name in want:
        assert files[name] == want[name], name


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, status, tmp_path):
    assert_golden(case, status, *execute(CASES[case], tmp_path / "out"))


@pytest.mark.parametrize("case", sorted(c for c in CASES if not c.startswith(("encode", "join"))))
def test_accounting_case_matches_golden_without_numpy(case, status, tmp_path):
    assert_golden(case, status, *execute_without_numpy(CASES[case], tmp_path / "out"))


@pytest.mark.parametrize("case", ["encode-json-csv", "join-json-csv"])
def test_statevector_cases_need_numpy(case, tmp_path):
    # The other side of the probe: a subcommand that does use numpy fails in it.
    code, stdout, stderr, _ = execute_without_numpy(CASES[case], tmp_path / "out")
    assert code != 0 and stdout == ""
    assert "ModuleNotFoundError: import of numpy halted" in stderr


def test_scenario_diagnostics_match_golden():
    assert scenario_diagnostics().encode("utf-8") == DIAGNOSTICS.read_bytes()


def test_every_golden_file_belongs_to_a_case():
    names = {p.name for p in GOLDEN.iterdir()} - {"inputs", "status.json", DIAGNOSTICS.name}
    expected = {f"{case}.stdout" for case in CASES} | {c for c in CASES if c.startswith("run-")}
    assert names == expected


def regenerate() -> None:
    status = {}
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, stderr, files = execute(argv, Path(tmp) / "out")
        status[case] = {"exit": code, "stderr": stderr}
        (GOLDEN / f"{case}.stdout").write_bytes(stdout.encode("utf-8"))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        if files:
            (GOLDEN / case).mkdir()
            for name, data in files.items():
                (GOLDEN / case / name).write_bytes(data)
    (GOLDEN / "status.json").write_text(json.dumps(status, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    DIAGNOSTICS.write_text(scenario_diagnostics(), encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    regenerate()
