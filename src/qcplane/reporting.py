"""
Deterministic report serialization.

CSV cells: integers verbatim, reals with 12 significant digits, "." as the
decimal separator regardless of locale. JSON is standard (RFC 8259): an
infinite value is written as the string "inf" or "-inf", like its CSV
cell, and NaN is refused. A report file is written to a temporary name in
the target directory and renamed into place, so readers never see a
half-written report and a failed run leaves nothing behind.
"""
from __future__ import annotations

import json
import math
import os
import stat
from pathlib import Path
from typing import Iterable, Sequence


def format_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean report cells are ambiguous; use 0/1 or a label")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".12g")
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def table_csv(records: Sequence[dict]) -> str:
    """CSV of one or more records with the same keys: the keys are the header."""
    return csv_text(list(records[0]), [record.values() for record in records])


def _standard(obj):
    """Infinite floats as their CSV cell ("inf"), since RFC 8259 JSON has none."""
    if isinstance(obj, float) and math.isinf(obj):
        return format_cell(obj)
    if isinstance(obj, dict):
        return {key: _standard(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_standard(value) for value in obj]
    return obj


def json_text(obj) -> str:
    """Standard JSON only: infinities become "inf" strings, NaN is refused."""
    return json.dumps(_standard(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path, via temp-then-rename in the destination directory.

    The new file gets mode 0o666 less the umask, as `open(path, "w")` would
    give a new file. Only an absent path or a regular file is replaced: any
    other target (a FIFO, a device, a symlink such as /dev/stdout) is opened
    and written in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        replace = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        replace = True
    if not replace:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    tmp_name = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
