"""
Deterministic report serialization.

CSV cells: integers verbatim, reals with 12 significant digits, "." as the
decimal separator regardless of locale. JSON is standard (RFC 8259) and is
written in one direct pass over the report: the bytes of
`json.dumps(obj, indent=2, sort_keys=True)`, except that an infinite value
is written as the string "inf" or "-inf", like its CSV cell. NaN is
refused, and every key must be a string. A report file is written to a
temporary name in the target directory and renamed into place, so it is
either old or new, never partial, and a failed write removes the temporary
file. Files are replaced one at a time: a write error can leave the files
written before it replaced.
"""
from __future__ import annotations

import math
import os
import stat
from json.encoder import encode_basestring_ascii as _string
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


def json_text(obj) -> str:
    """Standard JSON only: infinities become "inf" strings, NaN is refused."""
    chunks: list[str] = []
    _write(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write(obj, newline: str, put) -> None:
    """Pass the JSON text of `obj` to `put`, chunk by chunk. `newline` is a
    line break followed by the indent of the line that holds `obj`.

    As in json: str is checked before int (a str enum member is its value)
    and bools before int, and int and float subclasses print as their value.
    """
    if isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep)
            put(_string(key))
            put(": ")
            _write(value, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(obj, str):
        put(_string(obj))
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj - obj == 0.0:
            put(float.__repr__(obj))
        elif obj != obj:
            raise ValueError("Out of range float values are not JSON compliant: nan")
        else:
            put(f'"{format_cell(obj)}"')
    elif isinstance(obj, (list, tuple)):
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            put(sep)
            _write(value, inner, put)
            sep = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
