"""Atomic, locale-independent artifact writing.

Every file is written to a temp name in the target directory and renamed into
place, so interrupted runs never leave truncated artifacts. Floats are
formatted with 17 significant digits ('.'-decimal) for bit-faithful reloads.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Rows may mix floats (formatted to 17 significant digits), ints, and strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [fmt_float(v) if isinstance(v, float) else str(v) for v in row]
        )
    atomic_write_text(path, buf.getvalue())


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
