"""Output files: full-precision CSV and JSON with deterministic bytes.

Every float cell of a CSV is written with FLOAT_FORMAT ("%.17g"), which
round-trips a double exactly; JSON floats use Python's shortest exact repr.
JSON is indented, key-sorted and newline-terminated, so the same payload
always gives the same file.
"""
from __future__ import annotations

import json
import re
from itertools import islice

from .core import ConfigError

__all__ = ["FLOAT_FORMAT", "write_csv", "write_json"]

FLOAT_FORMAT = "%.17g"
_QUOTED = re.compile('[,"\r\n]')      # what csv's default dialect would quote
_CSV_ROWS = 32                        # rows per formatting pass


def write_csv(path, header, rows) -> None:
    """One header row, then the rows, in the bytes of `csv.writer` with its
    default dialect: cells joined by "," and every row ended by "\\r\\n".
    Float cells (numpy floats included) take FLOAT_FORMAT and every other
    cell str(cell), in one % pass per block of _CSV_ROWS rows: larger blocks
    are no faster and leave more small objects behind. A cell whose text csv
    would quote (a comma, a double quote, CR or LF), or a row of one empty
    cell, raises ConfigError."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        table = [list(header)]
        while table:
            fh.write(_csv_text(table))
            table = [list(row) for row in islice(rows, _CSV_ROWS)]


def _csv_text(table) -> str:
    cells = [float(cell) if isinstance(cell, float) else str(cell) for row in table for cell in row]
    for text in (cell for cell in cells if isinstance(cell, str)):
        if _QUOTED.search(text):
            raise ConfigError(f"CSV cell {text!r} would need quoting")
    if [""] in table:
        raise ConfigError("CSV row of one empty cell would need quoting")
    formats = [FLOAT_FORMAT if isinstance(cell, float) else "%s" for cell in cells]
    lines, at = [], 0
    for row in table:
        lines.append(",".join(formats[at:at + len(row)]))
        at += len(row)
    lines.append("")
    return "\r\n".join(lines) % tuple(cells)


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
