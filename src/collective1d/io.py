"""Output files: full-precision CSV and JSON with deterministic bytes.

Every float cell of a CSV is written with FLOAT_FORMAT ("%.17g"), which
round-trips a double exactly; JSON floats use Python's shortest exact repr.
JSON is indented, key-sorted and newline-terminated, so the same payload
always gives the same file.
"""
from __future__ import annotations

import csv
import json

__all__ = ["FLOAT_FORMAT", "write_csv", "write_json"]

FLOAT_FORMAT = "%.17g"


def write_csv(path, header, rows) -> None:
    """One header row, then the rows; float cells (numpy floats included)
    are formatted with FLOAT_FORMAT, every other cell is written as is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([FLOAT_FORMAT % cell if isinstance(cell, float) else cell
                          for cell in row] for row in rows)


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
