"""CSV tables: the one writer and the one reader behind every .csv artifact.

Every table is a fixed header row and then data rows.  Rows end in
"\\n"; a cell is quoted only when it holds a comma, a quote or a line
break.  Cells are written with str(), which csv applies as repr() to a
Python float.  A numpy scalar's repr differs under numpy 2, so
write_records writes every float field as float(x).  docs/formats.md
describes each table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields


def write_text(path, text: str) -> None:
    """Write text to path; an OSError names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_table(path, header, rows) -> None:
    """Write the header row and then each row of cells to path as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def record_header(record) -> list:
    """The header of a table of dataclass records: its field names, in order."""
    return [f.name for f in fields(record)]


def write_records(path, record, rows) -> None:
    """Write rows, each an instance of the dataclass record, to path as CSV.

    The header is record_header(record).  A cell of a field annotated
    float is written as float(value), every other cell as is.
    """
    names = record_header(record)
    real = {f.name for f in fields(record) if f.type in (float, "float")}
    cells = [
        [float(getattr(row, n)) if n in real else getattr(row, n) for n in names] for row in rows
    ]
    write_table(path, names, cells)


def read_table(path, header) -> list:
    """The data rows of a CSV file, as lists of strings.

    Raises:
        OSError: naming path, when it cannot be read.
        ValueError: naming path, when its first row is not header.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not rows or tuple(rows[0]) != tuple(header):
        raise ValueError(f"bad header in {path}: expected {','.join(header)}")
    return rows[1:]
