"""File input and output: the one CSV reader and the two writers behind
every file the package reads or writes, text binarization and matrix
thresholding."""

from __future__ import annotations

import csv
import math
import os
import stat
from collections import Counter
from dataclasses import dataclass

from ._util import fmt12

__all__ = [
    "DatasetRecord",
    "text_to_bits",
    "binarize_matrix",
    "load_dataset",
    "load_results",
    "write_results",
    "write_csv",
    "write_text",
    "load_matrix_csv",
    "save_matrix_csv",
]

# the default 131,072-character field limit is below the 10^5-character
# deceiver payloads; 2**31 - 1 fits a C long on every platform
csv.field_size_limit(2**31 - 1)

DATASET_HEADER = ["id", "category", "payload_kind", "payload", "reference_value"]
RESULTS_HEADER = ["id", "category", "measure", "value", "metadata"]


@dataclass
class DatasetRecord:
    """One benchmark item: a string or matrix payload with a category label."""

    id: str
    category: str
    payload: "str | list[list[float]]"  # a matrix is a list of rows
    reference_value: float | None = None


def _csv_rows(path, columns):
    """The header, the ``(line number, cells)`` rows and the row namer of
    the UTF-8 CSV file at ``path``.

    The first non-blank line is the header: it must name every column in
    ``columns``, and no column twice.  With no ``columns`` the file has no
    header.  Blank lines are skipped, and a row whose field count differs
    from the header's raises ValueError.  ``name(lineno, cells)`` names a
    row by its ``id`` cell when the header has an ``id`` column, otherwise
    by its line number; callers name only a row they reject.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, cells) for cells in reader if len(cells) > 1 or cells and cells[0].strip()]
    header = []
    if columns:
        lineno, header = rows.pop(0) if rows else (1, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"line {lineno}: header lacks {', '.join(missing)}")
        twice = [c for c, k in Counter(header).items() if k > 1]
        if twice:
            raise ValueError(f"line {lineno}: header names {twice[0]!r} twice")
    key = header.index("id") if "id" in header else None

    def name(lineno, cells):
        return f"row {cells[key]!r}" if key is not None and key < len(cells) else f"line {lineno}"

    if header:
        for lineno, cells in rows:
            if len(cells) != len(header):
                raise ValueError(f"{name(lineno, cells)}: field count differs from the header")
    return header, rows, name


def _finite(cell, what) -> float:
    """``cell`` as a finite float; otherwise a ValueError naming ``what``,
    to which the caller adds where the cell is."""
    try:
        x = float(cell)
    except ValueError:
        raise ValueError(f"non-numeric {what} {cell!r}") from None
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"non-finite {what} {cell!r}")
    return x


def _overwrite(path, write) -> None:
    """Call ``write(fh)`` on ``path`` opened for UTF-8 text with no newline
    translation, then cut a regular file to the bytes written.

    The file is opened without ``O_TRUNC``: on ext4 (``auto_da_alloc``) an
    open that truncates a file closed a moment before waits for that
    file's writeback.  The cut runs even when ``write`` raises, so no tail
    of the old file is left; a non-regular target such as ``os.devnull``
    cannot be cut and is not."""
    with open(
        path, "w", encoding="utf-8", newline="", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)
    ) as fh:
        try:
            write(fh)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_csv(path, rows) -> None:
    """Write ``rows`` to ``path`` as UTF-8 in the csv module's default dialect."""
    _overwrite(path, lambda fh: csv.writer(fh).writerows(rows))


def write_text(path, text) -> None:
    """Write ``text`` to ``path`` as UTF-8, with no newline translation."""
    _overwrite(path, lambda fh: fh.write(text))


def text_to_bits(s: str) -> str:
    """UTF-8 encode ``s`` and spell each byte as 8 bits, MSB first."""
    b = s.encode("utf-8")
    return format(int.from_bytes(b, "big"), f"0{8 * len(b)}b") if b else ""


def binarize_matrix(m, threshold: float) -> list[list[int]]:
    """Rows of 1 where strictly greater than ``threshold``, else 0; shape
    preserved.  A non-finite ``threshold`` raises ValueError."""
    if not math.isfinite(threshold):
        raise ValueError(f"non-finite threshold {threshold!r}")
    return _rectangular([[int(v > threshold) for v in row] for row in m])


def _rectangular(rows):
    if not any(rows) or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("empty or ragged matrix")
    return rows


def load_matrix_csv(path) -> list[list[float]]:
    """Read a headerless comma-separated matrix of finite reals as a list of rows."""
    _, rows, name = _csv_rows(path, ())
    matrix = []
    for lineno, cells in rows:
        try:
            matrix.append([_finite(v, "entry") for v in cells])
        except ValueError as exc:
            raise ValueError(f"{name(lineno, cells)}: {exc}") from None
    return _rectangular(matrix)


def save_matrix_csv(m, path) -> None:
    """Write ``m`` as a headerless matrix CSV, integral entries as integers;
    a non-finite entry raises ValueError naming it."""
    cells = [[str(int(v)) if (x := _finite(v, "entry")).is_integer() else fmt12(x) for v in row] for row in m]
    write_csv(path, _rectangular(cells))


def load_dataset(csv_path) -> list[DatasetRecord]:
    """Load a dataset CSV (``id,category,payload_kind,payload,reference_value``).

    Matrix payloads hold a path to a matrix CSV, resolved relative to the
    dataset file.  Row order is preserved; duplicate ids and unknown
    payload kinds are rejected by name.
    """
    base = os.path.dirname(os.path.abspath(csv_path))
    header, rows, name = _csv_rows(csv_path, DATASET_HEADER)
    ids, categories, kinds, payloads, refs = map(header.index, DATASET_HEADER)
    records = []
    seen = set()
    for lineno, cells in rows:
        where = name(lineno, cells)
        rid = cells[ids]
        if rid in seen:
            raise ValueError(f"duplicate id {rid!r}")
        seen.add(rid)
        kind, payload = cells[kinds], cells[payloads]
        if kind not in ("string", "matrix"):
            raise ValueError(f"{where}: unknown payload kind {kind!r}")
        if not payload:
            raise ValueError(f"{where}: empty payload")
        if kind == "matrix":
            mpath = os.path.join(base, payload)  # an absolute payload path is kept as is
            try:
                payload = load_matrix_csv(mpath)
            except (OSError, ValueError) as exc:  # UnicodeDecodeError included
                raise ValueError(f"{where}: matrix {mpath}: {exc}") from None
        ref = cells[refs]
        try:
            ref = _finite(ref, "reference_value") if ref else None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        records.append(DatasetRecord(id=rid, category=cells[categories], payload=payload, reference_value=ref))
    return records


def load_results(csv_path):
    """A results CSV as ``{(id, measure): (category, value)}`` in file order,
    ``value`` a finite float or None for an empty cell; columns past the
    five are read past, and a repeated ``(id, measure)`` row raises
    ValueError."""
    header, rows, name = _csv_rows(csv_path, RESULTS_HEADER)
    ids, categories, measures, values = map(header.index, ("id", "category", "measure", "value"))
    table = {}
    for lineno, cells in rows:
        key = cells[ids], cells[measures]
        if key in table:
            raise ValueError(f"{name(lineno, cells)}: measure {key[1]!r} repeated")
        cell = cells[values]
        try:
            table[key] = cells[categories], _finite(cell, "value") if cell else None
        except ValueError as exc:
            raise ValueError(f"{name(lineno, cells)}: {exc}") from None
    return table


def write_results(rows, csv_path) -> None:
    """Write measure rows (``id,category,measure,value,metadata``) to CSV."""
    write_csv(csv_path, [RESULTS_HEADER, *([rid, cat, m, fmt12(v), meta] for rid, cat, m, v, meta in rows)])
