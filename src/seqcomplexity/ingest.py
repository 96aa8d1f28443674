"""Dataset loading and preprocessing: CSV datasets, text binarization,
matrix thresholding, and minimal V2000 molfile parsing.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

from ._util import fmt12

__all__ = [
    "DatasetRecord",
    "text_to_bits",
    "binarize_matrix",
    "sdf_distance_matrix",
    "load_dataset",
    "write_results",
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
    payload_kind: str  # "string" or "matrix"
    payload: "str | list[list[float]]"  # a matrix is a list of rows
    reference_value: float | None = None


def text_to_bits(s: str) -> str:
    """UTF-8 encode ``s`` and spell each byte as 8 bits, MSB first."""
    b = s.encode("utf-8")
    return format(int.from_bytes(b, "big"), f"0{8 * len(b)}b") if b else ""


def binarize_matrix(m, threshold: float) -> list[list[int]]:
    """Rows of 1 where strictly greater than ``threshold``, else 0; shape preserved."""
    return _rectangular([[int(v > threshold) for v in row] for row in m])


def _rectangular(rows):
    if not any(rows) or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("empty or ragged matrix")
    return rows


def sdf_distance_matrix(sdf_text: str) -> list[list[float]]:
    """Pairwise Euclidean distances between the atoms of a V2000 molfile.

    Only the header, counts line, and atom coordinates are read; bonds and
    property blocks are skipped.  Parse errors carry 1-based line numbers.
    """
    lines = sdf_text.splitlines()
    if len(lines) < 4:
        raise ValueError("line 4: missing counts line")
    counts_line = lines[3]
    try:
        natoms = int(counts_line[0:3])
    except ValueError:
        parts = counts_line.split()
        try:
            natoms = int(parts[0])
        except (IndexError, ValueError):
            raise ValueError("line 4: malformed counts line") from None
    if natoms < 1:
        raise ValueError("line 4: atom count must be positive")
    if len(lines) < 4 + natoms:
        raise ValueError(f"line {len(lines) + 1}: expected {natoms} atom lines")
    coords = []
    for k in range(natoms):
        lineno = 5 + k
        fields = lines[4 + k].split()
        if len(fields) < 3:
            raise ValueError(f"line {lineno}: expected x y z coordinates")
        try:
            coords.append((float(fields[0]), float(fields[1]), float(fields[2])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric coordinate") from None
    return [
        [math.sqrt((ax - bx) * (ax - bx) + (ay - by) * (ay - by) + (az - bz) * (az - bz)) for bx, by, bz in coords]
        for ax, ay, az in coords
    ]


def load_matrix_csv(path) -> list[list[float]]:
    """Read a headerless comma-separated matrix of reals as a list of rows."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rows.append([float(v) for v in raw.strip().split(",")])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric entry") from None
    return _rectangular(rows)


def save_matrix_csv(m, path) -> None:
    rows = _rectangular([list(row) for row in m])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(",".join(fmt12(float(v)) if not float(v).is_integer() else str(int(v)) for v in row))
            fh.write("\n")


def load_dataset(csv_path) -> list[DatasetRecord]:
    """Load a dataset CSV (``id,category,payload_kind,payload,reference_value``).

    Matrix payloads hold a path to a matrix CSV, resolved relative to the
    dataset file.  Row order is preserved; duplicate ids and unknown
    payload kinds are rejected by name.
    """
    base = os.path.dirname(os.path.abspath(csv_path))
    records = []
    seen = set()
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(DATASET_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"dataset header missing columns: {sorted(missing)}")
        for row in reader:
            rid = row["id"]
            if rid in seen:
                raise ValueError(f"duplicate id {rid!r}")
            seen.add(rid)
            kind, payload = row["payload_kind"], row["payload"]
            if kind not in ("string", "matrix"):
                raise ValueError(f"row {rid!r}: unknown payload kind {kind!r}")
            if not payload:  # None when the row is short
                raise ValueError(f"row {rid!r}: empty payload")
            if kind == "matrix":
                mpath = os.path.join(base, payload)  # an absolute payload path is kept as is
                try:
                    payload = load_matrix_csv(mpath)
                except (OSError, ValueError) as exc:  # UnicodeDecodeError included
                    raise ValueError(f"row {rid!r}: matrix {mpath}: {exc}") from None
            ref = row.get("reference_value") or ""
            try:
                reference_value = float(ref) if ref else None
            except ValueError:
                raise ValueError(f"row {rid!r}: non-numeric reference_value {ref!r}") from None
            records.append(
                DatasetRecord(
                    id=rid,
                    category=row["category"],
                    payload_kind=kind,
                    payload=payload,
                    reference_value=reference_value,
                )
            )
    return records


def write_results(rows, csv_path) -> None:
    """Write measure rows (``id,category,measure,value,metadata``) to CSV."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for rid, category, measure, value, metadata in rows:
            writer.writerow([rid, category, measure, fmt12(value), metadata])
