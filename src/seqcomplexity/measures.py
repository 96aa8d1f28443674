"""The measure registry: the one place a measure is defined, and
:func:`evaluate`, the one place that decides what a measure reads.  The
CLI and ``deceiver.divergence_report`` both call :func:`evaluate`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import assembly, bdm, coding
from .ingest import text_to_bits

__all__ = ["Measure", "MEASURES", "evaluate"]


@dataclass(frozen=True)
class Measure:
    """``compute(x, table, params)`` gives ``(value, note)``; :func:`evaluate` picks ``x`` by ``ctm_dim``."""

    compute: Callable
    ctm_dim: int | None = None


def _huffman(s, *_):
    res = coding.huffman(s)
    return res.total_bits, f"total_bits;levels={res.tree_levels}"


def _lzw(s, *_):
    res = coding.lzw_encode(s)
    return res.bit_length, f"fixed_width_bits;dict={res.dict_size_final}"


def _bdm1d(bits, table, p):
    return bdm.bdm_1d(bits, table, p), f"block={p.block_size};overlap={p.overlap};boundary={'ignore' if p.pad_symbol is None else 'pad'}"


def _bdm2d(m, table, p):
    r, c = p.block_shape
    return bdm.bdm_2d(m, table, p), f"block_shape={r}x{c};boundary={'ignore' if p.pad_symbol is None else 'pad'}"


MEASURES: dict[str, Measure] = {
    "entropy": Measure(lambda s, *_: (coding.shannon_entropy(s), "bits_per_symbol")),
    "huffman": Measure(_huffman),
    "rle": Measure(lambda s, *_: (coding.rle_length(s), "encoded_chars")),
    "lzw": Measure(_lzw),
    "ma_exact": Measure(lambda s, *_: (assembly.assembly_index_exact(s)[0], "exact")),
    "ma_split": Measure(lambda s, *_: (assembly.split_upper_bound(s), "upper_bound")),
    "bdm1d": Measure(_bdm1d, ctm_dim=1),
    "bdm2d": Measure(_bdm2d, ctm_dim=2),
}


def evaluate(name, payload, tables, params):
    """``(value, note)`` of ``payload`` under ``MEASURES[name]``.

    ``payload`` is a string or a binary matrix (rows of 0/1 ints); the
    entry's ``ctm_dim`` decides what it reads, and the note ends by naming
    it.  None: the string (``;input=string``) or the matrix flattened row
    major (``;input=matrix_flat``).  1: the string's UTF-8 bits
    (``;input=utf8_bits``) or the flattened matrix, with the CTM table
    ``tables[1]``.  2: the matrix, with ``tables[2]``; a string gives
    ``(None, "not applicable: string payload")``.  A CTM entry reads the
    ``BdmParams`` ``params`` too, and its note then ends in
    ``;missing=<policy>`` unless the policy is ``error``.
    """
    entry = MEASURES[name]
    if entry.ctm_dim == 2:
        if isinstance(payload, str):
            return None, "not applicable: string payload"
        x, suffix = payload, ""
    elif not isinstance(payload, str):
        x, suffix = "".join(str(v) for row in payload for v in row), ";input=matrix_flat"
    elif entry.ctm_dim == 1:
        x, suffix = text_to_bits(payload), ";input=utf8_bits"
    else:
        x, suffix = payload, ";input=string"
    value, note = entry.compute(x, tables.get(entry.ctm_dim), params)
    if entry.ctm_dim and params.missing_block_policy != "error":
        suffix += f";missing={params.missing_block_policy}"
    return value, note + suffix
