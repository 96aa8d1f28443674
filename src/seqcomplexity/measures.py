"""The measure registry: the one place a measure is defined, and
:func:`evaluate`, the one place that decides what a measure reads.  The
CLI and ``deceiver.divergence_report`` both call :func:`evaluate`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import assembly, bdm, coding

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


MEASURES: dict[str, Measure] = {
    "entropy": Measure(lambda s, *_: (coding.shannon_entropy(s), "bits_per_symbol")),
    "huffman": Measure(_huffman),
    "rle": Measure(lambda s, *_: (coding.rle_length(s), "encoded_chars")),
    "lzw": Measure(_lzw),
    "ma_exact": Measure(lambda s, *_: (assembly.assembly_index_exact(s)[0], "exact")),
    "ma_split": Measure(lambda s, *_: (assembly.split_upper_bound(s), "upper_bound")),
    "bdm1d": Measure(lambda bits, t, p: (bdm.bdm_1d(bits, t, p), f"block={p.block_size};overlap={p.overlap}"), ctm_dim=1),
    "bdm2d": Measure(lambda m, t, p: (bdm.bdm_2d(m, t, p), "block_shape={}x{}".format(*p.block_shape)), ctm_dim=2),
}


def evaluate(name, payload, tables, params=None):
    """``(value, note)`` of ``payload`` under ``MEASURES[name]``.

    ``payload`` is a string or a binary matrix (rows of 0/1 ints); the
    entry's ``ctm_dim`` decides what it reads, and the note ends by naming
    it.  None: the string (``;input=string``) or the matrix flattened row
    major (``;input=matrix_flat``).  1: the string's UTF-8 bits
    (``;input=utf8_bits``), handed over as the UTF-8 bytes, which
    ``bdm_1d`` reads bit by bit (``coding._utf8`` encodes them, and when a
    measure before has counted the string's symbols, derives the bytes'
    counts from those, so ``bdm_1d`` does not count the bytes again), or
    the flattened matrix, with the CTM
    table ``tables[1]``.  2: the matrix, with ``tables[2]``; a string gives
    ``(None, "not applicable: string payload")``.  A CTM entry reads the
    ``BdmParams`` ``params`` too (None: ``BdmParams()``); its note then names
    the boundary (``;boundary=ignore`` or ``pad``) before the input, and ends
    in ``;missing=<policy>`` unless the policy is ``error``.  Every rejection,
    a missing table included, is a ValueError.
    """
    entry = MEASURES.get(name)
    if entry is None:
        raise ValueError(f"unknown measure {name!r}; choose from {','.join(MEASURES)}")
    if entry.ctm_dim == 2:
        if isinstance(payload, str):
            return None, "not applicable: string payload"
        x, suffix = payload, ""
    elif not isinstance(payload, str):
        x, suffix = "".join(str(v) for row in payload for v in row), ";input=matrix_flat"
    elif entry.ctm_dim == 1:
        x, suffix = coding._utf8(payload), ";input=utf8_bits"
    else:
        x, suffix = payload, ";input=string"
    table = tables.get(entry.ctm_dim)
    if entry.ctm_dim:
        if table is None:
            raise ValueError(f"{name} needs a {entry.ctm_dim}D CTM table")
        params = params or bdm.BdmParams()
        suffix = f";boundary={'ignore' if params.pad_symbol is None else 'pad'}" + suffix
        if params.missing_block_policy != "error":
            suffix += f";missing={params.missing_block_policy}"
    value, note = entry.compute(x, table, params)
    return value, note + suffix
