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
    """``compute(x, table, params, counts)`` gives ``(value, note)``; :func:`evaluate` picks ``x``
    by ``ctm_dim``, and counts the symbols of ``x`` only for an entry that ``reads_counts``."""

    compute: Callable
    ctm_dim: int | None = None
    reads_counts: bool = False


def _huffman(s, _t, _p, counts):
    res = coding.huffman(s, counts=counts)
    return res.total_bits, f"total_bits;levels={res.tree_levels}"


def _lzw(s, _t, _p, counts):
    res = coding.lzw_encode(s, counts=counts)
    return res.bit_length, f"fixed_width_bits;dict={res.dict_size_final}"


MEASURES: dict[str, Measure] = {
    "entropy": Measure(lambda s, _t, _p, c: (coding.shannon_entropy(s, counts=c), "bits_per_symbol"), reads_counts=True),
    "huffman": Measure(_huffman, reads_counts=True),
    "rle": Measure(lambda s, *_: (coding.rle_length(s), "encoded_chars")),
    "lzw": Measure(_lzw, reads_counts=True),
    "ma_exact": Measure(lambda s, *_: (assembly.assembly_index_exact(s)[0], "exact")),
    "ma_split": Measure(lambda s, *_: (assembly.split_upper_bound(s), "upper_bound")),
    "bdm1d": Measure(lambda b, t, p, c: (bdm.bdm_1d(b, t, p, counts=c), f"block={p.block_size};overlap={p.overlap}"),
                     ctm_dim=1, reads_counts=True),
    "bdm2d": Measure(lambda m, t, p, _c: (bdm.bdm_2d(m, t, p), "block_shape={}x{}".format(*p.block_shape)), ctm_dim=2),
}


def evaluate(names, payload, tables, params=None, counts=None):
    """Yield ``(value, note)`` of ``payload`` under ``MEASURES[name]`` for
    each of ``names`` in turn.

    ``payload`` is a string or a binary matrix (rows of 0/1 ints); each
    entry's ``ctm_dim`` decides what it reads, and the note ends by naming
    it.  None: the string (``;input=string``) or the matrix flattened row
    major (``;input=matrix_flat``).  1: the string's UTF-8 bits
    (``;input=utf8_bits``), handed over as the UTF-8 bytes, which
    ``bdm_1d`` reads bit by bit, or the flattened matrix, with the CTM
    table ``tables[1]``.  2: the matrix, with ``tables[2]``; a string gives
    ``(None, "not applicable: string payload")``.  A CTM entry reads the
    ``BdmParams`` ``params`` too (None: ``BdmParams()``); its note then names
    the boundary (``;boundary=ignore`` or ``pad``) before the input, and ends
    in ``;missing=<policy>`` unless the policy is ``error``.  Every rejection,
    a missing table included, is a ValueError, raised in its measure's turn.

    The string, or the flattened matrix, is counted once, at the first entry
    that ``reads_counts``, unless the caller hands in its ``counts``
    (``coding._symbol_counts`` of it); ``coding._utf8`` derives the UTF-8
    bytes' counts from those once, for ``bdm1d``.
    """
    flat = payload if isinstance(payload, str) else None
    utf8 = None
    for name in names:
        entry = MEASURES.get(name)
        if entry is None:
            raise ValueError(f"unknown measure {name!r}; choose from {','.join(MEASURES)}")
        if entry.ctm_dim == 2:
            if isinstance(payload, str):
                yield None, "not applicable: string payload"
                continue
            x, x_counts, suffix = payload, None, ""
        else:
            if flat is None:
                flat = "".join(str(v) for row in payload for v in row)
            if counts is None and entry.reads_counts:
                counts = coding._symbol_counts(flat)
            if not isinstance(payload, str):
                x, x_counts, suffix = flat, counts, ";input=matrix_flat"
            elif entry.ctm_dim == 1:
                utf8 = utf8 or coding._utf8(payload, counts)
                (x, x_counts), suffix = utf8, ";input=utf8_bits"
            else:
                x, x_counts, suffix = payload, counts, ";input=string"
        table = tables.get(entry.ctm_dim)
        if entry.ctm_dim:
            if table is None:
                raise ValueError(f"{name} needs a {entry.ctm_dim}D CTM table")
            params = params or bdm.BdmParams()
            suffix = f";boundary={'ignore' if params.pad_symbol is None else 'pad'}" + suffix
            if params.missing_block_policy != "error":
                suffix += f";missing={params.missing_block_policy}"
        value, note = entry.compute(x, table, params, x_counts)
        yield value, note + suffix
