"""The measure registry: the one place a measure is defined.  The CLI and
``deceiver.divergence_report`` both dispatch through :data:`MEASURES`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import assembly, bdm, coding

__all__ = ["Measure", "MEASURES"]


@dataclass(frozen=True)
class Measure:
    """``compute(x, table, params)`` returns ``(value, note)``.

    ``ctm_dim`` decides the input ``x``.  None: the payload string.  1: its
    binary spelling (the UTF-8 bits of a string, the flattened binarized
    matrix), with a 1D CTM table ``table``.  2: the binarized matrix, with
    a 2D table, and only for matrix payloads.  ``params`` are the
    ``BdmParams`` of a CTM entry.
    """

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
