"""The measure registry: the one place a measure is defined.  The CLI and
``deceiver.divergence_report`` both dispatch through :data:`MEASURES`."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from . import assembly, bdm, coding

__all__ = ["Measure", "MEASURES"]


@dataclass(frozen=True)
class Measure:
    """``compute(x, table, params, guard)`` returns ``(value, note)``.

    ``x`` is the payload string; for ``bits`` entries it is the binary
    spelling of the payload, and for ``matrix_only`` entries the binarized
    matrix.  ``ctm_dim`` is the dimension of the CTM table ``table`` the
    entry needs; ``params`` are its ``BdmParams`` and ``guard`` is the
    exact-search length guard.
    """

    compute: Callable
    bits: bool = False
    ctm_dim: int | None = None
    matrix_only: bool = False


def _huffman(s, *_):
    res = coding.huffman(s)
    return res.total_bits, f"total_bits;levels={res.tree_levels}"


def _lzw(s, *_):
    res = coding.lzw_encode(s)
    return res.bit_length, f"fixed_width_bits;dict={res.dict_size_final}"


def _bdm1d(bits, table, p, _):
    return bdm.bdm_1d(bits, table, p), f"block={p.block_size};overlap={p.overlap};boundary={p.boundary}"


def _bdm2d(m, table, p, _):
    r, c = p.block_shape
    # 2D decomposition is always non-overlapping; the overlap is a 1D option
    return bdm.bdm_2d(m, table, replace(p, overlap=0)), f"block_shape={r}x{c};boundary={p.boundary}"


MEASURES: dict[str, Measure] = {
    "entropy": Measure(lambda s, *_: (coding.shannon_entropy(s), "bits_per_symbol")),
    "huffman": Measure(_huffman),
    "rle": Measure(lambda s, *_: (coding.rle_encode(s)[1], "encoded_chars")),
    "lzw": Measure(_lzw),
    "ma_exact": Measure(lambda s, table, p, guard: (assembly.assembly_index_exact(s, limit=guard)[0], "exact")),
    "ma_split": Measure(lambda s, *_: (assembly.assembly_index_split(s)[0], "upper_bound")),
    "bdm1d": Measure(_bdm1d, bits=True, ctm_dim=1),
    "bdm2d": Measure(_bdm2d, ctm_dim=2, matrix_only=True),
}
