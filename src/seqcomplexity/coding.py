"""Baseline coding schemes: Shannon entropy, static Huffman, RLE, and LZW.

All operations are pure functions of the input string.  Huffman is the
static whole-input variant: symbol frequencies are collected first and a
single optimal prefix-free code is built from them.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

from ._util import dot_escape

__all__ = [
    "SymbolCounts",
    "HuffmanNode",
    "HuffmanResult",
    "LzwResult",
    "shannon_entropy",
    "huffman",
    "rle_encode",
    "lzw_encode",
    "huffman_tree_dot",
]


@dataclass(frozen=True)
class SymbolCounts:
    """Empirical symbol frequencies: unique symbols with counts >= 1."""

    entries: tuple[tuple[str, int], ...]
    total: int

    def __post_init__(self):
        symbols = [sym for sym, _ in self.entries]
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbol in counts")
        if any(c < 1 for _, c in self.entries):
            raise ValueError("counts must be >= 1")
        if self.total != sum(c for _, c in self.entries):
            raise ValueError("total does not match sum of counts")

    @classmethod
    def from_string(cls, s: str) -> "SymbolCounts":
        if not s:
            raise ValueError("empty input")
        counts = Counter(s)  # insertion order = first occurrence in s
        return cls(entries=tuple(counts.items()), total=len(s))


@dataclass
class HuffmanNode:
    count: int
    symbol: str | None = None
    left: "HuffmanNode | None" = None
    right: "HuffmanNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.symbol is not None


@dataclass(frozen=True)
class HuffmanResult:
    """Optimal prefix code lengths plus the merge tree that produced them.

    ``tree_levels`` counts edge levels from the root to the deepest leaf
    (0 for the degenerate single-symbol tree).
    """

    code_lengths: dict[str, int]
    total_bits: int
    tree_levels: int
    tree: HuffmanNode


@dataclass(frozen=True)
class LzwResult:
    """LZW code stream with fixed-width bit accounting.

    ``bit_length`` is ``len(codes) * ceil(log2(dict_size_final))``; the
    dictionary grows by one entry per emitted code except the last.
    """

    codes: tuple[int, ...]
    dict_size_final: int
    bit_length: int


def shannon_entropy(s: str) -> float:
    """Empirical Shannon entropy of ``s`` in bits per symbol."""
    if not s:
        raise ValueError("empty input")
    n = len(s)
    return -sum((c / n) * math.log2(c / n) for c in Counter(s).values()) + 0.0


def huffman(s: str) -> HuffmanResult:
    """Static Huffman code for the symbol frequencies of ``s``.

    Merging pops the two lowest-count nodes; among equal counts the most
    recently created node wins (internal nodes over leaves, later leaves
    over earlier ones), which reproduces the staircase-shaped tree of the
    classic calculators.  A single distinct symbol is coded at 1 bit per
    occurrence with a zero-level tree.
    """
    counts = SymbolCounts.from_string(s)
    if len(counts.entries) == 1:
        sym, c = counts.entries[0]
        leaf = HuffmanNode(count=c, symbol=sym)
        return HuffmanResult(
            code_lengths={sym: 1}, total_bits=c, tree_levels=0, tree=leaf
        )

    heap = []
    serial = 0
    for sym, c in counts.entries:
        # priority: lower count first, then most recently created
        heapq.heappush(heap, (c, -serial, HuffmanNode(count=c, symbol=sym)))
        serial += 1
    while len(heap) > 1:
        ca, _, a = heapq.heappop(heap)
        cb, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (ca + cb, -serial, HuffmanNode(count=ca + cb, left=a, right=b)))
        serial += 1
    root = heap[0][2]

    lengths: dict[str, int] = {}
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            lengths[node.symbol] = depth
        else:
            stack.append((node.right, depth + 1))
            stack.append((node.left, depth + 1))
    lengths = {sym: lengths[sym] for sym, _ in counts.entries}
    total = sum(c * lengths[sym] for sym, c in counts.entries)
    return HuffmanResult(
        code_lengths=lengths,
        total_bits=total,
        tree_levels=max(lengths.values()),
        tree=root,
    )


def rle_encode(s: str) -> tuple[str, int]:
    """Run-length encode ``s`` as symbol-then-decimal-count per maximal run.

    The textual format is not self-delimiting when run symbols are decimal
    digits (encode("011") == encode("0" * 112) == "0112"); it is a length
    measure, not a codec.
    """
    encoded = "".join(f"{ch}{len(list(run))}" for ch, run in groupby(s))
    return encoded, len(encoded)


def lzw_encode(s: str) -> LzwResult:
    """LZW over an initial dictionary of the distinct symbols of ``s``.

    Greedy longest match; each emission appends the matched string plus
    the next symbol to the dictionary.
    """
    if not s:
        raise ValueError("empty input")
    table: dict[str, int] = {}
    for ch in s:
        if ch not in table:
            table[ch] = len(table)
    codes = []
    w = s[0]
    for ch in s[1:]:
        if w + ch in table:
            w += ch
        else:
            codes.append(table[w])
            table[w + ch] = len(table)
            w = ch
    codes.append(table[w])
    width = math.ceil(math.log2(len(table))) if len(table) > 1 else 0
    return LzwResult(
        codes=tuple(codes), dict_size_final=len(table), bit_length=len(codes) * width
    )


def huffman_tree_dot(result: HuffmanResult) -> str:
    """Render a Huffman merge tree as a DOT digraph.

    Leaves are labelled ``symbol:count``, internal nodes with the merged
    count; left edges carry 0 and right edges 1.
    """
    lines = ["digraph huffman {"]
    counter = [0]

    def emit(node):
        nid = f"n{counter[0]}"
        counter[0] += 1
        if node.is_leaf:
            lines.append(f'  {nid} [label="{dot_escape(node.symbol)}:{node.count}" shape=box];')
        else:
            lines.append(f'  {nid} [label="{node.count}"];')
            left_id = emit(node.left)
            right_id = emit(node.right)
            lines.append(f'  {nid} -> {left_id} [label="0"];')
            lines.append(f'  {nid} -> {right_id} [label="1"];')
        return nid

    emit(result.tree)
    lines.append("}")
    return "\n".join(lines) + "\n"
