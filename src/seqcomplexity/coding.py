"""Baseline coding schemes: Shannon entropy, static Huffman, RLE, and LZW.

All operations are pure functions of the input string.  Huffman is the
static whole-input variant: symbol frequencies are collected first and a
single optimal prefix-free code is built from them.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass

from ._util import dot_escape

__all__ = [
    "HuffmanNode",
    "HuffmanResult",
    "LzwResult",
    "shannon_entropy",
    "huffman",
    "rle_encode",
    "rle_length",
    "lzw_encode",
    "huffman_tree_dot",
]

_REPEATED_RUN = re.compile(r"(.)\1+", re.S)
_ONE_IF_NONZERO = bytes([0] + [1] * 255)  # bytes.translate table


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


def _symbol_counts(s) -> dict:
    """``Counter(s)`` as a plain dict: the same items in the same order.

    Each pass takes the first symbol left, deletes it with ``replace`` and
    records how far the rest shrank; deleting keeps the order of ``s``, so
    the counts come out in first-occurrence order.  The passes may scan
    4·len(s) symbols, plus 8 for each symbol they count; then ``Counter``
    counts what is left.  Scanning a symbol costs far less than 1/8 of
    counting it with ``Counter``, so the passes that counted symbols pay
    for save more than they cost, and on any alphabet the kernel costs at
    most about a scan of 4·len(s) symbols more than ``Counter(s)``.
    ``bytes`` are counted by int, as ``Counter`` does; input that is
    neither ``str`` nor ``bytes`` goes straight to ``Counter``.
    """
    if not isinstance(s, (str, bytes)):
        return Counter(s)
    by_int = isinstance(s, bytes)
    empty = s[:0]
    counts = {}
    rest, n = s, len(s)
    budget = 4 * n
    while n and budget > 0:
        c = rest[:1]
        rest = rest.replace(c, empty)
        k = n - len(rest)
        counts[c[0] if by_int else c] = k
        budget += 8 * k - n
        n -= k
    if n:
        counts.update(Counter(rest))
    return counts


def _utf8(s: str, counts) -> tuple[bytes, dict]:
    """``s.encode("utf-8")`` and its byte counts, derived from ``counts``,
    the symbol counts of ``s``.

    Each byte of ``ch.encode("utf-8")`` gains ``k`` for each ``(ch, k)`` of
    ``counts``, in order.  The dict comes out in ``Counter(bytes)`` order:
    byte v first occurs inside the first occurrence of the
    earliest-occurring symbol whose encoding holds v, at its first place in
    that encoding, and the symbols are visited in the order of their first
    occurrence, each byte by byte.  Encoding comes first, so a lone
    surrogate raises as ``encode`` does.
    """
    b = s.encode("utf-8")
    byte_counts = {}
    for ch, k in counts.items():
        for v in ch.encode("utf-8"):
            byte_counts[v] = byte_counts.get(v, 0) + k
    return b, byte_counts


def shannon_entropy(s: str, *, counts=None) -> float:
    """Empirical Shannon entropy of ``s`` in bits per symbol; ``counts``, if
    given, must be ``_symbol_counts(s)``, which is taken when it is not."""
    if not s:
        raise ValueError("empty input")
    n = len(s)
    counts = _symbol_counts(s) if counts is None else counts
    return -sum((c / n) * math.log2(c / n) for c in counts.values()) + 0.0


def huffman(s: str, *, counts=None) -> HuffmanResult:
    """Static Huffman code for the symbol frequencies of ``s``, which
    ``counts`` holds if given (as in :func:`shannon_entropy`).

    Merging pops the two lowest-count nodes; among equal counts the most
    recently created node wins (internal nodes over leaves, later leaves
    over earlier ones), which reproduces the staircase-shaped tree of the
    classic calculators.  A single distinct symbol is coded at 1 bit per
    occurrence with a zero-level tree.
    """
    if not s:
        raise ValueError("empty input")
    counts = _symbol_counts(s) if counts is None else counts  # insertion order = first occurrence in s
    if len(counts) == 1:
        ((sym, c),) = counts.items()
        leaf = HuffmanNode(count=c, symbol=sym)
        return HuffmanResult(
            code_lengths={sym: 1}, total_bits=c, tree_levels=0, tree=leaf
        )

    heap = []
    serial = 0
    for sym, c in counts.items():
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
    lengths = {sym: lengths[sym] for sym in counts}
    total = sum(c * lengths[sym] for sym, c in counts.items())
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
    # Between two runs of two or more, every run has length one, so such a
    # stretch encodes as its symbols each followed by "1".
    parts = []
    i = 0
    for match in _REPEATED_RUN.finditer(s):
        start, end = match.span()
        if start > i:
            parts += ("1".join(s[i:start]), "1")
        parts.append(f"{s[start]}{end - start}")
        i = end
    if i < len(s):
        parts += ("1".join(s[i:]), "1")
    encoded = "".join(parts)
    return encoded, len(encoded)


def rle_length(s: str) -> int:
    """``rle_encode(s)[1]``, counted from the runs without spelling them out.

    A run of length L encodes as its symbol and len(str(L)) digits, so the
    length is 2·R plus len(str(L)) − 1 over the runs, where R, the number
    of runs, is n minus the number of i with s[i] = s[i+1].  The equal
    pairs are found by XOR-ing the code points (Latin-1 bytes, or else
    UTF-32 units) with those one place on, as two big integers, and marked
    0, the others 1.  len(str(L)) − 1 is the number of d in {10, 100, …}
    with L ≥ d, and a run of L ≥ d is a maximal stretch of at least d − 1
    zero marks, which starts the marks or follows a 1.  So for each d ≤ n
    ``bytes.count`` finds ``1`` followed by d − 1 zeros once per such
    stretch, at its left edge (the matches cannot overlap, as each holds
    one 1), and the stretch that starts the marks is checked apart.
    """
    if not s:
        return 0
    try:
        b, w = s.encode("latin-1"), 1
    except UnicodeEncodeError:
        b, w = s.encode("utf-32-be", "surrogatepass"), 4
    x = int.from_bytes(b[w:], "big") ^ int.from_bytes(b[:-w], "big")
    if w == 4:
        # OR each 4-byte unit into its last byte, which is then 0 only
        # where the unit is, that is, at an equal pair
        x |= x >> 16
        x |= x >> 8
    marks = x.to_bytes((len(s) - 1) * w, "big")[w - 1 :: w].translate(_ONE_IF_NONZERO)
    length = 2 * (1 + marks.count(1))
    d = 10
    while d <= len(s):
        zeros = bytes(d - 1)
        longer = marks.count(b"\x01" + zeros) + marks.startswith(zeros)
        if not longer:
            break
        length += longer
        d *= 10
    return length


def lzw_encode(s: str, *, counts=None) -> LzwResult:
    """LZW from a first dictionary of the distinct symbols of ``s`` in order of first
    occurrence (the keys of ``counts`` if given, as in :func:`shannon_entropy`),
    reading ``s`` element by element (``bytes`` by byte value).  Greedy
    longest match over a trie: ``children[c]`` maps a symbol to the code of entry ``c``
    extended by it, and the entries not yet extended share one empty dict, ``leaf``."""
    if not s:
        raise ValueError("empty input")
    first = {ch: i for i, ch in enumerate(_symbol_counts(s) if counts is None else counts)}
    leaf = {}
    children = [leaf] * len(first)
    codes = []
    it = iter(s)
    code = first[next(it)]
    for ch in it:
        if (nxt := children[code].get(ch)) is not None:
            code = nxt
            continue
        codes.append(code)
        if children[code] is leaf:
            children[code] = {}
        children[code][ch] = len(children)
        children.append(leaf)
        code = first[ch]
    codes.append(code)
    return LzwResult(tuple(codes), len(children), len(codes) * (len(children) - 1).bit_length())


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
