"""Output checks for the benchmark, written without calling the code they check.

Each function recomputes a value, or a bound on it, by a different route from
the one in ``src/seqcomplexity``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """Equal up to the 12 significant digits the CLI writes, with margin."""
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def entropy(s: str) -> float:
    """Shannon entropy in bits per symbol, as log2(n) - sum(c log2 c) / n."""
    n = len(s)
    return math.log2(n) - math.fsum(c * math.log2(c) for c in Counter(s).values()) / n


def huffman_bits_ok(s: str, bits: float) -> bool:
    """n*H <= Huffman bits < n*H + n for two or more symbols; n bits for one."""
    n = len(s)
    if len(set(s)) == 1:
        return bits == n
    nh = n * entropy(s)
    return nh * (1 - 1e-9) <= bits < nh + n


def rle_length(s: str) -> int:
    """Length of symbol-then-decimal-count run-length text, recounted by runs."""
    return sum(1 + len(str(sum(1 for _ in run))) for _, run in itertools.groupby(s))


def lzw_decode(codes, s_alphabet: str) -> str:
    """Decode LZW codes over an initial dictionary of the distinct symbols of
    the input, in order of first occurrence."""
    table = list(dict.fromkeys(s_alphabet))
    prev = table[codes[0]]
    out = [prev]
    for code in codes[1:]:
        if code < len(table):
            entry = table[code]
        elif code == len(table):
            entry = prev + prev[0]
        else:
            raise ValueError(f"LZW code {code} beyond dictionary size {len(table)}")
        out.append(entry)
        table.append(prev + entry[0])
        prev = entry
    return "".join(out)


def utf8_bits(s: str) -> str:
    """UTF-8 bytes of ``s`` as a bit string, MSB first, via one big integer."""
    data = s.encode("utf-8")
    return bin(int.from_bytes(data, "big"))[2:].zfill(8 * len(data))


def bdm_1d(bits: str, entries: dict, size: int = 2) -> float:
    """BDM over non-overlapping blocks, trailing partial block ignored."""
    blocks = Counter(bits[i : i + size] for i in range(0, len(bits) - size + 1, size))
    return math.fsum(entries[b] + math.log2(m) for b, m in blocks.items())


def ceil_log2(n: int) -> int:
    """Fewest joins that can build a length-n string: each join at most doubles."""
    return (n - 1).bit_length()
