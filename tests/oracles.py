"""Independent oracles used by the test suite.

Everything here is deliberately brute force and shares no code with the
package implementations it checks.
"""

from __future__ import annotations

import math
import re
from itertools import product

import numpy as np


def brute_force_prefix_code_bits(counts):
    """Minimum of sum(count * length) over all Kraft-feasible integer
    length vectors (exhaustive search, lengths in 1..max(1, k-1))."""
    syms = list(counts)
    k = len(syms)
    max_len = max(1, k - 1)
    best = None
    for lengths in product(range(1, max_len + 1), repeat=k):
        # Kraft feasibility via integers: sum 2^(L-l) <= 2^L
        L = max(lengths)
        if sum(2 ** (L - l) for l in lengths) > 2 ** L:
            continue
        total = sum(counts[s] * l for s, l in zip(syms, lengths))
        if best is None or total < best:
            best = total
    return best


def kraft_sum_exact(lengths):
    """sum 2^-l as an exact pair (numerator, 2^L denominator)."""
    L = max(lengths)
    return sum(2 ** (L - l) for l in lengths), 2 ** L


def rle_decode(encoded):
    out = []
    i = 0
    while i < len(encoded):
        sym = encoded[i]
        i += 1
        j = i
        while j < len(encoded) and encoded[j].isdigit():
            j += 1
        out.append(sym * int(encoded[i:j]))
        i = j
    return "".join(out)


def lzw_decode(codes, initial_symbols):
    table = {i: sym for i, sym in enumerate(initial_symbols)}
    prev = table[codes[0]]
    out = [prev]
    for code in codes[1:]:
        if code in table:
            entry = table[code]
        elif code == len(table):
            entry = prev + prev[0]
        else:
            raise ValueError("invalid LZW code")
        out.append(entry)
        table[len(table)] = prev + entry[0]
        prev = entry
    return "".join(out)


def student_t_sf_trapezoid(t, df, n=400001):
    """P(T > t) by trapezoidal integration of the t density.

    The substitution x = sqrt(df) * tan(theta) maps the infinite tail onto
    a finite interval; the integrand limit at pi/2 is sec(theta)^(1-df)
    scaled, which is nonzero only for df = 1.
    """
    if t < 0:
        return 1.0 - student_t_sf_trapezoid(-t, df, n)
    coef = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    theta0 = math.atan(t / math.sqrt(df))
    thetas = np.linspace(theta0, math.pi / 2.0, n)
    x = np.sqrt(df) * np.tan(thetas[:-1])
    integrand = coef * (1 + x * x / df) ** (-(df + 1) / 2) * math.sqrt(df) / np.cos(thetas[:-1]) ** 2
    endpoint = coef * math.sqrt(df) if df == 1 else 0.0
    integrand = np.append(integrand, endpoint)
    return float(np.trapezoid(integrand, thetas))


def addition_chain_length(n):
    """Shortest addition-chain length for n by breadth-first search.

    This equals the assembly index of a single repeated symbol: the only
    information in such a string is its length, and a join adds the
    lengths of two previously built blocks.
    """
    if n == 1:
        return 0
    frontier = {(1,)}
    steps = 0
    while True:
        steps += 1
        nxt = set()
        for chain in frontier:
            for a in chain:
                for b in chain:
                    c = a + b
                    if c == n:
                        return steps
                    if c > n or c <= chain[-1]:
                        continue
                    nxt.add(chain + (c,))
        frontier = nxt


def naive_assembly_index(s):
    """Breadth-first search over sets of built objects, no pruning beyond
    substring closure.  Exponential; for very short strings only."""
    if len(s) == 1:
        return 0
    subs = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
    basis = frozenset(c for c in set(s))
    frontier = {frozenset()}
    depth = 0
    while True:
        depth += 1
        nxt = set()
        for built in frontier:
            avail = set(basis) | set(built)
            for u in avail:
                for v in avail:
                    w = u + v
                    if w == s:
                        return depth
                    if w in subs and w not in built:
                        nxt.add(built | {w})
        frontier = nxt


def ecdf_sup_distance(a, b):
    points = sorted(set(a) | set(b))
    sa, sb = sorted(a), sorted(b)
    best = 0.0
    for x in points:
        fa = sum(1 for v in sa if v <= x) / len(sa)
        fb = sum(1 for v in sb if v <= x) / len(sb)
        best = max(best, abs(fa - fb))
    return best


def shannon_entropy_direct(s):
    n = len(s)
    freqs = {}
    for ch in s:
        freqs[ch] = freqs.get(ch, 0) + 1
    return -sum((c / n) * math.log2(c / n) for c in freqs.values())


def longest_nonoverlapping_repeat(seqs):
    """Longest window of >= 2 tokens with two non-overlapping occurrences
    in ``seqs`` (occurrences in different sequences never overlap).

    Tries every length from the longest down and every window in (seq,
    pos) order, counting each candidate's maximum number of disjoint
    occurrences by a left-to-right scan of every sequence.  Returns
    ``(window tuple, length)`` for the first window found, which at the
    longest length is the one whose first occurrence is earliest, or
    ``(None, 0)``.
    """
    for length in range(max((len(q) for q in seqs), default=0), 1, -1):
        for seq in seqs:
            for pos in range(len(seq) - length + 1):
                window = list(seq[pos : pos + length])
                count = 0
                for other in seqs:
                    i = 0
                    while i + length <= len(other):
                        if list(other[i : i + length]) == window:
                            count += 1
                            i += length
                        else:
                            i += 1
                if count >= 2:
                    return tuple(window), length
    return None, 0


def lz77_phrases(s):
    """Number of phrases in the greedy LZ77 parse of ``s`` without
    self-reference: each phrase is the longest prefix of the rest that
    occurs inside the text already parsed, or one new symbol."""
    phrases, i = 0, 0
    while i < len(s):
        length = 0
        while i + length < len(s) and s[i : i + length + 1] in s[:i]:
            length += 1
        i += max(1, length)
        phrases += 1
    return phrases


def rle_runs_encode(s):
    """Run-length code of ``s`` (symbol, then decimal run length), read
    off the maximal runs that a backreference regex matches."""
    return "".join(f"{m.group(1)}{len(m.group(0))}" for m in re.finditer(r"(.)\1*", s, re.DOTALL))


def utf8_bits_per_byte(s):
    """UTF-8 bytes of ``s`` spelled one at a time as 8 bits, MSB first."""
    return "".join(format(byte, "08b") for byte in s.encode("utf-8"))


def bdm_1d_sliced(s, entries, size, overlap=0, pad_symbol=None, surrogate=False):
    """BDM by slicing out every block: windows of ``size`` at stride
    ``size - overlap``, the leftover padded with ``pad_symbol`` when one is
    given, then ``ctm + log2(multiplicity)`` summed over distinct blocks in
    first-occurrence order.  A block missing from ``entries`` costs
    ``len * H + 1`` when ``surrogate`` is set and raises KeyError otherwise."""
    stride = size - overlap
    blocks = [s[i : i + size] for i in range(0, len(s) - size + 1, stride)]
    rest = len(blocks) * stride
    if pad_symbol is not None and rest < len(s):
        blocks.append(s[rest:].ljust(size, pad_symbol))
    mult = {}
    for block in blocks:
        mult[block] = mult.get(block, 0) + 1

    def ctm(block):
        if block in entries or not surrogate:
            return entries[block]
        return len(block) * shannon_entropy_direct(block) + 1.0

    return sum(ctm(block) + math.log2(m) for block, m in mult.items())
