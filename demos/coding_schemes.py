"""
Classic coding schemes side by side
===================================

Shannon entropy, static Huffman, run-length encoding, and LZW on the
same inputs.  Huffman's total code length always lands inside the
entropy sandwich |s|*H <= bits < |s|*(H+1).
"""

from seqcomplexity import huffman, huffman_tree_dot, lzw_encode, rle_length, shannon_entropy

SAMPLES = [
    "ABRACADABRA",
    "AAAAAAAABBBB",
    "ABABABABABAB",
    "THEQUICKBROWNFOX",
]

print(f"{'string':>18s} {'H(bits/sym)':>12s} {'huffman':>8s} {'rle':>5s} {'lzw':>5s}")
for s in SAMPLES:
    h = shannon_entropy(s)
    hf = huffman(s)
    lz = lzw_encode(s)
    print(f"{s:>18s} {h:12.4f} {hf.total_bits:8d} {rle_length(s):5d} {lz.bit_length:5d}")
    assert len(s) * h <= hf.total_bits < len(s) * (h + 1)

# the ABRACADABRA Huffman tree: one 1-bit code for A, the rest longer
res = huffman("ABRACADABRA")
print("\nABRACADABRA code lengths:", res.code_lengths)
print("tree levels (deepest leaf):", res.tree_levels)

with open("abracadabra_huffman.dot", "w") as fh:
    fh.write(huffman_tree_dot(res))
print("wrote abracadabra_huffman.dot")

# LZW grows its dictionary as it scans: watch the codes for a repeat
res = lzw_encode("ABABABA")
print("\nLZW('ABABABA') codes:", list(res.codes), "dict size:", res.dict_size_final)
