"""
CTM tables and the Block Decomposition Method
=============================================

Exhaustively running all 10,000 two-state binary Turing machines gives a
frequency distribution over their halting outputs; -log2(frequency) is a
complexity estimate per output block.  BDM scores a long object by
decomposing it into blocks and charging each distinct block its table
value plus log2 of its multiplicity.
"""

from seqcomplexity import bdm_1d, bdm_2d, ctm_enumerate, ctm_save, toy_table_1d, toy_table_2d

table = ctm_enumerate(states=2, symbols=2, step_bound=30)
print(f"enumerated table: {len(table.entries)} blocks ({table.provenance})")
print("cheapest blocks:")
for block in sorted(table.entries, key=lambda b: (table.entries[b], len(b)))[:6]:
    print(f"  {block!r:8s} -> {table.entries[block]:.4f} bits")

# the table is exactly symmetric under 0<->1 complement and reversal
flip = str.maketrans("01", "10")
assert all(table.entries[b] == table.entries[b.translate(flip)] for b in table.entries)
assert all(table.entries[b] == table.entries[b[::-1]] for b in table.entries)

ctm_save(table, "ctm_2_2.csv")
print("saved ctm_2_2.csv")

# BDM on strings: repetition costs only log2(multiplicity) extra
toy = toy_table_1d()
for s in ("01", "0101", "01010101", "0110"):
    print(f"bdm_1d({s!r}) = {bdm_1d(s, toy):.3f} bits")

# BDM on matrices: a uniform matrix is one block repeated
zeros = [[0] * 8 for _ in range(8)]
checker = [[(i + j) % 2 for j in range(8)] for i in range(8)]
print(f"bdm_2d(8x8 zeros)   = {bdm_2d(zeros, toy_table_2d()):.3f} bits")
print(f"bdm_2d(8x8 checker) = {bdm_2d(checker, toy_table_2d()):.3f} bits")
