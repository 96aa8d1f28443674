"""
The benchmark pipeline end to end
=================================

Generate the seeded synthetic corpus (four construction categories over a
16-symbol alphabet), measure every string with several schemes, then
correlate measures against each other and test how well each one
separates the categories.

The same flow is scriptable from the shell:

    seqcomplexity synthetic --seed 42 --size 200 --out corpus.csv
    seqcomplexity measure --input corpus.csv --out results.csv \
        --measures entropy,huffman,rle,lzw,ma_split
    seqcomplexity correlate --input results.csv --x ma_split --y huffman \
        --method spearman
    seqcomplexity classify --input results.csv --test welch_t
"""

from collections import defaultdict

from seqcomplexity import ks_two_sample, spearman
from seqcomplexity.cli import synthetic_corpus
from seqcomplexity.measures import evaluate

rows = synthetic_corpus(seed=42, size=200)
print(f"corpus: {len(rows)} strings, lengths {min(len(p) for *_, p in rows)}"
      f"-{max(len(p) for *_, p in rows)}")

values = defaultdict(list)
by_cat = defaultdict(lambda: defaultdict(list))
for rid, cat, payload in rows:
    for name in ("entropy", "huffman", "rle", "ma_split"):
        v = evaluate(name, payload, {}, None)[0]
        values[name].append(v)
        by_cat[name][cat].append(v)

print("\nrank correlation against the assembly upper bound:")
for name in ("huffman", "rle", "entropy"):
    rho = spearman(values["ma_split"], values[name]).statistic
    print(f"  spearman(ma_split, {name:8s}) = {rho:+.4f}")

print("\nhow well each measure separates repetition from random (KS):")
for name in ("entropy", "huffman", "rle", "ma_split"):
    rep = ks_two_sample(by_cat[name]["repetition"], by_cat[name]["random"])
    print(f"  {name:8s}: D = {rep.statistic:.3f}  p = {rep.p_two_tail:.2e}")
