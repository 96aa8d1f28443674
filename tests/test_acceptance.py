"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Criterion 4 is exhaustive and takes
a couple of minutes; everything else is fast.
"""

import csv
import math
import os
import time
from itertools import product

import numpy as np
import pytest

from seqcomplexity.assembly import assembly_index_exact, assembly_index_split, verify_pathway
from seqcomplexity.bdm import bdm_1d, bdm_2d, ctm_enumerate, toy_table_1d, toy_table_2d
from seqcomplexity.cli import main
from seqcomplexity.coding import huffman, shannon_entropy
from seqcomplexity.deceiver import GeneratorSpec, champernowne, divergence_report, generate
from seqcomplexity.ingest import load_dataset
from seqcomplexity.stats import ks_two_sample, pearson, spearman, student_t_sf, welch_t

import oracles

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS = os.path.join(DATA_DIR, "synthetic_corpus.csv")

# regression pins, computed once on the bundled seed-42 corpus
PINNED_SPEARMAN_MA_HUFFMAN = 0.885216041981
PINNED_SPEARMAN_MA_RLE = 0.8538796398


def _report(k, name):
    print(f"[acceptance] criterion {k:2d} ({name}): PASS")


def test_criterion_01_exact_assembly_abracadabra():
    t0 = time.monotonic()
    index, pathway = assembly_index_exact("ABRACADABRA")
    elapsed = time.monotonic() - t0
    assert index == 7
    assert verify_pathway(pathway, "ABRACADABRA")
    assert elapsed < 10.0
    _report(1, "assembly index of ABRACADABRA = 7")


def test_criterion_02_huffman_abracadabra():
    res = huffman("ABRACADABRA")
    assert res.tree_levels == 4
    assert res.total_bits == 23
    t0 = time.monotonic()
    optimum = oracles.brute_force_prefix_code_bits({"A": 5, "B": 2, "R": 2, "C": 1, "D": 1})
    assert time.monotonic() - t0 < 1.0
    assert res.total_bits == optimum == 23
    _report(2, "Huffman ABRACADABRA: 4 levels, 23 bits, oracle-optimal")


def test_criterion_03_doubling_law_powers_of_two():
    t0 = time.monotonic()
    for k in range(5):
        index, _ = assembly_index_exact("A" * (2**k))
        assert index == k, f"2^{k}"
    assert time.monotonic() - t0 < 30.0
    _report(3, "doubling law on A^(2^k), k in 0..4")


def test_criterion_04_split_dominates_exact_exhaustively():
    t0 = time.monotonic()
    checked = 0
    for length in range(1, 13):
        for tup in product("AB", repeat=length):
            s = "".join(tup)
            exact, _ = assembly_index_exact(s)
            upper, _ = assembly_index_split(s)
            assert upper >= exact, s
            checked += 1
    assert checked == 8190
    # equality on the pure-repetition subset
    for length in range(1, 13):
        for c in "AB":
            s = c * length
            assert assembly_index_split(s)[0] == assembly_index_exact(s)[0], s
    assert time.monotonic() - t0 < 600.0
    _report(4, "split >= exact on all 8190 binary strings, equal on repetitions")


def test_criterion_05_huffman_optimality_seeded():
    import random

    rng = random.Random(20240242)
    for _ in range(1000):
        k = rng.randint(1, 4)
        s = "".join(rng.choice("WXYZ"[:k]) for _ in range(rng.randint(1, 10)))
        counts = {}
        for ch in s:
            counts[ch] = counts.get(ch, 0) + 1
        assert huffman(s).total_bits == oracles.brute_force_prefix_code_bits(counts), s
    _report(5, "Huffman equals brute-force optimum on 1000 seeded cases")


def test_criterion_06_coding_sandwich_on_corpus():
    records = load_dataset(CORPUS)
    assert len(records) == 200
    violations = 0
    for record in records:
        s = record.payload
        h = shannon_entropy(s)
        total = huffman(s).total_bits
        if not (len(s) * h <= total < len(s) * (h + 1)):
            violations += 1
    assert violations == 0
    _report(6, "entropy sandwich holds for all 200 corpus strings")


def test_criterion_07_ctm_enumeration():
    t0 = time.monotonic()
    table = ctm_enumerate(2, 2, 30)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    comp = str.maketrans("01", "10")
    for block, bits in table.entries.items():
        assert bits == table.entries[block.translate(comp)]
        assert bits == table.entries[block[::-1]]
    assert len(min(table.entries, key=lambda b: table.entries[b])) == 1
    _report(7, "CTM (2,2) enumeration: symmetric, min at length-1 block")


def test_criterion_08_bdm_formula_checks():
    toy = toy_table_1d()
    for block, base in toy.entries.items():
        for m in (1, 2, 4, 8):
            value = bdm_1d(block * m, toy)
            assert abs(value - (base + math.log2(m))) <= 1e-12
    assert bdm_2d(np.zeros((5, 5), int), toy_table_2d()) == 6.0
    _report(8, "BDM repetition law to 1e-12 and 2D boundary example")


def test_criterion_09_statistics_oracles():
    assert abs(pearson([1, 2, 3], [2, 4, 6]).statistic - 1.0) <= 1e-12
    assert abs(pearson([1, 2, 3], [3, 2, 1]).statistic + 1.0) <= 1e-12
    assert abs(pearson([1, 2, 3], [1, 3, 2]).statistic - 0.5) <= 1e-12
    assert abs(spearman([1, 2, 3], [1, 4, 9]).statistic - 1.0) <= 1e-12
    assert abs(spearman([1, 2, 3], [9, 4, 1]).statistic + 1.0) <= 1e-12
    assert abs(spearman([1, 2, 3], [1, 3, 2]).statistic - 0.5) <= 1e-12

    rep = welch_t([1, 2, 3], [2, 3, 4])
    assert abs(rep.statistic - (-1.224745)) <= 1e-6
    assert abs(rep.df - 4.0) <= 1e-9
    assert abs(rep.p_two_tail - 0.288) <= 1e-3
    oracle_p = 2 * oracles.student_t_sf_trapezoid(abs(rep.statistic), rep.df)
    assert abs(rep.p_two_tail - oracle_p) <= 1e-3

    assert ks_two_sample([1, 2, 3], [4, 5, 6]).statistic == 1.0
    assert ks_two_sample([1, 2, 3], [1, 2, 3]).statistic == 0.0
    assert ks_two_sample([1, 3], [2, 4]).statistic == 0.5

    worst = 0.0
    for df in (1.0, 2.0, 4.0, 10.0, 100.0):
        for t in np.linspace(-10.0, 10.0, 41):
            worst = max(
                worst,
                abs(student_t_sf(float(t), df) - oracles.student_t_sf_trapezoid(float(t), df)),
            )
    assert worst <= 1e-6
    _report(9, "closed-form stats examples and t-CDF vs integration oracle")


def test_criterion_10_corpus_correlations_via_cli(tmp_path):
    results = str(tmp_path / "results.csv")
    assert (
        main(["measure", "--input", CORPUS, "--out", results, "--measures", "ma_split,huffman,rle"])
        == 0
    )
    pins = {
        ("ma_split", "huffman"): PINNED_SPEARMAN_MA_HUFFMAN,
        ("ma_split", "rle"): PINNED_SPEARMAN_MA_RLE,
    }
    for (x, y), pinned in pins.items():
        row_path = str(tmp_path / f"corr_{y}.csv")
        code = main([
            "correlate", "--input", results, "--x", x, "--y", y,
            "--method", "spearman", "--out", row_path,
        ])
        assert code == 0
        with open(row_path, newline="") as fh:
            row = next(csv.DictReader(fh))
        rho = float(row["statistic"])
        assert rho >= 0.8, (x, y, rho)
        assert rho == pytest.approx(pinned, abs=1e-9), (x, y, rho)
    _report(10, "corpus Spearman(ma_split, huffman/rle) >= 0.8, pinned")


def test_criterion_11_deceiver_divergence():
    spec = GeneratorSpec(kind="champernowne", base=10, length=1000)
    rep = divergence_report(generate(spec), spec)
    assert rep.normalized_entropy > 0.95
    assert rep.description_bits < 100

    # doubling-friendly pure repetitions: split stays within the log bound
    for steps in (2, 4, 8, 16, 32, 64, 128, 256, 1024):
        spec = GeneratorSpec(kind="modular", seed="A", period=steps + 1, steps=steps)
        out = generate(spec)
        assert out == "A" * steps
        upper, _ = assembly_index_split(out)
        assert upper <= math.ceil(math.log2(steps)) + 2, steps
    _report(11, "deceivers: near-max entropy vs tiny description; log-bound splits")


def test_criterion_12_pipeline_determinism(tmp_path):
    t0 = time.monotonic()
    outputs = []
    for tag in ("a", "b"):
        measured = str(tmp_path / f"measured_{tag}.csv")
        classified = str(tmp_path / f"classified_{tag}.csv")
        assert (
            main([
                "measure", "--input", CORPUS, "--out", measured,
                "--measures", "entropy,huffman,rle,lzw,ma_split",
            ])
            == 0
        )
        assert (
            main([
                "classify", "--input", measured,
                "--test", "welch_t", "--out", classified,
            ])
            == 0
        )
        with open(measured, "rb") as fh:
            m_bytes = fh.read()
        with open(classified, "rb") as fh:
            c_bytes = fh.read()
        outputs.append((m_bytes, c_bytes))
    assert outputs[0] == outputs[1]
    assert time.monotonic() - t0 < 120.0
    _report(12, "measure + classify re-runs byte-identical")
