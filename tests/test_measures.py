"""``measures.evaluate``: the defaults it takes, the inputs it refuses,
and the one count of a payload's symbols that its measures share."""

import os
from itertools import product

import pytest
from hypothesis import given, strategies as st

from seqcomplexity import coding
from seqcomplexity.bdm import BdmParams, CtmTable, bdm_1d, toy_table_1d, toy_table_2d
from seqcomplexity.cli import main
from seqcomplexity.deceiver import GeneratorSpec, divergence_report, generate
from seqcomplexity.ingest import load_dataset, text_to_bits
from seqcomplexity.measures import MEASURES, evaluate

TABLES = {1: toy_table_1d(), 2: toy_table_2d()}
MATRIX = [[0, 1, 1, 0], [1, 0, 0, 1]]


@pytest.mark.parametrize("name, payload", [("bdm1d", "AB"), ("bdm1d", MATRIX), ("bdm2d", MATRIX)])
def test_params_none_means_the_default_params(name, payload):
    (want,) = evaluate([name], payload, TABLES, BdmParams())
    assert [*evaluate([name], payload, TABLES, None)] == [*evaluate([name], payload, TABLES)] == [want]
    assert want[0] is not None


@pytest.mark.parametrize("name, payload, tables, message", [
    # "B" is 01000010: its last block, 10, is not in the table
    ("bdm1d", "B", {1: CtmTable(1, {"00": 2.0, "11": 2.0, "01": 3.0})}, "^block '10' absent from CTM table$"),
    ("x", "AB", TABLES, "^unknown measure 'x'; choose from entropy,huffman,rle,lzw,ma_exact,ma_split,bdm1d,bdm2d$"),
    ("bdm1d", "AB", {2: toy_table_2d()}, "^bdm1d needs a 1D CTM table$"),
    ("bdm2d", MATRIX, {1: toy_table_1d(), 2: None}, "^bdm2d needs a 2D CTM table$"),
], ids=["missing_block", "unknown_measure", "no_1d_table", "no_2d_table"])
def test_rejection_is_value_error(name, payload, tables, message):
    with pytest.raises(ValueError, match=message):
        list(evaluate([name], payload, tables))


@pytest.mark.parametrize("params, note", [
    (BdmParams(block_size=2), "block=2;overlap=0;boundary=ignore;input=utf8_bits"),
    (BdmParams(block_size=3), "block=3;overlap=0;boundary=ignore;input=utf8_bits"),
    (BdmParams(block_size=2, overlap=1), "block=2;overlap=1;boundary=ignore;input=utf8_bits"),
    (BdmParams(block_size=3, pad_symbol="0"), "block=3;overlap=0;boundary=pad;input=utf8_bits"),
], ids=["block2", "block3", "overlap1", "pad"])
@pytest.mark.parametrize("payload", ["é", "naïve €5", "😀 x", "ab́c"])
def test_bdm1d_reads_the_utf8_bits_of_a_string(params, note, payload):
    # evaluate hands over the UTF-8 bytes; the value is that of the spelled bits
    table = CtmTable(1, {"".join(b): 1.0 + i for i, b in enumerate(product("01", repeat=3))} | TABLES[1].entries)
    assert [*evaluate(["bdm1d"], payload, {1: table}, params)] == [(bdm_1d(text_to_bits(payload), table, params), note)]


CORPUS = os.path.join(os.path.dirname(__file__), "data", "synthetic_corpus.csv")
STRING_MEASURES = [m for m in MEASURES if m not in ("ma_exact", "bdm2d")]


@given(st.text(min_size=2, max_size=40))
def test_measures_together_give_what_each_gives_alone(s):
    together = list(evaluate(STRING_MEASURES, s, TABLES))
    assert together == [next(evaluate([m], s, TABLES)) for m in STRING_MEASURES]
    # the count the caller hands in is the one evaluate would take
    assert list(evaluate(STRING_MEASURES, s, TABLES, counts=coding._symbol_counts(s))) == together


def test_matrix_measures_together_give_what_each_gives_alone():
    names = ["entropy", "huffman", "lzw", "bdm1d", "bdm2d"]
    assert list(evaluate(names, MATRIX, TABLES)) == [next(evaluate([m], MATRIX, TABLES)) for m in names]


@pytest.fixture
def counted(monkeypatch):
    """Every argument ``coding._symbol_counts`` is called with, in order."""
    calls = []
    count = coding._symbol_counts
    monkeypatch.setattr(coding, "_symbol_counts", lambda s: calls.append(s) or count(s))
    return calls


@pytest.mark.parametrize("measures, counted_once", [
    ("entropy,huffman,lzw,bdm1d", True),
    ("rle,ma_split", False),
])
def test_measure_counts_each_record_once(tmp_path, counted, measures, counted_once):
    # the string, never its UTF-8 bytes: bdm1d's byte counts are derived
    args = ["measure", "--input", CORPUS, "--out", str(tmp_path / "r.csv"), "--measures", measures, "--toy-ctm"]
    assert main(args) == 0
    assert counted == ([r.payload for r in load_dataset(CORPUS)] if counted_once else [])


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="champernowne", base=10, length=3000),
    GeneratorSpec(kind="modular", seed="AB\u4e2d", period=7, steps=300, extension_symbols=("\U0001f600", "C")),
], ids=["champernowne", "modular"])
def test_divergence_report_counts_its_string_once(counted, spec):
    s = generate(spec)
    measures = ("entropy", "huffman", "rle", "lzw", "bdm1d")
    rep = divergence_report(s, spec, measures=measures, ctm_table=toy_table_1d())
    assert counted == [s]
    assert rep.measures == {m: float(v) for m, (v, _) in zip(measures, evaluate(measures, s, TABLES))}
