"""``measures.evaluate``: the defaults it takes and the inputs it refuses."""

from itertools import product

import pytest

from seqcomplexity.bdm import BdmParams, CtmTable, bdm_1d, toy_table_1d, toy_table_2d
from seqcomplexity.ingest import text_to_bits
from seqcomplexity.measures import evaluate

TABLES = {1: toy_table_1d(), 2: toy_table_2d()}
MATRIX = [[0, 1, 1, 0], [1, 0, 0, 1]]


@pytest.mark.parametrize("name, payload", [("bdm1d", "AB"), ("bdm1d", MATRIX), ("bdm2d", MATRIX)])
def test_params_none_means_the_default_params(name, payload):
    want = evaluate(name, payload, TABLES, BdmParams())
    assert evaluate(name, payload, TABLES, None) == evaluate(name, payload, TABLES) == want
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
        evaluate(name, payload, tables)


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
    assert evaluate("bdm1d", payload, {1: table}, params) == (bdm_1d(text_to_bits(payload), table, params), note)
