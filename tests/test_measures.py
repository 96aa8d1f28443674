"""``measures.evaluate``: the defaults it takes and the inputs it refuses."""

import pytest

from seqcomplexity.bdm import BdmParams, CtmTable, toy_table_1d, toy_table_2d
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
