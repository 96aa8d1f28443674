import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqcomplexity.ingest import (
    binarize_matrix,
    load_dataset,
    load_matrix_csv,
    load_results,
    save_matrix_csv,
    text_to_bits,
    write_results,
)

import oracles


class TestTextToBits:
    def test_ascii_a(self):
        assert text_to_bits("A") == "01000001"

    def test_ascii_ab(self):
        assert text_to_bits("AB") == "0100000101000010"

    def test_two_byte_utf8(self):
        # U+00E9 encodes as 0xC3 0xA9
        assert text_to_bits("é") == "1100001110101001"

    def test_empty(self):
        assert text_to_bits("") == ""

    @pytest.mark.parametrize("s", ["", "\x00", "\x00\x00A", "A\x00", "\u00e9", "\u65e5\u672c", "\U0001f600\x00"])
    def test_edge_cases_equal_per_byte_oracle(self, s):
        assert text_to_bits(s) == oracles.utf8_bits_per_byte(s)

    @given(st.text(max_size=200))
    def test_equals_per_byte_oracle(self, s):
        assert text_to_bits(s) == oracles.utf8_bits_per_byte(s)

    @given(st.text(max_size=40))
    def test_length_and_alphabet(self, s):
        bits = text_to_bits(s)
        assert len(bits) == 8 * len(s.encode("utf-8"))
        assert set(bits) <= {"0", "1"}


class TestBinarize:
    def test_strict_greater(self):
        out = binarize_matrix([[1, 4], [3, 2]], 3)
        assert out == [[0, 1], [0, 0]]

    def test_threshold_below_all(self):
        out = binarize_matrix([[0, 1], [2, 3]], -1)
        assert out == [[1, 1], [1, 1]]

    def test_threshold_at_max(self):
        m = [[1, 4], [3, 2]]
        assert binarize_matrix(m, 4) == [[0, 0], [0, 0]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            binarize_matrix(np.empty((0, 0)), 1)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            binarize_matrix([[1, 2], [3]], 1)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="non-finite threshold"):
            binarize_matrix([[1, 2], [3, 4]], threshold)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_idempotent_on_binary(self, t):
        m = binarize_matrix([[0.2, 5.0], [3.0, 0.0]], 1.0)
        again = binarize_matrix(m, t)
        assert again == m


class TestDatasetIo:
    def _write(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        lines = ["id,category,payload_kind,payload,reference_value"] + rows
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_round_trip_order(self, tmp_path):
        path = self._write(
            tmp_path,
            ["m1,cat1,string,ABC,", "m2,cat2,string,DEF,1.5", "m3,cat1,string,GHI,"],
        )
        records = load_dataset(path)
        assert [r.id for r in records] == ["m1", "m2", "m3"]
        assert records[1].reference_value == 1.5
        assert records[0].reference_value is None

    def test_duplicate_id(self, tmp_path):
        path = self._write(tmp_path, ["m1,c,string,AB,", "m1,c,string,CD,"])
        with pytest.raises(ValueError, match="m1"):
            load_dataset(path)

    def test_unknown_payload_kind(self, tmp_path):
        path = self._write(tmp_path, ["m1,c,graph,AB,"])
        with pytest.raises(ValueError, match="unknown payload kind"):
            load_dataset(path)

    def test_matrix_payload(self, tmp_path):
        (tmp_path / "m.csv").write_text("1,2\n3,4\n")
        path = self._write(tmp_path, ["m1,c,matrix,m.csv,"])
        records = load_dataset(path)
        assert records[0].payload == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("row", ["m1,c,matrix", "m1,c,matrix,,", "m1,c,string,,"])
    def test_missing_payload_names_row(self, tmp_path, row):
        # a short row fails the field count before its payload is looked at
        path = self._write(tmp_path, [row])
        problem = "empty payload" if row.count(",") == 4 else "field count differs from the header"
        with pytest.raises(ValueError, match=f"^row 'm1': {problem}$"):
            load_dataset(path)

    def test_unreadable_matrix_path(self, tmp_path):
        path = self._write(tmp_path, ["m1,c,matrix,missing.csv,"])
        with pytest.raises(ValueError, match="m1"):
            load_dataset(path)

    @pytest.mark.parametrize("content", [b"1,2\n\xff\n", b"1,2\n3,x\n", b"nan,1\n1,0\n", b"1,2\n1e999,0\n"])
    def test_bad_matrix_file_names_row_and_file(self, tmp_path, content):
        (tmp_path / "m.csv").write_bytes(content)
        path = self._write(tmp_path, ["m1,c,matrix,m.csv,"])
        with pytest.raises(ValueError, match="^" + re.escape(f"row 'm1': matrix {tmp_path / 'm.csv'}: ")):
            load_dataset(path)

    @pytest.mark.parametrize("cell, problem", [("notanumber", "non-numeric"), ("nan", "non-finite"), ("1e999", "non-finite")])
    def test_bad_reference_value_names_row(self, tmp_path, cell, problem):
        path = self._write(tmp_path, ["m1,c,string,AB,", f"m2,c,string,CD,{cell}"])
        with pytest.raises(ValueError, match=f"row 'm2': {problem} reference_value '{cell}'"):
            load_dataset(path)

    def test_write_results_format(self, tmp_path):
        out = tmp_path / "res.csv"
        write_results([("m1", "c", "entropy", 1.0 / 3.0, "meta")], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "id,category,measure,value,metadata"
        assert lines[1] == "m1,c,entropy,0.333333333333,meta"

    def test_load_results_keyed_by_id_and_measure_in_file_order(self, tmp_path):
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata,extra\n"
            "m2,b,e,2,x,p\nm1,a,e,,y,q\n\nm1,a,h,1.5,z,r\nm2,b,h,3,w,s\n",
            encoding="utf-8",
        )
        # (category, value) pairs in file order; the extra column is read past
        assert list(load_results(path).items()) == [
            (("m2", "e"), ("b", 2.0)), (("m1", "e"), ("a", None)), (("m1", "h"), ("a", 1.5)), (("m2", "h"), ("b", 3.0)),
        ]

    def test_matrix_csv_round_trip(self, tmp_path):
        m = np.array([[1.0, 2.5], [3.0, 4.0]])
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        assert np.allclose(load_matrix_csv(path), m)

    @pytest.mark.parametrize("m", [[[1, 2], [3]], [[1], [2, 3]], [], [[]]])
    def test_save_rejects_empty_or_ragged(self, tmp_path, m):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match="empty or ragged matrix"):
            save_matrix_csv(m, path)
        assert not path.exists()

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
    def test_save_rejects_non_finite_entry(self, tmp_path, entry):
        # load_matrix_csv refuses such an entry, so no file is written with
        # it; an int past the float range reads as infinite
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=f"^non-finite entry {entry!r}$"):
            save_matrix_csv([[1.5, entry], [0, 1]], path)
        assert not path.exists()

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_matrix_csv(path)
