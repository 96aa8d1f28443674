import csv
import math
import os
import re
import stat

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
    write_csv,
    write_results,
    write_text,
)
from seqcomplexity.cli import main

import oracles

CORPUS = os.path.join(os.path.dirname(__file__), "data", "synthetic_corpus.csv")


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

    def test_one_row_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv([[1, 2.5]], path)
        assert path.read_bytes() == b"1,2.5\r\n"
        assert load_matrix_csv(path) == [[1.0, 2.5]]

    def test_row_of_two_cells_with_blank_first_is_read(self, tmp_path):
        # only a line whose one cell is blank is skipped; ",3" is a row
        path = tmp_path / "m.csv"
        path.write_text("1,2\n\n  \n,3\n")
        with pytest.raises(ValueError, match="^line 4: non-numeric entry ''$"):
            load_matrix_csv(path)

    def test_empty_file_header_is_line_1(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="^line 1: header lacks id, category, payload_kind, payload, reference_value$"):
            load_dataset(path)

    @pytest.mark.parametrize("column", ["id", "metadata"])
    def test_header_naming_a_column_twice_names_it_and_its_line(self, tmp_path, column):
        path = tmp_path / "res.csv"
        path.write_text(f"\nid,category,measure,value,metadata,{column}\nm1,a,e,1,x,y\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line 2: header names '{column}' twice$"):
            load_results(path)

    def test_repeated_results_row_named(self, tmp_path):
        path = tmp_path / "res.csv"
        path.write_text("id,category,measure,value,metadata\nm1,a,e,1,x\nm1,a,h,2,x\nm1,a,e,3,x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^row 'm1': measure 'e' repeated$"):
            load_results(path)


# each writer with a payload and the bytes it writes
WRITERS = [
    pytest.param(write_csv, [["a", "b,c"], ["d"]], b'a,"b,c"\r\nd\r\n', id="write_csv"),
    pytest.param(write_text, "a\nb\r\n", b"a\nb\r\n", id="write_text"),
]


class TestWriters:
    """Both writers overwrite the target in place and cut it to the bytes
    written, leaving what ``open(path, "w")`` would."""

    @pytest.mark.parametrize("write, payload, expected", WRITERS)
    def test_shorter_rewrite_leaves_only_new_bytes_in_same_inode(self, tmp_path, write, payload, expected):
        path = tmp_path / "out"
        path.write_bytes(b"old tail " * 1000)
        inode = path.stat().st_ino
        write(path, payload)
        assert path.read_bytes() == expected
        assert path.stat().st_ino == inode

    @pytest.mark.parametrize("write, payload, expected", WRITERS)
    def test_target_opened_without_o_trunc(self, tmp_path, monkeypatch, write, payload, expected):
        # on ext4 an O_TRUNC open of a file closed a moment before waits for its writeback
        flags = []
        real_open = os.open
        monkeypatch.setattr(os, "open", lambda path, flag, mode=0o777: flags.append(flag) or real_open(path, flag, mode))
        write(tmp_path / "out", payload)
        assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC

    @pytest.mark.parametrize("umask", [0o000, 0o022])
    @pytest.mark.parametrize("write, payload, expected", WRITERS)
    def test_new_file_mode_is_0o666_under_umask(self, tmp_path, write, payload, expected, umask):
        old = os.umask(umask)
        try:
            write(tmp_path / "out", payload)
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize(
        "write, payload, reference",
        [
            (write_csv, [["ok"], ["\udc80"], ["never"]], lambda fh, rows: csv.writer(fh).writerows(rows)),
            (write_text, "ok\udc80", lambda fh, text: fh.write(text)),
        ],
        ids=["write_csv", "write_text"],
    )
    def test_unencodable_payload_leaves_what_a_truncating_open_leaves(self, tmp_path, write, payload, reference):
        path, ref = tmp_path / "out", tmp_path / "ref"
        for target in (path, ref):
            target.write_bytes(b"old tail " * 1000)
        with pytest.raises(UnicodeEncodeError):
            write(path, payload)
        with pytest.raises(UnicodeEncodeError), open(ref, "w", encoding="utf-8", newline="") as fh:
            reference(fh, payload)
        assert path.read_bytes() == ref.read_bytes()
        assert b"old" not in path.read_bytes()

    @pytest.mark.parametrize("write, payload, expected", WRITERS)
    def test_devnull_is_written_without_a_cut(self, write, payload, expected):
        write(os.devnull, payload)

    @pytest.mark.parametrize(
        "argv",
        [["measure", "--input", CORPUS, "--measures", "entropy"], ["tree", "--string", "abab"]],
        ids=["write_csv", "write_text"],
    )
    def test_directory_out_exits_1(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
