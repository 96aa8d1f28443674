import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcomplexity.ingest import (
    binarize_matrix,
    load_dataset,
    load_matrix_csv,
    sdf_distance_matrix,
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

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_idempotent_on_binary(self, t):
        m = binarize_matrix([[0.2, 5.0], [3.0, 0.0]], 1.0)
        again = binarize_matrix(m, t)
        assert again == m


SDF_TWO_ATOMS = """mol
  test

  2  1  0  0  0  0  0  0  0  0999 V2000
    0.0000    0.0000    0.0000 C   0  0  0  0  0  0  0  0  0  0  0  0
    3.0000    4.0000    0.0000 O   0  0  0  0  0  0  0  0  0  0  0  0
  1  2  1  0
M  END
"""


class TestSdf:
    def test_three_four_five(self):
        m = sdf_distance_matrix(SDF_TWO_ATOMS)
        assert m == [[0.0, 5.0], [5.0, 0.0]]

    def test_single_atom(self):
        text = "m\n\n\n  1  0  0\n    1.0    2.0    3.0 C\nM  END\n"
        assert sdf_distance_matrix(text) == [[0.0]]

    def test_missing_atom_lines(self):
        text = "m\n\n\n  3  0  0\n 0 0 0 C\n 1 1 1 C\n"
        with pytest.raises(ValueError, match="atom lines"):
            sdf_distance_matrix(text)

    def test_malformed_counts(self):
        with pytest.raises(ValueError, match="line 4"):
            sdf_distance_matrix("m\n\n\nxyz\n")

    def test_non_numeric_coordinate_line(self):
        text = "m\n\n\n  1  0  0\n a b c C\n"
        with pytest.raises(ValueError, match="line 5"):
            sdf_distance_matrix(text)

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, coords):
        lines = ["m", "", "", f"{len(coords):3d}  0  0"]
        for x, y, z in coords:
            lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} C")
        m = sdf_distance_matrix("\n".join(lines))
        n = len(coords)
        assert np.allclose(m, list(zip(*m)))
        assert np.allclose([m[i][i] for i in range(n)], 0.0)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i][j] <= m[i][k] + m[k][j] + 1e-6


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

    def test_unreadable_matrix_path(self, tmp_path):
        path = self._write(tmp_path, ["m1,c,matrix,missing.csv,"])
        with pytest.raises(ValueError, match="m1"):
            load_dataset(path)

    def test_bad_reference_value_names_row(self, tmp_path):
        path = self._write(tmp_path, ["m1,c,string,AB,", "m2,c,string,CD,notanumber"])
        with pytest.raises(ValueError, match="row 'm2': non-numeric reference_value 'notanumber'"):
            load_dataset(path)

    def test_write_results_format(self, tmp_path):
        out = tmp_path / "res.csv"
        write_results([("m1", "c", "entropy", 1.0 / 3.0, "meta")], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "id,category,measure,value,metadata"
        assert lines[1] == "m1,c,entropy,0.333333333333,meta"

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

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_matrix_csv(path)
