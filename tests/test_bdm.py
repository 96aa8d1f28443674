import math
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcomplexity import bdm
from seqcomplexity.bdm import (
    BdmParams,
    CtmTable,
    bdm_1d,
    bdm_2d,
    ctm_enumerate,
    ctm_load,
    ctm_save,
    toy_table_1d,
    toy_table_2d,
)

import oracles


@pytest.fixture(scope="module")
def enumerated():
    return ctm_enumerate(2, 2, 30)


def _complement(b):
    return "".join("1" if c == "0" else "0" for c in b)


class TestCtmEnumerate:
    def test_complement_symmetry(self, enumerated):
        for block, bits in enumerated.entries.items():
            assert bits == enumerated.entries[_complement(block)]

    def test_reversal_symmetry(self, enumerated):
        for block, bits in enumerated.entries.items():
            assert bits == enumerated.entries[block[::-1]]

    def test_min_at_length_one(self, enumerated):
        best = min(enumerated.entries, key=lambda b: enumerated.entries[b])
        assert len(best) == 1

    def test_zero_equals_one(self, enumerated):
        assert enumerated.entries["0"] == enumerated.entries["1"]

    def test_positive_bits(self, enumerated):
        assert all(v > 0 for v in enumerated.entries.values())

    def test_unsupported_class(self):
        with pytest.raises(ValueError, match="unsupported"):
            ctm_enumerate(1, 2, 30)
        with pytest.raises(ValueError, match="unsupported"):
            ctm_enumerate(3, 2, 30)

    def test_step_bound_floor(self):
        with pytest.raises(ValueError, match="busy-beaver"):
            ctm_enumerate(2, 2, 5)

    def test_deterministic(self, enumerated):
        again = ctm_enumerate(2, 2, 30)
        assert again == enumerated

    def test_higher_bound_same_table(self, enumerated):
        # every halting (2,2) machine halts within the busy-beaver bound
        assert ctm_enumerate(2, 2, 60) == enumerated

    def test_huge_bound_same_table(self, enumerated):
        table = ctm_enumerate(2, 2, 10**9)
        assert table.entries == enumerated.entries
        assert table.provenance == "enumerated (2,2), 1000000000-step bound"

    def test_no_machine_halts_after_min_bound(self):
        # the premise of simulating at most _MIN_STEP_BOUND steps
        for m in range(10**4):
            cells = [m // 10**k % 10 for k in range(4)]
            for blank in (0, 1):
                assert bdm._run_machine(cells, blank, 200) == bdm._run_machine(
                    cells, blank, bdm._MIN_STEP_BOUND
                )

    def test_provenance(self, enumerated):
        assert enumerated.provenance == "enumerated (2,2), 30-step bound"


class TestBdm1d:
    def test_toy_examples(self):
        toy = toy_table_1d()
        assert bdm_1d("0101", toy) == pytest.approx(3.0 + math.log2(2), abs=1e-12)
        assert bdm_1d("0110", toy) == pytest.approx(5.5, abs=1e-12)
        assert bdm_1d("01", toy) == pytest.approx(3.0, abs=1e-12)

    def test_repetition_law(self):
        toy = toy_table_1d()
        for block, base in toy.entries.items():
            for m in (1, 2, 4, 8):
                assert bdm_1d(block * m, toy) == pytest.approx(base + math.log2(m), abs=1e-12)

    def test_block_order_invariance(self):
        toy = toy_table_1d()
        assert bdm_1d("0011", toy) == bdm_1d("1100", toy)

    def test_boundary_ignore_drops_leftover(self):
        toy = toy_table_1d()
        assert bdm_1d("010", toy) == bdm_1d("01", toy)

    def test_boundary_pad(self):
        toy = toy_table_1d()
        params = BdmParams(block_size=2, boundary="pad", pad_symbol="0")
        assert bdm_1d("010", toy, params) == bdm_1d("0100", toy)

    def test_overlap(self):
        toy = toy_table_1d()
        params = BdmParams(block_size=2, overlap=1)
        # windows of "010" at stride 1: "01", "10"
        assert bdm_1d("010", toy, params) == pytest.approx(3.0 + 2.5, abs=1e-12)

    def test_missing_block_error_names_block(self):
        table = CtmTable(dimension=1, alphabet_size=2, entries={"00": 2.0, "11": 2.0, "01": 3.0})
        with pytest.raises(KeyError, match="10"):
            bdm_1d("0010", table)

    def test_missing_block_entropy_surrogate(self):
        table = CtmTable(dimension=1, alphabet_size=2, entries={"00": 2.0, "11": 2.0, "01": 3.0})
        params = BdmParams(block_size=2, missing_block_policy="entropy_surrogate")
        # surrogate for "10": 2 * H("10") + 1 = 3.0
        assert bdm_1d("0010", table, params) == pytest.approx(2.0 + 3.0, abs=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="not in table alphabet"):
            bdm_1d("0X01", toy_table_1d())

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than block size"):
            bdm_1d("0", toy_table_1d())

    def test_monotone_in_distinct_blocks(self):
        # adding a new distinct block strictly increases the value
        toy = toy_table_1d()
        assert bdm_1d("000011", toy) > bdm_1d("0000", toy)
        assert bdm_1d("00001101", toy) > bdm_1d("000011", toy)

    def test_bdm_at_least_max_block(self):
        toy = toy_table_1d()
        s = "00110110"
        blocks = [s[i : i + 2] for i in range(0, len(s), 2)]
        assert bdm_1d(s, toy) >= max(toy.entries[b] for b in blocks)

    def test_works_with_enumerated_table(self, enumerated):
        v = bdm_1d("0101101001", enumerated)
        assert v > 0

    def test_enumerated_table_ranks_repetition_below_mixed(self, enumerated):
        assert bdm_1d("00" * 16, enumerated) < bdm_1d("00011011" * 4, enumerated)

    @given(st.text(alphabet="01", min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_block_permutation_invariance(self, s):
        toy = toy_table_1d()
        blocks = [s[i : i + 2] for i in range(0, len(s) - len(s) % 2, 2)]
        reordered = "".join(sorted(blocks))
        if blocks:
            assert bdm_1d(s, toy) == pytest.approx(bdm_1d(reordered, toy), abs=1e-9)


# every ternary block of 1-4 symbols, with distinct irrational-looking costs
TERNARY = CtmTable(
    dimension=1,
    alphabet_size=3,
    entries={
        "".join(block): 1.0 + math.sqrt(i + 2)
        for i, block in enumerate(b for k in range(1, 5) for b in product("012", repeat=k))
    },
)
# every second block dropped, so missing blocks take the entropy surrogate
SPARSE = CtmTable(dimension=1, alphabet_size=3, entries=dict(list(TERNARY.entries.items())[::2]))
SIZE_OVERLAP = [(size, overlap) for size in range(1, 5) for overlap in range(size)]


class TestBdm1dSlicedOracle:
    """bdm_1d counts blocks column by column; the oracle slices out every block."""

    @pytest.mark.parametrize("table", [TERNARY, SPARSE], ids=["full", "sparse"])
    @pytest.mark.parametrize("size, overlap", SIZE_OVERLAP)
    @given(s=st.text(alphabet="012", min_size=4, max_size=120), pad=st.sampled_from([None, "0", "2"]))
    @settings(max_examples=40, deadline=None)
    def test_equals_sliced_blocks(self, table, size, overlap, s, pad):
        params = BdmParams(
            block_size=size,
            overlap=overlap,
            boundary="pad" if pad else "ignore",
            pad_symbol=pad,
            missing_block_policy="entropy_surrogate",
        )
        want = oracles.bdm_1d_sliced(s, table.entries, size, overlap, pad, surrogate=True)
        assert bdm_1d(s, table, params) == want

    @pytest.mark.parametrize("size, overlap", SIZE_OVERLAP)
    def test_enumerated_table_on_long_bits(self, enumerated, size, overlap):
        rng = random.Random(size * 10 + overlap)
        s = "".join(rng.choice("01") for _ in range(5001))
        params = BdmParams(block_size=size, overlap=overlap, missing_block_policy="entropy_surrogate")
        want = oracles.bdm_1d_sliced(s, enumerated.entries, size, overlap, surrogate=True)
        assert bdm_1d(s, enumerated, params) == want

    def test_peak_memory_does_not_grow_with_block_count(self):
        # 400,000 blocks; a list of the sliced blocks alone takes about 23 MB
        s = "01" * 400_000
        toy = toy_table_1d()
        tracemalloc.start()
        try:
            value = bdm_1d(s, toy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == toy.entries["01"] + math.log2(400_000)
        assert peak < 4_000_000


class TestBdm2d:
    def test_all_zeros_4x4(self):
        assert bdm_2d(np.zeros((4, 4), int), toy_table_2d()) == pytest.approx(6.0, abs=1e-12)

    def test_all_ones_2x2(self):
        assert bdm_2d(np.ones((2, 2), int), toy_table_2d()) == pytest.approx(4.0, abs=1e-12)

    def test_boundary_ignore_5x5(self):
        assert bdm_2d(np.zeros((5, 5), int), toy_table_2d()) == pytest.approx(6.0, abs=1e-12)

    def test_boundary_pad_5x5(self):
        params = BdmParams(block_shape=(2, 2), boundary="pad", pad_symbol="0")
        v = bdm_2d(np.zeros((5, 5), int), toy_table_2d(), params)
        # padded to 6x6: nine identical zero blocks
        assert v == pytest.approx(4.0 + math.log2(9), abs=1e-12)

    def test_matrix_smaller_than_block(self):
        with pytest.raises(ValueError, match="smaller than block shape"):
            bdm_2d(np.zeros((1, 4), int), toy_table_2d())

    def test_2d_requires_2d_table(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            bdm_2d(np.zeros((4, 4), int), toy_table_1d())

    def test_1d_requires_1d_table(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            bdm_1d("0101", toy_table_2d())

    def test_alphabet_check(self):
        with pytest.raises(ValueError, match="not in table alphabet"):
            bdm_2d(np.full((2, 2), 7), toy_table_2d())

    @pytest.mark.parametrize("m, params", [
        (np.zeros((4, 4), int), None),
        (np.ones((2, 2), int), None),
        (np.zeros((5, 5), int), None),
        (np.zeros((5, 5), int), BdmParams(block_shape=(2, 2), boundary="pad", pad_symbol="0")),
        (np.indices((5, 7)).sum(axis=0) % 2, BdmParams(block_shape=(2, 2), boundary="pad", pad_symbol="1")),
        (
            np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 1], [0, 0, 1, 1, 0]]),
            BdmParams(block_shape=(1, 2), missing_block_policy="entropy_surrogate"),
        ),
    ])
    def test_list_input_equals_ndarray(self, m, params):
        assert bdm_2d(m.tolist(), toy_table_2d(), params) == bdm_2d(m, toy_table_2d(), params)

    @pytest.mark.parametrize("m", [[0, 1, 0, 1], [[0, 1], [0]], [[0, 1], [1, 0, 1]], ["00", "00"], ["0101", "1010"], "0000"])
    def test_not_2d_rejected(self, m):
        with pytest.raises(ValueError, match="input must be a 2D matrix"):
            bdm_2d(m, toy_table_2d())


class TestCtmRoundTrip:
    def test_enumerated_round_trip(self, tmp_path, enumerated):
        path = tmp_path / "ctm22.csv"
        ctm_save(enumerated, path)
        assert ctm_load(path) == enumerated

    def test_2d_round_trip(self, tmp_path):
        path = tmp_path / "toy2d.csv"
        table = toy_table_2d()
        ctm_save(table, path)
        assert ctm_load(path) == table

    def test_save_idempotent_bytes(self, tmp_path, enumerated):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ctm_save(enumerated, p1)
        ctm_save(ctm_load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("block,ctm_bits\n")
        with pytest.raises(ValueError, match="empty table"):
            ctm_load(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("block,ctm_bits\n01,notanumber\n")
        with pytest.raises(ValueError, match="line 2"):
            ctm_load(path)

    def test_duplicate_block_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("block,ctm_bits\n01,2.0\n01,3.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            ctm_load(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("foo,bar\n01,2.0\n")
        with pytest.raises(ValueError, match="line 1"):
            ctm_load(path)


class TestValidation:
    def test_non_positive_bits_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            CtmTable(dimension=1, alphabet_size=2, entries={"0": 0.0})

    def test_overlap_bounds(self):
        with pytest.raises(ValueError, match="overlap"):
            BdmParams(block_size=2, overlap=2)

    def test_pad_requires_symbol(self):
        with pytest.raises(ValueError, match="pad"):
            BdmParams(block_size=2, boundary="pad")
