import dataclasses
import functools
import math
import random
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcomplexity import bdm, coding
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
                assert oracles.run_machine(cells, blank, 200) == oracles.run_machine(
                    cells, blank, bdm._MIN_STEP_BOUND
                )

    @pytest.mark.parametrize("bound", [6, 30, 10**9])
    def test_equals_brute_force(self, bound):
        # the brute force runs each table alone, for at most the 200 steps
        # of the premise test above
        table = ctm_enumerate(2, 2, bound)
        expected = oracles.ctm_2_2_entries(min(bound, 200))
        assert list(table.entries.items()) == list(expected.items())
        assert table.provenance == f"enumerated (2,2), {bound}-step bound"

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
        params = BdmParams(block_size=2, pad_symbol="0")
        assert bdm_1d("010", toy, params) == bdm_1d("0100", toy)

    def test_overlap(self):
        toy = toy_table_1d()
        params = BdmParams(block_size=2, overlap=1)
        # windows of "010" at stride 1: "01", "10"
        assert bdm_1d("010", toy, params) == pytest.approx(3.0 + 2.5, abs=1e-12)

    def test_overlap_pads_nothing_when_the_last_block_ends_the_input(self):
        # at stride 1 every window fits, so a pad symbol adds no block:
        # "01", "10", "01" give 3 + log2(2) + 2.5
        toy = toy_table_1d()
        padded = BdmParams(block_size=2, overlap=1, pad_symbol="0")
        assert bdm_1d("0101", toy, padded) == 6.5
        for s in ("010", "0110", "1101001"):
            assert bdm_1d(s, toy, padded) == bdm_1d(s, toy, BdmParams(block_size=2, overlap=1))

    def test_missing_block_error_names_block(self):
        table = CtmTable(dimension=1, entries={"00": 2.0, "11": 2.0, "01": 3.0})
        with pytest.raises(ValueError, match="^block '10' absent from CTM table$"):
            bdm_1d("0010", table)

    def test_missing_block_entropy_surrogate(self):
        table = CtmTable(dimension=1, entries={"00": 2.0, "11": 2.0, "01": 3.0})
        params = BdmParams(block_size=2, missing_block_policy="entropy_surrogate")
        # surrogate for "10": 2 * H("10") + 1 = 3.0
        assert bdm_1d("0010", table, params) == pytest.approx(2.0 + 3.0, abs=1e-12)

    def test_alphabet_mismatch(self, enumerated):
        with pytest.raises(ValueError, match="not in table alphabet"):
            bdm_1d("0X01", toy_table_1d())
        # int(s, 2) also reads underscores, surrounding whitespace and a sign
        for s, bad in [("0_1" * 8, "_"), (" 0101010", " "), ("0101\n0101", "\n"), ("+0101010", "+")]:
            for table, size in product([BINARY, enumerated], [1, 2, 4, 8]):
                with pytest.raises(ValueError, match=re.escape(f"symbols {[bad]} not in table alphabet")):
                    bdm_1d(s, table, BdmParams(block_size=size))

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than block size"):
            bdm_1d("0", toy_table_1d())

    @pytest.mark.parametrize("s", ["01010011", "0110100111", "0" * 16 + "1"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_list_and_tuple_equal_joined_string(self, s, size):
        params = BdmParams(block_size=size)
        want = bdm_1d(s, BINARY, params)
        assert bdm_1d(list(s), BINARY, params) == want
        assert bdm_1d(tuple(s), BINARY, params) == want

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
    entries={
        "".join(block): 1.0 + math.sqrt(i + 2)
        for i, block in enumerate(b for k in range(1, 5) for b in product("012", repeat=k))
    },
)
# every second block dropped, so missing blocks take the entropy surrogate
SPARSE = CtmTable(dimension=1, entries=dict(list(TERNARY.entries.items())[::2]))
# every binary block of 1-4 symbols
BINARY = CtmTable(
    dimension=1,
    entries={
        "".join(block): 1.0 + math.sqrt(i + 2)
        for i, block in enumerate(b for k in range(1, 5) for b in product("01", repeat=k))
    },
)
# 16 symbols, blocks of 1-2 only
HEX = CtmTable(
    dimension=1,
    entries={
        "".join(block): 1.0 + math.sqrt(i + 2)
        for i, block in enumerate(b for k in (1, 2) for b in product("0123456789abcdef", repeat=k))
    },
)
SIZE_OVERLAP = [(size, overlap) for size in range(1, 5) for overlap in range(size)]


class TestBdm1dSlicedOracle:
    """bdm_1d counts blocks column by column; the oracle slices out every block."""

    @pytest.mark.parametrize(
        "table", [TERNARY, SPARSE, BINARY, HEX], ids=["full", "sparse", "binary", "hex"]
    )
    @pytest.mark.parametrize("size, overlap", SIZE_OVERLAP)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_sliced_blocks(self, table, size, overlap, data):
        symbols = "".join(sorted(table.alphabet))
        s = data.draw(st.text(alphabet=symbols, min_size=4, max_size=120), label="s")
        pad = data.draw(st.sampled_from([None, symbols[0], symbols[-1]]), label="pad")
        params = BdmParams(
            block_size=size,
            overlap=overlap,
            pad_symbol=pad,
            missing_block_policy="entropy_surrogate",
        )
        want = oracles.bdm_1d_sliced(s, table.entries, size, overlap, pad, surrogate=True)
        assert bdm_1d(s, table, params) == want

    @pytest.mark.parametrize("table", [TERNARY, BINARY, HEX], ids=["ternary", "binary", "hex"])
    @pytest.mark.parametrize("size, overlap", SIZE_OVERLAP)
    def test_every_leftover_block_count(self, table, size, overlap):
        # every count of 1 to 17 blocks, with a leftover tail shorter than a stride
        stride = size - overlap
        symbols = sorted(table.alphabet)
        rng = random.Random(size * 10 + overlap)
        for n in range(1, 18):
            length = (n - 1) * stride + size + rng.randrange(stride)
            pool = symbols[: rng.choice([2, len(symbols)])]
            s = "".join(rng.choice(pool) for _ in range(length))
            for pad in (None, symbols[-1]):
                params = BdmParams(
                    block_size=size,
                    overlap=overlap,
                    pad_symbol=pad,
                    missing_block_policy="entropy_surrogate",
                )
                want = oracles.bdm_1d_sliced(s, table.entries, size, overlap, pad, surrogate=True)
                assert bdm_1d(s, table, params) == want, (s, pad)

    # the symbol outside the alphabet sits after the last block, where no
    # block and, without a pad symbol, no padded block ever reads it
    @pytest.mark.parametrize(
        "s, size",
        [("01012", 2), ("01" * 4 + "2", 2), ("0" * 18 + "2", 3), ("0" * 16 + "12", 4)],
        ids=["2-blocks", "4-blocks", "6-blocks-of-3", "4-blocks-of-4"],
    )
    def test_bad_symbol_only_in_dropped_tail_rejected(self, s, size):
        with pytest.raises(ValueError, match=r"symbols \['2'\] not in table alphabet"):
            bdm_1d(s, BINARY, BdmParams(block_size=size))

    # ... and here in the last block
    @pytest.mark.parametrize("s, size", [("0" * 8 + "20", 2), ("0" * 16 + "2", 1)])
    def test_bad_symbol_only_in_leftover_block_rejected(self, s, size):
        with pytest.raises(ValueError, match=r"symbols \['2'\] not in table alphabet"):
            bdm_1d(s, BINARY, BdmParams(block_size=size))

    # bit strings under a table that has a third symbol, which may pad them
    @pytest.mark.parametrize("size", [1, 2, 4])
    @given(s=st.text(alphabet="01", min_size=4, max_size=120), pad=st.sampled_from([None, "0", "2"]))
    @settings(max_examples=40, deadline=None)
    def test_bits_with_ternary_table(self, size, s, pad):
        params = BdmParams(block_size=size, pad_symbol=pad)
        assert bdm_1d(s, TERNARY, params) == oracles.bdm_1d_sliced(s, TERNARY.entries, size, 0, pad)

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


@functools.cache
def _bytes_table(name):
    return ctm_enumerate(2, 2, 30) if name == "enumerated" else toy_table_1d()


class TestBdm1dBytes:
    """bdm_1d reads ``bytes`` as the string of their bits, MSB first: as
    bytes when its blocks tile each byte, spelled out as bits otherwise."""

    def test_bytes_counted_only_when_blocks_tile_them(self, monkeypatch):
        # the input's type and the partition choose how blocks are counted, never its content
        calls = []
        count = coding._symbol_counts
        monkeypatch.setattr(coding, "_symbol_counts", lambda s: calls.append(s) or count(s))
        data = bytes(range(0, 256, 7))
        bdm_1d("01" * 64, BINARY)
        bdm_1d(data, BINARY, BdmParams(block_size=3))
        bdm_1d(data, BINARY, BdmParams(block_size=2, overlap=1))
        assert calls == []
        bdm_1d(data, BINARY)
        assert calls == [data]

    @pytest.mark.parametrize("table", ["enumerated", "toy"])
    @pytest.mark.parametrize("size, overlap", [(size, overlap) for size in range(1, 9) for overlap in range(size)])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_equals_sliced_blocks_of_the_bits(self, table, size, overlap, data):
        table = _bytes_table(table)
        b = data.draw(
            st.one_of(st.text(st.characters(min_codepoint=0x80, codec="utf-8"), min_size=1, max_size=12).map(str.encode),
                      st.binary(min_size=1, max_size=40)),
            label="b",
        )
        pad = data.draw(st.sampled_from([None, "0", "1"]), label="pad")
        surrogate = data.draw(st.booleans(), label="surrogate")
        params = BdmParams(
            block_size=size,
            overlap=overlap,
            pad_symbol=pad,
            missing_block_policy="entropy_surrogate" if surrogate else "error",
        )
        bits = "".join(format(byte, "08b") for byte in b)
        try:
            want = oracles.bdm_1d_sliced(bits, table.entries, size, overlap, pad, surrogate)
        except KeyError:
            with pytest.raises(ValueError, match="absent from CTM table"):
                bdm_1d(b, table, params)
        else:
            assert bdm_1d(b, table, params) == want

    @pytest.mark.parametrize("size, overlap", [(1, 0), (2, 0), (3, 0), (2, 1), (4, 0)])
    @given(s=st.one_of(st.binary(min_size=8), st.text(alphabet="01", min_size=8)))
    @settings(max_examples=20)
    def test_same_value_with_and_without_counts(self, size, overlap, s):
        params = BdmParams(block_size=size, overlap=overlap)
        assert bdm_1d(s, BINARY, params, counts=coding._symbol_counts(s)) == bdm_1d(s, BINARY, params)

    @given(st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=40))
    def test_derived_byte_counts_give_the_value_of_counted_bytes(self, s):
        b, counts = coding._utf8(s, coding._symbol_counts(s))
        assert bdm_1d(b, BINARY, counts=counts) == bdm_1d(b, BINARY)

    @pytest.mark.parametrize("size, overlap", [(1, 0), (2, 0), (3, 0), (2, 1), (8, 0)])
    def test_no_bytes_shorter_than_a_block(self, size, overlap):
        with pytest.raises(ValueError, match=f"^input shorter than block size {size}$"):
            bdm_1d(b"", toy_table_1d(), BdmParams(block_size=size, overlap=overlap))


class TestBdm2d:
    def test_all_zeros_4x4(self):
        assert bdm_2d(np.zeros((4, 4), int), toy_table_2d()) == pytest.approx(6.0, abs=1e-12)

    def test_all_ones_2x2(self):
        assert bdm_2d(np.ones((2, 2), int), toy_table_2d()) == pytest.approx(4.0, abs=1e-12)

    def test_boundary_ignore_5x5(self):
        assert bdm_2d(np.zeros((5, 5), int), toy_table_2d()) == pytest.approx(6.0, abs=1e-12)

    def test_boundary_pad_5x5(self):
        params = BdmParams(block_shape=(2, 2), pad_symbol="0")
        v = bdm_2d(np.zeros((5, 5), int), toy_table_2d(), params)
        # padded to 6x6: nine identical zero blocks
        assert v == pytest.approx(4.0 + math.log2(9), abs=1e-12)

    def test_single_row_padded(self):
        # one row fills one block row: padding adds columns and no row
        table = CtmTable(dimension=2, entries={(1, 2, "01"): 1.0, (1, 2, "10"): 2.0})
        params = BdmParams(block_shape=(1, 2), pad_symbol="0")
        assert bdm_2d([[0, 1, 1]], table, params) == 3.0

    def test_toy_2d_values(self):
        uniform, alternating = {"0000", "1111"}, {"0101", "1010"}
        expected = {
            (2, 2, b): 4.0 if b in uniform else 5.0 if b in alternating else 4.5
            for b in (format(v, "04b") for v in range(16))
        }
        assert toy_table_2d().entries == expected

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
        (np.zeros((5, 5), int), BdmParams(block_shape=(2, 2), pad_symbol="0")),
        (np.indices((5, 7)).sum(axis=0) % 2, BdmParams(block_shape=(2, 2), pad_symbol="1")),
        (
            np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 1], [0, 0, 1, 1, 0]]),
            BdmParams(block_shape=(1, 2), missing_block_policy="entropy_surrogate"),
        ),
    ])
    def test_list_input_equals_ndarray(self, m, params):
        assert bdm_2d(m.tolist(), toy_table_2d(), params) == bdm_2d(m, toy_table_2d(), params)
        assert bdm_2d((row for row in m.tolist()), toy_table_2d(), params) == bdm_2d(m, toy_table_2d(), params)

    @pytest.mark.parametrize("m", [
        [0, 1, 0, 1], [[0, 1], [0]], [[0, 1], [1, 0, 1]], ["00", "00"], ["0101", "1010"], "0000",
        [[0, 1], [1, "x"]], [[0, None], [1, 0]], np.zeros((2, 2, 2)),
    ])
    def test_not_2d_rejected(self, m):
        with pytest.raises(ValueError, match="input must be a 2D matrix"):
            bdm_2d(m, toy_table_2d())

    @pytest.mark.parametrize("m, entry", [
        ([[0.7, 1], [1, 0]], 0.7),
        ([[0, 1], [1, 1.5]], 1.5),
        (np.array([[0, 1], [0.5, 0]]), np.float64(0.5)),
        ([[float("inf"), 1], [1, 0]], float("inf")),
        ([[0, 1], [float("-inf"), 0]], float("-inf")),
        ([[0, float("nan")], [1, 0]], float("nan")),
    ])
    def test_non_integer_entry_rejected(self, m, entry):
        with pytest.raises(ValueError, match=re.escape(f"non-integer entry {entry!r}")):
            bdm_2d(m, toy_table_2d())

    @pytest.mark.parametrize("m", [
        [[1.0, 0.0], [0, 1]],
        [[True, False], [False, True]],
        np.eye(2, dtype=int),
        np.eye(2),
    ])
    def test_integral_entries_accepted(self, m):
        assert bdm_2d(m, toy_table_2d()) == bdm_2d([[1, 0], [0, 1]], toy_table_2d())


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

    @pytest.mark.parametrize("table", [
        CtmTable(1, {"a,b": 1.0, "x": 2.0}),
        CtmTable(1, {'a"b': 1.0, "c\nd": 2.0, " e ": 3.0}),
        CtmTable(2, {(2, 2, "0,1,"): 4.0, (1, 2, '""'): 5.0}),
        CtmTable(1, {"a\rb": 1.0, "x": 2.0}),
        CtmTable(2, {(1, 2, "\r\n"): 4.0, (1, 1, "\r"): 5.0}),
    ], ids=["comma", "quote_newline_space", "2d", "carriage_return", "2d_carriage_return"])
    def test_csv_special_blocks_round_trip(self, tmp_path, table):
        # such blocks are legal, and a file saved with them must load back
        path = tmp_path / "special.csv"
        ctm_save(table, path)
        assert ctm_load(path) == table

    def test_table_built_in_code_round_trip(self, tmp_path):
        # values are rounded when the table is made, not only on save or load
        path = tmp_path / "pi.csv"
        table = CtmTable(1, {"0": math.pi, "1": 2.0})
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

    def test_empty_1d_block_names_line(self, tmp_path):
        path = tmp_path / "empty_block.csv"
        path.write_text("block,ctm_bits\n0,1.5\n,2.0\n")
        with pytest.raises(ValueError, match="^line 3: empty block$"):
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

    def test_header_with_extra_column_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("block,ctm_bits,note\n01,2.0,x\n")
        with pytest.raises(ValueError, match="unrecognized header 'block,ctm_bits,note'"):
            ctm_load(path)


_POSITIVE = st.integers(1, 3)
# keys a block can have, and keys no block can have
_GOOD_KEYS = {
    1: st.text(min_size=1, max_size=4),
    2: st.tuples(_POSITIVE, _POSITIVE).flatmap(
        lambda rc: st.tuples(*map(st.just, rc), st.text(min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]))
    ),
}
_BAD_KEYS = {
    1: st.tuples(st.text(min_size=1, max_size=2)) | st.integers(),
    2: st.one_of(
        st.text(min_size=1, max_size=4),
        st.tuples(st.integers(-2, 0) | st.booleans() | st.just(2.0), _POSITIVE, st.text("01", min_size=1, max_size=4)),
        st.tuples(_POSITIVE, _POSITIVE, st.text("01", min_size=1, max_size=4)).filter(lambda k: k[0] * k[1] != len(k[2])),
    ),
}


class TestCtmKeys:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_table_loads_back(self, tmp_path_factory, data):
        dimension = data.draw(st.sampled_from([1, 2]), label="dimension")
        bits = st.floats(min_value=5e-324, max_value=1e308)
        entries = data.draw(st.dictionaries(_GOOD_KEYS[dimension], bits, max_size=4), label="entries")
        bad = data.draw(st.none() | _BAD_KEYS[dimension], label="bad")
        if bad is not None:
            entries[bad] = 1.0
        try:
            table = CtmTable(dimension, entries)
        except ValueError:
            assert bad is not None or not entries
            return
        path = tmp_path_factory.mktemp("ctm") / "t.csv"
        ctm_save(table, path)
        assert ctm_load(path) == table


def _reloaded(table, path):
    ctm_save(table, path)
    return ctm_load(path)


class TestAlphabet:
    @pytest.mark.parametrize("make", [
        lambda tmp: toy_table_1d(),
        lambda tmp: toy_table_2d(),
        lambda tmp: ctm_enumerate(2, 2, 30),
        lambda tmp: _reloaded(toy_table_1d(), tmp / "t1.csv"),
        lambda tmp: _reloaded(toy_table_2d(), tmp / "t2.csv"),
        lambda tmp: dataclasses.replace(toy_table_1d(), entries={"0": 1.0, "12": 2.0}),
    ], ids=["toy_1d", "toy_2d", "enumerated", "loaded_1d", "loaded_2d", "replaced"])
    def test_taken_once_from_blocks(self, tmp_path, make):
        table = make(tmp_path)
        blocks = table.entries if table.dimension == 1 else [key[2] for key in table.entries]
        assert table.alphabet is table.alphabet
        assert table.alphabet == frozenset("".join(blocks))


# a count is an int that is not a bool; each of these is refused where a count is expected
NOT_INTS = (2.0, True, "2", None)


class TestValidation:
    def test_non_positive_bits_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            CtmTable(dimension=1, entries={"0": 0.0})

    def test_overlap_bounds(self):
        with pytest.raises(ValueError, match="overlap"):
            BdmParams(block_size=2, overlap=2)

    def test_defaults_are_the_toy_partitions(self):
        params = BdmParams()
        assert (params.block_size, params.block_shape, params.overlap) == (2, (2, 2), 0)
        assert bdm_1d("0110", toy_table_1d(), None) == bdm_1d("0110", toy_table_1d(), params)

    def test_list_block_shape_stored_as_tuple(self):
        params = BdmParams(block_shape=[2, 2])
        assert params.block_shape == (2, 2) and isinstance(params.block_shape, tuple)
        assert params == BdmParams() and hash(params) == hash(BdmParams())

    @pytest.mark.parametrize("kwargs", [{"block_size": 0}, {"block_shape": (0, 1)}, {"block_shape": (2, -1)}])
    def test_non_positive_partition_rejected(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            BdmParams(**kwargs)

    def test_overlap_checked_when_built_for_2d(self):
        # the overlap is checked against block_size even when only bdm_2d reads the params
        with pytest.raises(ValueError, match="overlap"):
            BdmParams(block_shape=(3, 3), overlap=2)

    def test_bdm_2d_ignores_overlap(self):
        m = [[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
        table = toy_table_2d()
        assert bdm_2d(m, table, BdmParams(overlap=1)) == bdm_2d(m, table, BdmParams()) == bdm_2d(m, table)

    @pytest.mark.parametrize("make, message", [
        (lambda: CtmTable(dimension=3, entries={"0": 1.0}), "^dimension must be 1 or 2$"),
        (lambda: CtmTable(dimension=0, entries={"0": 1.0}), "^dimension must be 1 or 2$"),
        (lambda: CtmTable(dimension=1, entries={"0": 1.0, "": 2.0}), "^empty block$"),
        (lambda: CtmTable(dimension=2, entries={(0, 0, ""): 2.0}), "^empty block$"),
        (lambda: BdmParams(missing_block_policy="zero"), "^missing_block_policy must be 'error' or 'entropy_surrogate'$"),
        (lambda: bdm_1d("01101", toy_table_1d(), BdmParams(pad_symbol="2")), "^pad symbol not in table alphabet$"),
        (lambda: bdm_1d("0110", toy_table_1d(), BdmParams(pad_symbol="2")), "^pad symbol not in table alphabet$"),
        (lambda: bdm_2d([[0, 1, 1]] * 3, toy_table_2d(), BdmParams(pad_symbol="x")), "^pad symbol not in table alphabet$"),
        (lambda: CtmTable(1, {}), "^empty table: no entries$"),
        (lambda: CtmTable(1, {("0", "1"): 1.0}), r"^block \('0', '1'\) is not a string$"),
        (lambda: CtmTable(2, {"0101": 1.0}), r"^2D key '0101' is not \(rows, cols, block\)$"),
        (lambda: CtmTable(2, {(1, 1, 0): 1.0}), "^block 0 is not a string$"),
        (lambda: CtmTable(2, {(True, 1, "0"): 1.0}), "^rows and cols of block '0' must be positive integers$"),
        (lambda: CtmTable(2, {(-1, -2, "01"): 1.0}), "^rows and cols of block '01' must be positive integers$"),
        (lambda: CtmTable(2, {(2, 2, "010"): 1.0}), r"^block length does not match rows\*cols$"),
        *((lambda v=v: BdmParams(block_size=v), f"^block_size must be an integer, not {re.escape(repr(v))}$") for v in NOT_INTS),
        *((lambda v=v: BdmParams(overlap=v), f"^overlap must be an integer, not {re.escape(repr(v))}$") for v in NOT_INTS),
        *((lambda v=v: BdmParams(block_shape=(v, 2)), f"^block_shape must be two integers, not {re.escape(repr((v, 2)))}$")
          for v in NOT_INTS),
        (lambda: BdmParams(block_shape=(2,)), r"^block_shape must be two integers, not \(2,\)$"),
        (lambda: BdmParams(block_shape=2), "^block_shape must be two integers, not 2$"),
        (lambda: BdmParams(block_size=np.int64(2)), f"^block_size must be an integer, not {re.escape(repr(np.int64(2)))}$"),
        *((lambda v=v: CtmTable(v, {"0": 1.0}), "^dimension must be 1 or 2$") for v in NOT_INTS),
    ], ids=["dimension_3", "dimension_0", "empty_1d_block", "empty_2d_block", "unknown_policy", "pad_used", "pad_unused", "pad_2d",
            "empty_table", "1d_tuple_key", "2d_string_key", "2d_int_block", "2d_bool_rows", "2d_negative_rows", "2d_block_length",
            *(f"{field}_{v!r}" for field in ("block_size", "overlap", "block_shape") for v in NOT_INTS),
            "block_shape_one_value", "block_shape_int", "block_size_numpy", *(f"dimension_{v!r}" for v in NOT_INTS)])
    def test_rejected_with_message(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("row, message", [
        ("x,2,0101,4.0", "^line 2: non-integer rows or cols$"),
        ("2,2.0,0101,4.0", "^line 2: non-integer rows or cols$"),
        ("2,2,010,4.0", "^line 2: block length does not match rows\\*cols$"),
        ("1,3,0101,4.0", "^line 2: block length does not match rows\\*cols$"),
        ("-1,-2,01,4.0", "^line 2: rows and cols of block '01' must be positive integers$"),
        ("0,0,,4.0", "^line 2: empty block$"),
    ])
    def test_2d_load_rejects_bad_shape(self, tmp_path, row, message):
        path = tmp_path / "t2.csv"
        path.write_text(f"rows,cols,block,ctm_bits\n{row}\n")
        with pytest.raises(ValueError, match=message):
            ctm_load(path)
