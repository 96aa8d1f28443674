import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from seqcomplexity import coding
from seqcomplexity.coding import (
    LzwResult,
    _symbol_counts,
    _utf8,
    huffman,
    huffman_tree_dot,
    lzw_encode,
    rle_encode,
    rle_length,
    shannon_entropy,
)
from seqcomplexity.deceiver import champernowne

import oracles
from test_assembly import _modular, _periodic

TEXT = st.text(alphabet="ABCDE", min_size=1, max_size=30)
# any code point: astral symbols, and lone surrogates, which the default
# alphabet leaves out
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=80)


def _peak(f, s):
    """Peak ``tracemalloc`` bytes while ``f(s)`` runs."""
    tracemalloc.start()
    try:
        f(s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestShannonEntropy:
    def test_single_symbol(self):
        assert shannon_entropy("AAAA") == 0.0

    def test_two_equiprobable(self):
        assert shannon_entropy("0101") == 1.0

    def test_abracadabra(self):
        # frozen via direct evaluation with exact frequencies 5/11, 2/11, 2/11, 1/11, 1/11
        assert shannon_entropy("ABRACADABRA") == pytest.approx(2.0403733936884962, abs=1e-12)
        assert abs(shannon_entropy("ABRACADABRA") - 2.0404) < 1e-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            shannon_entropy("")

    def test_one_symbol_is_positive_zero(self):
        # the sum is -0.0 for one symbol; the result must not carry its sign
        assert math.copysign(1.0, shannon_entropy("a" * 7)) == 1.0

    @given(TEXT)
    def test_permutation_invariance(self, s):
        shuffled = "".join(random.Random(0).sample(s, len(s)))
        assert shannon_entropy(s) == pytest.approx(shannon_entropy(shuffled), abs=1e-12)

    @given(TEXT)
    def test_range(self, s):
        h = shannon_entropy(s)
        assert 0.0 <= h <= math.log2(max(2, len(set(s))))


class TestHuffman:
    def test_uniform_four_symbols(self):
        res = huffman("ABCD")
        assert res.code_lengths == {"A": 2, "B": 2, "C": 2, "D": 2}
        assert res.total_bits == 8

    def test_abracadabra_levels(self):
        assert huffman("ABRACADABRA").tree_levels == 4

    def test_abracadabra_total_bits(self):
        # frozen from the exhaustive Kraft-feasible search oracle
        assert huffman("ABRACADABRA").total_bits == 23
        assert oracles.brute_force_prefix_code_bits({"A": 5, "B": 2, "R": 2, "C": 1, "D": 1}) == 23

    def test_single_symbol_convention(self):
        res = huffman("AAAA")
        assert res.total_bits == 4
        assert res.tree_levels == 0
        assert res.code_lengths == {"A": 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            huffman("")

    @given(TEXT)
    def test_kraft_equality(self, s):
        res = huffman(s)
        if len(res.code_lengths) >= 2:
            num, den = oracles.kraft_sum_exact(list(res.code_lengths.values()))
            assert num == den

    @given(TEXT)
    def test_shannon_sandwich(self, s):
        if len(set(s)) >= 2:
            h = shannon_entropy(s)
            total = huffman(s).total_bits
            assert len(s) * h <= total < len(s) * (h + 1)

    @given(TEXT)
    def test_total_bits_consistent_with_lengths(self, s):
        res = huffman(s)
        counts = Counter(s)
        assert res.total_bits == sum(c * res.code_lengths[sym] for sym, c in counts.items())
        assert res.tree_levels == max(res.code_lengths.values()) if len(res.code_lengths) > 1 else True

    @given(TEXT)
    def test_optimality_against_brute_force(self, s):
        counts = Counter(s)
        if len(counts) <= 5 and len(s) <= 12:
            assert huffman(s).total_bits == oracles.brute_force_prefix_code_bits(counts)

    def test_optimality_seeded_sample(self):
        rng = random.Random(7)
        for _ in range(300):
            k = rng.randint(1, 4)
            alphabet = "WXYZ"[:k]
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            counts = Counter(s)
            assert huffman(s).total_bits == oracles.brute_force_prefix_code_bits(counts)

    def test_internal_node_count(self):
        res = huffman("ABRACADABRA")

        def count(node):
            if node.is_leaf:
                return (1, 0)
            ll, li = count(node.left)
            rl, ri = count(node.right)
            return (ll + rl, li + ri + 1)

        leaves, internal = count(res.tree)
        assert leaves == 5 and internal == 4

    @given(st.one_of(TEXT, ANY_TEXT.filter(bool)))
    def test_node_counts_add_up(self, s):
        # a leaf holds its symbol's count, an internal node the sum of its
        # children's, so the root holds len(s)
        res = huffman(s)
        assert res.tree.count == len(s)
        stack = [res.tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.count == s.count(node.symbol)
            else:
                assert node.count == node.left.count + node.right.count
                stack += (node.left, node.right)


class TestRle:
    def test_basic(self):
        assert rle_encode("AAAABBB") == ("A4B3", 4)

    def test_expansion(self):
        assert rle_encode("ABAB") == ("A1B1A1B1", 8)

    def test_empty(self):
        assert rle_encode("") == ("", 0)

    def test_multidigit_runs(self):
        assert rle_encode("A" * 12) == ("A12", 3)

    @given(st.text(alphabet="ABC", max_size=60))
    def test_round_trip(self, s):
        encoded, length = rle_encode(s)
        assert len(encoded) == length
        assert oracles.rle_decode(encoded) == s

    @given(st.lists(st.tuples(st.sampled_from("AB\u00e9\n"), st.integers(1, 150)), max_size=20))
    def test_round_trip_long_runs(self, runs):
        s = "".join(sym * k for sym, k in runs)
        assert oracles.rle_decode(rle_encode(s)[0]) == s

    @given(st.text(alphabet="0123456789", max_size=300))
    def test_digit_symbols_equal_run_oracle(self, s):
        want = oracles.rle_runs_encode(s)
        assert rle_encode(s) == (want, len(want))

    @given(
        st.lists(st.tuples(st.sampled_from("abé\n "), st.integers(1, 3)), max_size=60),
        st.tuples(st.sampled_from("abé\n "), st.integers(100, 300)),
        st.integers(0, 60),
    )
    def test_short_runs_around_a_long_one_equal_run_oracle(self, runs, long_run, at):
        runs.insert(min(at, len(runs)), long_run)
        s = "".join(sym * k for sym, k in runs)
        want = oracles.rle_runs_encode(s)
        assert rle_encode(s) == (want, len(want))

    def test_runs_of_two_equal_run_oracle(self):
        # every run is a repeat, so no stretch of single symbols lies between them
        s = "aabb" * 25000
        want = oracles.rle_runs_encode(s)
        assert rle_encode(s) == (want, len(want)) == ("a2b2" * 25000, 100000)

    def test_peak_memory_on_single_symbol_runs(self):
        # a million runs of length one; a list of one string per run takes
        # about 60 MB
        s = "abc" * 333334
        tracemalloc.start()
        try:
            encoded, length = rle_encode(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert length == 2 * len(s) and encoded[:6] == "a1b1c1"
        assert peak < 16_000_000

    def test_digit_symbols_do_not_decode(self):
        # a symbol followed by its count can read as one longer count, so
        # strings over digits are checked against an encoder, not a decoder
        assert rle_encode("0" + "1" * 11)[0] == rle_encode("0" * 11 + "1")[0] == "01111"


class TestRleLength:
    # Latin-1, BMP and astral symbols, two of them sharing the low byte of
    # "a", and both halves of a surrogate pair as lone symbols
    SYMBOLS = "a\x00\xff\u0161\u4e2d\U0001f600\U00010061\ud800\udc00"
    RUN_LENGTHS = (1, 2, 3, 9, 10, 11, 99, 100, 101, 999, 1000, 1001)

    @given(st.lists(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(RUN_LENGTHS)), max_size=12))
    def test_equals_encoded_length_over_runs(self, runs):
        s = "".join(sym * k for sym, k in runs)
        assert rle_length(s) == rle_encode(s)[1] == len(oracles.rle_runs_encode(s))

    @given(st.text(st.characters(exclude_categories=()), max_size=60))
    def test_equals_encoded_length_over_any_code_points(self, s):
        assert rle_length(s) == rle_encode(s)[1] == len(oracles.rle_runs_encode(s))

    @pytest.mark.parametrize(
        "s, want",
        [("", 0), ("a", 2), ("\U0001f600", 2), ("aa", 2), ("ab", 4), ("\u4e2d\u4e2d", 2), ("a\u0161", 4),
         # runs of exactly 10, 100, 10^4 and 10^5 symbols: as the whole
         # string, at its start and at its end
         pytest.param("a" * 10, 3, id="a*10"),
         pytest.param("a" * 10 + "b", 5, id="a*10+b"),
         pytest.param("b" + "a" * 10, 5, id="b+a*10"),
         pytest.param("a" * 100, 4, id="a*100"),
         pytest.param("a" * 100 + "b", 6, id="a*100+b"),
         pytest.param("b" + "a" * 100, 6, id="b+a*100"),
         pytest.param("a" * 10**4, 6, id="a*10**4"),
         pytest.param("a" * 10**4 + "b", 8, id="a*10**4+b"),
         pytest.param("b" + "a" * 10**4, 8, id="b+a*10**4"),
         pytest.param("a" * 10**5, 7, id="a*10**5"),
         pytest.param("a" * 10**5 + "b", 9, id="a*10**5+b"),
         pytest.param("b" + "a" * 10**5, 9, id="b+a*10**5"),
         pytest.param("\u4e2d" + "\U0001f600" * 10**4, 8, id="wide+astral*10**4")],
    )
    def test_up_to_two_symbols(self, s, want):
        assert rle_length(s) == rle_encode(s)[1] == want

    def test_peak_memory_latin1(self):
        # rle_encode's output alone takes about 2 bytes per character here
        s = champernowne(10**6)
        assert _peak(rle_length, s) <= 8 * len(s)

    def test_peak_memory_wide_within_twice_the_encoder(self):
        # one symbol beyond Latin-1 takes the 4-byte path for the whole string
        s = champernowne(10**6 - 1) + "\u0100"
        assert _peak(rle_length, s) <= 2 * _peak(rle_encode, s)


class TestLzw:
    def test_single_symbol(self):
        assert lzw_encode("A").codes == (0,)

    def test_aaaa_trace(self):
        assert lzw_encode("AAAA").codes == (0, 1, 0)

    def test_abababa_trace(self):
        res = lzw_encode("ABABABA")
        assert res.codes == (0, 1, 2, 4)
        assert res.dict_size_final == 5
        assert res.bit_length == 4 * 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lzw_encode("")

    @given(TEXT)
    def test_round_trip(self, s):
        res = lzw_encode(s)
        initial = []
        for ch in s:
            if ch not in initial:
                initial.append(ch)
        assert oracles.lzw_decode(list(res.codes), initial) == s

    @given(TEXT)
    def test_codes_below_dict_size_at_emission(self, s):
        res = lzw_encode(s)
        initial = len(set(s))
        # dictionary grows by one entry per emission except the last
        for i, code in enumerate(res.codes):
            assert code < initial + i

    @given(TEXT)
    def test_bit_length_formula(self, s):
        res = lzw_encode(s)
        width = math.ceil(math.log2(res.dict_size_final)) if res.dict_size_final > 1 else 0
        assert res.bit_length == len(res.codes) * width


def _lzw_fields(s):
    res = lzw_encode(s)
    return res.codes, res.dict_size_final, res.bit_length


class TestLzwAgainstStringTable:
    """The trie gives what Welch's table of phrase strings gives."""

    @given(
        st.one_of(
            st.text(alphabet="01", min_size=1), st.text(alphabet="0123456789abcdef", min_size=1), ANY_TEXT.filter(bool)
        )
    )
    def test_short_text(self, s):
        assert _lzw_fields(s) == oracles.lzw_string_table(s)

    @given(st.one_of(_periodic("ABCD"), _modular(150, 3000)))
    def test_deceivers(self, s):
        assert _lzw_fields(s) == oracles.lzw_string_table(s)

    def test_champernowne(self):
        s = champernowne(10**4)
        assert _lzw_fields(s) == oracles.lzw_string_table(s)

    def test_peak_memory(self):
        # entries not yet extended share one empty dict: 32.2 bytes per
        # character here, against 36.2 for the string table and 43.8 with a
        # dict of its own for every entry
        s = champernowne(10**5)
        assert _peak(lzw_encode, s) <= 36 * len(s)


@st.composite
def uniform_over_many_symbols(draw, kind=str):
    """Each of 40 or more distinct symbols the same number of times, in a
    drawn order: every pass deletes about 1/σ of what is left, so the scan
    budget runs out with symbols still uncounted."""
    if kind is bytes:
        symbols = [bytes((b,)) for b in draw(st.lists(st.integers(0, 255), min_size=40, max_size=256, unique=True))]
    else:
        symbols = draw(st.lists(st.characters(exclude_categories=()), min_size=40, max_size=120, unique=True))
    seq = symbols * draw(st.integers(1, 4))
    return kind().join(draw(st.permutations(seq)))


class TestSymbolCounts:
    @given(ANY_TEXT)
    @example("")
    @example("\ud800a\udc00\U0001f600\ud800\U0001f600")
    def test_equals_counter_on_str(self, s):
        assert list(_symbol_counts(s).items()) == oracles.counter_items(s)

    @given(st.binary(max_size=80))
    @example(b"")
    @example(bytes(range(256)) * 2)
    def test_equals_counter_on_bytes_keyed_by_int(self, b):
        assert list(_symbol_counts(b).items()) == oracles.counter_items(b)

    @given(st.one_of(uniform_over_many_symbols(), uniform_over_many_symbols(bytes)))
    def test_budget_spent_then_counter_counts_the_rest(self, s):
        with mock.patch.object(coding, "Counter", wraps=Counter) as counter:
            got = list(_symbol_counts(s).items())
        # the passes stopped short: Counter was handed the symbols left
        (call,) = counter.call_args_list
        assert 0 < len(call.args[0]) < len(s)
        assert got == oracles.counter_items(s)

    def test_small_alphabet_never_reaches_counter(self):
        s = "ab" * 500 + "c"
        with mock.patch.object(coding, "Counter", wraps=Counter) as counter:
            assert _symbol_counts(s) == {"a": 500, "b": 500, "c": 1}
        counter.assert_not_called()

    @pytest.mark.parametrize("s", [(1, 2, 2), ["ab", "cd", "ab"], ["a", "b", "a", "b"], bytearray(b"abca")])
    def test_other_sequences_go_to_counter(self, s):
        assert list(_symbol_counts(s).items()) == oracles.counter_items(s)


class TestCountsHandedIn:
    """A caller that has counted the payload's symbols hands the count in;
    the results are those of the function counting them itself."""

    A = "abracadabra" * 40
    B = "0110100110010110" * 25

    @given(st.one_of(TEXT, ANY_TEXT.filter(bool), uniform_over_many_symbols()))
    @example("a" * 7)
    def test_same_results_with_and_without_counts(self, s):
        counts = _symbol_counts(s)
        entropy = shannon_entropy(s, counts=counts)
        assert math.copysign(1.0, entropy) == math.copysign(1.0, shannon_entropy(s))
        assert entropy == shannon_entropy(s)
        assert huffman(s, counts=counts) == huffman(s)
        assert lzw_encode(s, counts=counts) == lzw_encode(s)

    @pytest.mark.parametrize("measure, oracle", [
        (shannon_entropy, oracles.shannon_entropy_direct),
        (lambda s: huffman(s).total_bits, lambda s: oracles.brute_force_prefix_code_bits(Counter(s))),
        (_lzw_fields, oracles.lzw_string_table),
    ], ids=["entropy", "huffman", "lzw"])
    def test_interleaved_payloads_each_get_their_own_counts(self, measure, oracle):
        for s in (self.A, self.B, self.A):
            assert measure(s) == oracle(s)

    def test_measures_leave_the_counts_as_counted(self):
        s = "".join(["mississippi"] * 30)
        counts = _symbol_counts(s)
        shannon_entropy(s, counts=counts)
        huffman(s, counts=counts)
        lzw_encode(s, counts=counts)
        assert list(counts.items()) == oracles.counter_items(s)


class TestUtf8:
    """``_utf8`` encodes a string and derives its bytes' counts from the
    string's symbol counts."""

    # Latin-1, BMP and astral symbols, several sharing lead or last bytes
    SYMBOLS = "a\x00\xff\xe9\u0161\u4e2d\u4e8c\U0001f600\U0001f601\U00010061"

    @given(st.text(st.one_of(st.sampled_from(SYMBOLS), st.characters(exclude_categories=("Cs",))), max_size=80))
    @example("")
    @example("\u4e2da\U0001f600\xe9\u4e2d\U0001f601")
    def test_byte_counts_in_counter_order(self, s):
        b, byte_counts = _utf8(s, _symbol_counts(s))
        assert b == s.encode("utf-8")
        assert list(byte_counts.items()) == oracles.counter_items(b)

    @pytest.mark.parametrize("s", ["a\ud800b", "\udc00", "\U0001f600\ud83d"])
    def test_lone_surrogate_raises_as_encode_does(self, s):
        with pytest.raises(UnicodeEncodeError) as want:
            s.encode("utf-8")
        with pytest.raises(UnicodeEncodeError) as got:
            _utf8(s, _symbol_counts(s))
        assert str(got.value) == str(want.value)


class TestCountingOrderKeepsValues:
    """Entropy, Huffman and LZW read the counts in first-occurrence order;
    the values must be those that ``Counter`` gives."""

    @given(st.one_of(TEXT, ANY_TEXT.filter(bool), uniform_over_many_symbols()))
    def test_entropy_is_the_first_occurrence_order_sum(self, s):
        # the oracle tallies in a plain dict, so its terms come in Counter's order
        assert shannon_entropy(s) == oracles.shannon_entropy_direct(s)

    @given(st.one_of(TEXT, ANY_TEXT.filter(bool), uniform_over_many_symbols()))
    def test_huffman_and_lzw_equal_their_counter_versions(self, s):
        res, lzw = huffman(s), lzw_encode(s)
        assert list(res.code_lengths) == list(Counter(s))
        with mock.patch.object(coding, "_symbol_counts", Counter):
            assert huffman(s) == res
            assert lzw_encode(s) == lzw

    def test_lzw_first_dictionary_in_first_occurrence_order(self):
        # c, a, b number 0, 1, 2, so "cab" emits them in that order
        assert lzw_encode("cab").codes == (0, 1, 2)
        assert lzw_encode("bca").codes == (0, 1, 2)

    def test_tuple_entropy(self):
        assert shannon_entropy((1, 2, 2)) == 0.9182958340544896

    def test_list_of_strings_huffman(self):
        res = huffman(["ab", "cd", "ab"])
        assert (res.code_lengths, res.total_bits, res.tree_levels) == ({"ab": 1, "cd": 1}, 3, 1)

    def test_list_of_strings_lzw(self):
        assert lzw_encode(["a", "b", "a", "b"]) == LzwResult(codes=(0, 1, 2), dict_size_final=4, bit_length=6)

    def test_lzw_reads_a_sequence_element_by_element(self):
        # adding the ints would give (2, 2, 2), and joining the strings
        # would let a match run across elements, "ab" + "c"
        assert lzw_encode((1, 2, 3, 1, 2)) == LzwResult(codes=(0, 1, 2, 3), dict_size_final=6, bit_length=12)
        assert lzw_encode(["ab", "c", "a", "bc"]) == LzwResult(codes=(0, 1, 2, 3), dict_size_final=7, bit_length=12)

    def test_bytes_lzw_one_symbol_per_byte(self):
        # adding the byte values 0x61 + 0x62 would give 0xc3, read as a match of "ab"
        assert lzw_encode(b"ab\xc3").codes == (0, 1, 2)

    @given(st.binary(min_size=1, max_size=80))
    def test_bytes_lzw_equals_latin1_text(self, b):
        assert lzw_encode(b) == lzw_encode(b.decode("latin-1"))


class TestHuffmanDot:
    def test_abracadabra_node_counts(self):
        dot = huffman_tree_dot(huffman("ABRACADABRA"))
        assert dot.count("shape=box") == 5  # leaves
        assert dot.count("->") == 8  # 2 edges per internal node

    def test_two_symbols(self):
        dot = huffman_tree_dot(huffman("AB"))
        assert dot.count("shape=box") == 2
        assert dot.count("->") == 2

    def test_degenerate(self):
        dot = huffman_tree_dot(huffman("AAAA"))
        assert dot.count("shape=box") == 1
        assert "->" not in dot

    def test_edge_labels(self):
        dot = huffman_tree_dot(huffman("AB"))
        assert 'label="0"' in dot and 'label="1"' in dot
