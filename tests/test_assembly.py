import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from seqcomplexity import assembly, cli, deceiver
from seqcomplexity.assembly import (
    DOT_LABEL_CAP,
    AssemblyPathway,
    JoinStep,
    assembly_index_exact,
    assembly_index_split,
    assembly_tree_dot,
    split_upper_bound,
    verify_pathway,
)

import oracles

SHORT = st.text(alphabet="AB", min_size=1, max_size=9)
# R + R for a random binary string R of 20 characters
R_PLUS_R = "BBABBBBBBAABAABABAAB" * 2
# R and the next five draws of its generator: past the exact search's work cap
RANDOM_25 = "BBABBBBBBAABAABABAABBABBB"


def _modular(max_steps, max_len):
    """Modular deceivers, cut to ``max_len`` characters."""
    spec = st.builds(
        deceiver.GeneratorSpec,
        kind=st.just("modular"),
        seed=st.text(alphabet="ABC", min_size=1, max_size=3),
        period=st.integers(1, 8),
        steps=st.integers(1, max_steps),
        extension_symbols=st.lists(st.sampled_from("ABCD"), max_size=4).map(tuple),
    )
    return spec.map(lambda g: deceiver.generate(g)[:max_len])


def _periodic(alphabet):
    """A unit of up to 40 symbols repeated to 300-3,000 characters."""
    return st.builds(
        lambda unit, n: (unit * n)[:n],
        st.text(alphabet=alphabet, min_size=1, max_size=40),
        st.integers(300, 3000),
    )


def _split_steps(s):
    value, pathway = assembly_index_split(s)
    return value, [(step.left, step.right, step.result) for step in pathway.steps]


def _witness_digest(search, strings):
    """SHA-256 over ``s value steps`` lines of an assembly search."""
    h = hashlib.sha256()
    for s in strings:
        value, pathway = search(s)
        steps = ";".join(f"{step.left},{step.right},{step.result}" for step in pathway.steps)
        h.update(f"{s} {value} {steps}\n".encode())
    return h.hexdigest()


class TestExact:
    def test_unit_symbol(self):
        idx, pathway = assembly_index_exact("A")
        assert idx == 0
        assert pathway.steps == ()
        assert verify_pathway(pathway, "A")

    def test_abracadabra(self):
        idx, pathway = assembly_index_exact("ABRACADABRA")
        assert idx == 7
        assert verify_pathway(pathway, "ABRACADABRA")

    def test_eight_as(self):
        idx, _ = assembly_index_exact("AAAAAAAA")
        assert idx == 3

    def test_abcb(self):
        # no 2-step pathway exists (independent naive BFS agrees)
        idx, _ = assembly_index_exact("ABCB")
        assert idx == 3
        assert oracles.naive_assembly_index("ABCB") == 3

    def test_guard(self):
        # the caps bound the search's work, not the length of its input
        idx, _ = assembly_index_exact("AB" * 20)
        assert idx == 6
        with pytest.raises(ValueError, match="^exact search exceeds its cap of [0-9]+ work units; use the split"):
            assembly_index_exact(RANDOM_25)
        with pytest.raises(ValueError, match="^exact search set-up exceeds its cap of [0-9]+ cuts; use the split"):
            assembly_index_exact("AB" * 5000)

    @pytest.mark.parametrize("make", [
        lambda: deceiver.champernowne(10**6),
        lambda: "".join(random.Random(2026).choice("AB") for _ in range(10**4)),
    ], ids=["champernowne_1e6", "binary_1e4"])
    def test_setup_refusal_builds_nothing(self, make):
        s = make()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cuts"):
                assembly_index_exact(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(st.text(alphabet="ABC", min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_setup_cap_is_the_count_of_windows_and_cuts(self, s):
        cuts = oracles.substring_cuts(s)
        subs = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "_MAX_CUTS", cuts - 1)
            with pytest.raises(ValueError, match="cuts"):
                assembly._substring_universe(s)
            mp.setattr(assembly, "_MAX_CUTS", cuts)
            ordered, splits = assembly._substring_universe(s)
        assert ordered == sorted(subs, key=lambda w: (len(w), w))
        assert sum(map(len, splits)) == cuts - len(s) * (len(s) + 1) // 2

    @given(SHORT, st.integers(0, 200), st.integers(0, 10**5))
    @example("ABBABABB", 10**5, 0)
    @example("ABBABABB", 10**5, 10**5)
    @settings(max_examples=100, deadline=None)
    def test_caps_refuse_and_never_give_a_wrong_index(self, s, max_cuts, max_work):
        want = assembly_index_exact(s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "_MAX_CUTS", max_cuts)
            mp.setattr(assembly, "_MAX_WORK", max_work)
            try:
                got = assembly_index_exact(s)
            except ValueError as exc:
                assert "exceeds its cap" in str(exc)
            else:
                assert got == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            assembly_index_exact("")

    def test_deterministic_witness(self):
        a = assembly_index_exact("ABRACADABRA")[1]
        b = assembly_index_exact("ABRACADABRA")[1]
        assert a == b
        # golden canonical witness (step results ordered by length then lex)
        assert [s.result for s in a.steps] == [
            "AB", "AD", "RA", "CAD", "ABRA", "ABRACAD", "ABRACADABRA",
        ]

    def test_witness_digest_binary_up_to_10_ternary_up_to_6(self):
        # SHA-256 pin of the canonical witnesses, leftmost built cut included
        strings = ["".join(t) for n in range(1, 11) for t in itertools.product("AB", repeat=n)]
        strings += ["".join(t) for n in range(1, 7) for t in itertools.product("ABC", repeat=n)]
        assert len(strings) == 3138
        assert _witness_digest(assembly_index_exact, strings) == (
            "1ccaaa9e5f0a6c520c6927972bb7cfa6266f85cc92add77f9a74e43b8d58eb62"
        )

    def test_witness_digest_seeded_binary_11_to_13_quaternary_up_to_9(self):
        # past length 10 the last join is closed from the target's cuts at
        # most nodes, so pin witnesses there too (digest computed before it)
        rng = random.Random(2026)
        strings = ["".join(rng.choice("AB") for _ in range(11 + k % 3)) for k in range(12)]
        strings += ["".join(rng.choice("ABCD") for _ in range(rng.randint(5, 9))) for _ in range(12)]
        assert _witness_digest(assembly_index_exact, strings) == (
            "70dc2e6598ea1a7b39d7bb783be28170af347769aecb4d5f87e664be5784a45f"
        )

    def test_witness_digest_near_log_bound_24_to_25(self):
        # strings of 24 and 25 characters whose index is near ceil(log2 n), so
        # each search takes well under a second (digest computed while the
        # exact search still had its per-node doubling cut)
        strings = [
            "AB" * 12 + "A", "A" * 24 + "B", "ABC" * 8, "AAB" * 8, "ABCD" * 6, "ABBA" * 6,
            "ABAABABAABAABABAABABAABAA",  # the Fibonacci word
        ]
        assert _witness_digest(assembly_index_exact, strings) == (
            "941d58972ecd0c515fe7361eb3a036acb300baa5b373b19ef4ce54633e461223"
        )

    def test_repeated_symbol_matches_addition_chains(self):
        for n in range(1, 26):
            idx, pathway = assembly_index_exact("A" * n)
            assert idx == oracles.addition_chain_length(n), f"n={n}"
            assert verify_pathway(pathway, "A" * n)

    @given(SHORT)
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_witness(self, s):
        idx, pathway = assembly_index_exact(s)
        n = len(s)
        assert (n - 1).bit_length() <= idx <= n - 1 if n > 1 else idx == 0
        assert verify_pathway(pathway, s)
        assert pathway.index == idx

    @given(SHORT)
    @settings(max_examples=40, deadline=None)
    def test_alphabet_renaming_invariance(self, s):
        renamed = s.translate(str.maketrans("AB", "XY"))
        assert assembly_index_exact(s)[0] == assembly_index_exact(renamed)[0]

    @given(st.text(alphabet="AB", min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_self_concatenation(self, s):
        assert assembly_index_exact(s + s)[0] <= assembly_index_exact(s)[0] + 1

    @given(
        st.text(alphabet="AB", min_size=1, max_size=5),
        st.text(alphabet="AB", min_size=1, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_subadditivity(self, s, t):
        assert (
            assembly_index_exact(s + t)[0]
            <= assembly_index_exact(s)[0] + assembly_index_exact(t)[0] + 1
        )

    @given(st.text(alphabet="ABC", min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_against_naive_bfs(self, s):
        assert assembly_index_exact(s)[0] == oracles.naive_assembly_index(s)

    @given(st.text(alphabet="ABC", min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_rytter_lz77_bound_and_split_dominance(self, s):
        # the exact search starts deepening at lz77_phrases(s) - len(set(s))
        idx = assembly_index_exact(s)[0]
        assert oracles.lz77_phrases(s) - len(set(s)) <= idx <= assembly_index_split(s)[0]

    def test_index_zero_iff_single_char(self):
        assert assembly_index_exact("Z")[0] == 0
        for s in ("AA", "AB", "ZZZ"):
            assert assembly_index_exact(s)[0] > 0


class TestSplit:
    def test_forced_single_join(self):
        ub, pathway = assembly_index_split("AA")
        assert ub == 1
        assert verify_pathway(pathway, "AA")

    def test_sixteen_as(self):
        ub, _ = assembly_index_split("A" * 16)
        assert ub == 4

    def test_abracadabra_pinned(self):
        # regression value computed once with this heuristic; exact index is 7
        ub, pathway = assembly_index_split("ABRACADABRA")
        assert ub == 7
        assert 7 <= ub <= 10
        assert verify_pathway(pathway, "ABRACADABRA")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            assembly_index_split("")

    def test_single_char(self):
        ub, pathway = assembly_index_split("Q")
        assert ub == 0
        assert pathway.steps == ()
        assert verify_pathway(pathway, "Q")

    @given(SHORT)
    @settings(max_examples=60, deadline=None)
    def test_dominance_and_witness(self, s):
        ub, pathway = assembly_index_split(s)
        assert verify_pathway(pathway, s)
        assert pathway.index == ub
        assert ub >= assembly_index_exact(s)[0]

    @given(st.text(alphabet="ABCDEFGH", min_size=1, max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_witness_always_valid(self, s):
        ub, pathway = assembly_index_split(s)
        assert verify_pathway(pathway, s)
        assert pathway.index == ub

    def test_equality_on_pure_repetitions_up_to_12(self):
        for n in range(2, 13):
            assert assembly_index_split("A" * n)[0] == assembly_index_exact("A" * n)[0]

    # SHA-256 pins of the split witnesses: any drift in the repeat search
    # order, its tie-break or the replacement shows here, not only in values
    def test_witness_digest_ternary_up_to_8(self):
        strings = ["".join(t) for n in range(1, 9) for t in itertools.product("ABC", repeat=n)]
        assert len(strings) == 9840
        assert _witness_digest(assembly_index_split, strings) == (
            "795cdc63b5c8bde9465b52a1a14f5fa681958f606bf77437f842ed1f1a47055f"
        )

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (7, "91cf9cf97f8952d626522ae3df9e2042735f0997bbb25eb761596e4e0140d6c1"),
            (2024, "143fb4352a6b1b089003b76a6fbce80dd472d5b5c204956befe4dd583c04e7e2"),
        ],
    )
    def test_witness_digest_synthetic_corpus(self, seed, digest):
        payloads = [payload for _, _, payload in cli.synthetic_corpus(seed, 100)]
        assert _witness_digest(assembly_index_split, payloads) == digest

    @pytest.mark.parametrize("seed", [7, 2024])
    def test_upper_bound_alone_on_synthetic_corpus(self, seed):
        payloads = [payload for _, _, payload in cli.synthetic_corpus(seed, 100)]
        assert [split_upper_bound(s) for s in payloads] == [assembly_index_split(s)[0] for s in payloads]

    @given(st.one_of(st.text(alphabet="ABCD", min_size=1, max_size=200), _modular(20, 200)))
    @settings(max_examples=60, deadline=None)
    def test_upper_bound_alone(self, s):
        assert split_upper_bound(s) == assembly_index_split(s)[0]

    def test_upper_bound_alone_rejects_empty(self):
        with pytest.raises(ValueError, match="empty input"):
            split_upper_bound("")

    @given(
        st.one_of(
            st.text(alphabet="ABCD", min_size=1, max_size=300),
            st.lists(
                st.sampled_from(["AB", "BA", "ABB", "C", "AAAA"]), min_size=1, max_size=60
            ).map("".join),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rytter_lz77_lower_bound(self, s):
        # Rytter (TCS 2003): LZ77 phrases without self-reference <= the
        # rules of any straight-line program, here joins plus basis symbols
        assert oracles.lz77_phrases(s) - len(set(s)) <= assembly_index_split(s)[0]

    def test_long_random_string(self):
        rng = random.Random(3000)
        s = "".join(rng.choice(cli.ALPHABET16) for _ in range(3000))
        ub, pathway = assembly_index_split(s)
        assert verify_pathway(pathway, s)
        assert pathway.index == ub

    @given(
        st.one_of(
            st.text(alphabet="AB", min_size=1, max_size=40),
            st.text(alphabet="ABC", min_size=1, max_size=40),
            st.builds(deceiver.champernowne, st.integers(1, 40), st.integers(2, 16)),
            _modular(8, 40),
        )
    )
    @example(R_PLUS_R)
    @example("ABCD" * 10)
    @example("A" * 40)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, s):
        assert _split_steps(s) == oracles.split_reference(s)

    @pytest.mark.parametrize("s", [R_PLUS_R, "ABCD" * 10, "ABCDEFGHIJ" * 4])
    def test_regrouping_matches_reference(self, monkeypatch, s):
        # these drop so many levels in one round that the round regroups
        # the text, which must not change the witness
        grouped = []
        spans = assembly._repeat_spans
        monkeypatch.setattr(assembly, "_repeat_spans", lambda t, sep: grouped.append(t) or spans(t, sep))
        assert _split_steps(s) == oracles.split_reference(s)
        assert len(grouped) > 1

    def test_witness_peak_memory_linear_in_length(self):
        # every step is a span of the one target, so the witness is O(steps);
        # with a result string per step the peak was about 1,700 bytes a
        # character here, and the grouping's own bound is 600
        s = deceiver.champernowne(10**4)
        tracemalloc.start()
        try:
            pathway = assembly_index_split(s)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verify_pathway(pathway, s)
        assert peak < 600 * len(s)

    @given(
        st.one_of(
            st.builds(deceiver.champernowne, st.integers(1, 2000), st.integers(2, 16)),
            _modular(120, 2000),
        )
    )
    @example(deceiver.champernowne(2000, 2))
    @example(deceiver.champernowne(2000, 16))
    @example(
        deceiver.generate(
            deceiver.GeneratorSpec("modular", seed="AB", period=3, steps=120, extension_symbols=("C", "D"))
        )[:2000]
    )
    @settings(max_examples=30, deadline=None)
    def test_lz77_bound_on_deceivers(self, s):
        # a split witness is a pathway, and a pathway with k joins parses s
        # into at most k + 1 LZ77 phrases without self-reference
        assert oracles.lz77_phrases(s) - 1 <= assembly_index_split(s)[0]


class TestRepeatSpans:
    @given(st.lists(st.text(alphabet="abxy", min_size=1, max_size=10), min_size=1, max_size=4))
    @example(["abxy"])  # no repeat
    @example(["aaa"])  # only overlapping occurrences
    @example(["xcdab", "abcd"])  # occurrences in different sequences
    @example(["ab", "ab"])  # the windows around the separator repeat too
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, seqs):
        sep = "|"
        t = sep.join(seqs) + sep

        def first_starts(length):
            """First start of each sep-free window of ``length`` that occurs
            again at least ``length`` further on."""
            windows = {t[i : i + length] for i in range(len(t) - length + 1)}
            return sorted(
                t.find(w)
                for w in windows
                if sep not in w and any(t.startswith(w, j) for j in range(t.find(w) + length, len(t)))
            )

        expected = [first_starts(length) for length in range(2, len(t))]
        while expected and not expected[-1]:
            expected.pop()
        lo, hi, longest = assembly._repeat_spans(t, sep)
        assert lo.keys() == hi.keys()
        assert [sorted(p for p in hi if lo[p] <= length <= hi[p]) for length in range(2, longest + 1)] == expected

    @given(
        st.one_of(
            # periodic texts, whose suffixes tie past the first sort's 256 characters
            _periodic("abc"),
            st.builds(deceiver.champernowne, st.integers(300, 3000), st.integers(2, 16)),
            _modular(120, 3000).filter(lambda s: len(s) >= 300),
            # several separators, some in runs, as regrouping a factored text gives
            _periodic("ab|"),
        )
    )
    @example("a" * 1000)
    @example("abc||" * 300)
    @settings(max_examples=25, deadline=None)
    def test_matches_refinement_reference(self, s):
        t = s + "|"
        assert assembly._repeat_spans(t, "|") == oracles.repeat_spans_reference(t, "|")

    def test_one_symbol_closed_form(self):
        # a^n repeats at every length up to n/2 from start 0; refining one
        # character at a time takes about n^2/4 steps here, hours at 10^5
        t = "a" * 10**5 + "|"
        assert assembly._repeat_spans(t, "|") == ({0: 2}, {0: 50000}, 50000)

    def test_peak_memory_linear_in_length(self):
        t = "abcdefghij" * 2000 + "|"
        tracemalloc.start()
        try:
            longest = assembly._repeat_spans(t, "|")[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert longest == 10000
        # the first sort's keys take about 305 bytes a character (256
        # characters and a string header), everything else about 170
        assert peak < 600 * len(t)


class TestVerifyPathway:
    def test_valid_doubling(self):
        p = AssemblyPathway(
            basis=frozenset("A"),
            steps=(JoinStep("A", "A", 0, 2, "AAAA"), JoinStep(0, 0, 0, 4, "AAAA")),
            target="AAAA",
        )
        assert verify_pathway(p, "AAAA")

    def test_wrong_target(self):
        p = AssemblyPathway(
            basis=frozenset("AB"), steps=(JoinStep("A", "B", 0, 2, "AB"),), target="AB"
        )
        assert not verify_pathway(p, "BA")

    def test_prefix_chain_with_block_reuse(self):
        t = "ABRACADABRA"
        steps = (
            JoinStep("A", "B", 0, 2, t),
            JoinStep(0, "R", 0, 3, t),
            JoinStep(1, "A", 0, 4, t),
            JoinStep(2, "C", 0, 5, t),
            JoinStep(3, "A", 0, 6, t),
            JoinStep(4, "D", 0, 7, t),
            JoinStep(5, 2, 0, 11, t),
        )
        p = AssemblyPathway(basis=frozenset("ABRCD"), steps=steps, target=t)
        assert verify_pathway(p, t)

    def test_forward_reference_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("A"),
            steps=(JoinStep(1, "A", 0, 3, "AAA"), JoinStep("A", "A", 0, 2, "AAA")),
            target="AAA",
        )
        assert not verify_pathway(p, "AAA")

    def test_bad_concatenation_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("AB"), steps=(JoinStep("A", "B", 0, 2, "BA"),), target="BA"
        )
        assert not verify_pathway(p, "BA")

    def test_unknown_basis_symbol_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("A"), steps=(JoinStep("A", "B", 0, 2, "AB"),), target="AB"
        )
        assert not verify_pathway(p, "AB")

    def test_empty_pathway_single_symbol(self):
        p = AssemblyPathway(basis=frozenset("A"), steps=(), target="A")
        assert verify_pathway(p, "A")
        assert not verify_pathway(p, "B")

    @pytest.mark.parametrize("pathway", [
        AssemblyPathway(basis=frozenset(), steps=(JoinStep("A", "A", 0, 2, "AA"),), target="AA"),
        AssemblyPathway(basis=frozenset({"A", "AA"}), steps=(JoinStep("A", "A", 0, 2, "AA"),), target="AA"),
        # steps[1.0] is not an index, and True would read as step 1
        AssemblyPathway(frozenset("A"), (JoinStep("A", "A", 0, 2, "AAAA"), JoinStep(0.0, 0, 0, 4, "AAAA")), "AAAA"),
        AssemblyPathway(
            frozenset("A"),
            (JoinStep("A", "A", 0, 2, "AAAAAA"), JoinStep(0, 0, 0, 4, "AAAAAA"), JoinStep(True, 0, 0, 6, "AAAAAA")),
            "AAAAAA",
        ),
        # malformed parts raise inside the check, which answers False
        AssemblyPathway(basis=5, steps=(JoinStep("A", "A", 0, 2, "AA"),), target="AA"),
        AssemblyPathway(basis=frozenset("A"), steps=(None,), target="AA"),
        None,
    ], ids=["empty_basis", "multi_char_basis", "float_ref", "bool_ref", "basis_not_iterable", "step_not_a_step", "not_a_pathway"])
    def test_malformed_pathway_rejected(self, pathway):
        # checked against its own target, so the malformed part is what fails
        assert verify_pathway(pathway, getattr(pathway, "target", "AA")) is False

    def test_bool_ref_is_rejected_where_its_int_is_accepted(self):
        t = "AAAAAA"
        steps = (JoinStep("A", "A", 0, 2, t), JoinStep(0, 0, 0, 4, t), JoinStep(1, 0, 0, 6, t))
        assert verify_pathway(AssemblyPathway(frozenset("A"), steps, t), t)

    # None and False slice like 0, and 2.0 or "0" would raise
    @pytest.mark.parametrize("start, stop", [(None, 2), (False, 2), (0.0, 2), ("0", 2), (0, 2.0), (0, None)])
    def test_non_int_span_rejected(self, start, stop):
        def pathway(start, stop):
            return AssemblyPathway(frozenset("A"), (JoinStep("A", "A", start, stop, "AA"),), "AA")

        assert verify_pathway(pathway(0, 2), "AA")
        assert verify_pathway(pathway(start, stop), "AA") is False

    @pytest.mark.parametrize("step", [
        JoinStep("A", "B", 1, 3, "ABAB"),  # spells BA, inside the target
        JoinStep("A", "B", 0, 3, "ABAB"),  # spells ABA
        JoinStep("A", "B", -2, 4, "ABAB"),  # spells AB, but from before the target's start
        JoinStep("A", "B", 2, 4, "ABABAB"),  # spells AB, but in another text
    ], ids=["other_text", "too_long", "negative_start", "other_target"])
    def test_span_that_is_not_the_join_rejected(self, step):
        valid = (JoinStep("A", "B", 2, 4, "ABAB"), JoinStep(0, 0, 0, 4, "ABAB"))
        assert verify_pathway(AssemblyPathway(frozenset("AB"), valid, "ABAB"), "ABAB")
        assert verify_pathway(AssemblyPathway(frozenset("AB"), (step, valid[1]), "ABAB"), "ABAB") is False

    @pytest.mark.parametrize("search", [assembly_index_exact, assembly_index_split])
    def test_step_result_is_its_span_of_the_shared_target(self, search):
        s = "ABRACADABRA"
        pathway = search(s)[1]
        assert pathway.steps
        for step in pathway.steps:
            assert step.target is pathway.target
            assert step.result == step.target[step.start : step.stop]
            assert "target" not in repr(step) and s not in repr(step)


class TestDot:
    def test_single_join(self):
        _, pathway = assembly_index_exact("AA")
        dot = assembly_tree_dot(pathway)
        assert dot.count("shape=box") == 1  # one step node
        assert dot.count("shape=circle") == 1  # one basis node
        assert dot.count("->") == 2

    def test_abracadabra_step_nodes(self):
        _, pathway = assembly_index_exact("ABRACADABRA")
        dot = assembly_tree_dot(pathway)
        assert dot.count("shape=box") == 7

    def test_empty_pathway(self):
        p = AssemblyPathway(basis=frozenset("A"), steps=(), target="A")
        dot = assembly_tree_dot(p)
        assert dot.count("shape=circle") == 1
        assert dot.count("shape=box") == 0

    @pytest.mark.parametrize("s", [deceiver.champernowne(300), '"A\\' * 30])
    def test_long_step_labelled_by_its_prefix_and_span(self, s):
        # a label spells at most DOT_LABEL_CAP characters of its step, so the
        # DOT grows with the steps and not with the sum of their lengths
        _, pathway = assembly_index_split(s)
        dot = assembly_tree_dot(pathway)
        labels = [line.split("label=", 1)[1].rsplit(" shape=", 1)[0] for line in dot.splitlines() if "shape=box" in line]
        assert len(labels) == len(pathway.steps)
        for step, label in zip(pathway.steps, labels):
            text = step.result
            if len(text) > DOT_LABEL_CAP:
                text = f"{text[:DOT_LABEL_CAP]}… {step.start}:{step.stop}"
            assert label == '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
        assert labels[-1].endswith(f"… 0:{len(s)}\"")

    def test_invalid_pathway_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("AB"), steps=(JoinStep("A", "B", 0, 2, "BA"),), target="BA"
        )
        with pytest.raises(ValueError, match="invalid pathway"):
            assembly_tree_dot(p)
