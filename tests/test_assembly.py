import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from seqcomplexity import assembly, cli
from seqcomplexity.assembly import (
    AssemblyPathway,
    JoinStep,
    assembly_index_exact,
    assembly_index_split,
    assembly_tree_dot,
    verify_pathway,
)

import oracles

SHORT = st.text(alphabet="AB", min_size=1, max_size=9)


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
        with pytest.raises(ValueError, match="exceeds exact-search guard"):
            assembly_index_exact("AB" * 20)
        idx, _ = assembly_index_exact("AB" * 20, limit=40)
        assert idx == 6

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

    def test_repeated_symbol_matches_addition_chains(self):
        for n in range(1, 17):
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


MIXED_TOKENS = st.one_of(st.sampled_from("ab"), st.integers(1, 2))


class TestLongestRepeat:
    @given(st.lists(st.lists(MIXED_TOKENS, min_size=1, max_size=10), min_size=1, max_size=4))
    @example([["a", 1, "b", 2]])  # no repeat
    @example([["a", "a", "a"]])  # only overlapping occurrences
    @example([["x", "c", "d", "a", "b"], ["a", "b", "c", "d"]])  # tie: earliest first wins
    @example([[1, "a"], ["b", 1, "a"], [2]])  # occurrences in different sequences
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, seqs):
        window, places = assembly._longest_repeat(seqs)
        length = len(window) if window else 0
        assert (window, length) == oracles.longest_nonoverlapping_repeat(seqs)
        assert places == [
            (k, i)
            for k, q in enumerate(seqs)
            for i in range(len(q))
            if tuple(q[i : i + length]) == window
        ]


class TestVerifyPathway:
    def test_valid_doubling(self):
        p = AssemblyPathway(
            basis=frozenset("A"),
            steps=(JoinStep("A", "A", "AA"), JoinStep(0, 0, "AAAA")),
            target="AAAA",
        )
        assert verify_pathway(p, "AAAA")

    def test_wrong_target(self):
        p = AssemblyPathway(
            basis=frozenset("AB"), steps=(JoinStep("A", "B", "AB"),), target="AB"
        )
        assert not verify_pathway(p, "BA")

    def test_prefix_chain_with_block_reuse(self):
        steps = (
            JoinStep("A", "B", "AB"),
            JoinStep(0, "R", "ABR"),
            JoinStep(1, "A", "ABRA"),
            JoinStep(2, "C", "ABRAC"),
            JoinStep(3, "A", "ABRACA"),
            JoinStep(4, "D", "ABRACAD"),
            JoinStep(5, 2, "ABRACADABRA"),
        )
        p = AssemblyPathway(basis=frozenset("ABRCD"), steps=steps, target="ABRACADABRA")
        assert verify_pathway(p, "ABRACADABRA")

    def test_forward_reference_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("A"),
            steps=(JoinStep(1, "A", "AAA"), JoinStep("A", "A", "AA")),
            target="AAA",
        )
        assert not verify_pathway(p, "AAA")

    def test_bad_concatenation_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("AB"), steps=(JoinStep("A", "B", "BA"),), target="BA"
        )
        assert not verify_pathway(p, "BA")

    def test_unknown_basis_symbol_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("A"), steps=(JoinStep("A", "B", "AB"),), target="AB"
        )
        assert not verify_pathway(p, "AB")

    def test_empty_pathway_single_symbol(self):
        p = AssemblyPathway(basis=frozenset("A"), steps=(), target="A")
        assert verify_pathway(p, "A")
        assert not verify_pathway(p, "B")


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

    def test_invalid_pathway_rejected(self):
        p = AssemblyPathway(
            basis=frozenset("AB"), steps=(JoinStep("A", "B", "BA"),), target="BA"
        )
        with pytest.raises(ValueError, match="invalid pathway"):
            assembly_tree_dot(p)
