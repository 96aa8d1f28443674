import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from seqcomplexity.assembly import assembly_index_exact
from seqcomplexity.bdm import toy_table_1d
from seqcomplexity.coding import shannon_entropy
from seqcomplexity.deceiver import (
    CHAMPERNOWNE_CAP,
    GeneratorSpec,
    champernowne,
    divergence_report,
    generate,
    modular_generate,
)

import oracles


class TestChampernowne:
    def test_base_ten_prefix(self):
        assert champernowne(20, 10) == "12345678910111213141"

    def test_zero_length(self):
        assert champernowne(0, 10) == ""

    def test_base_two_prefix(self):
        # concatenate 1, 10, 11, 100, 101 and truncate
        assert champernowne(10, 2) == "1101110010"

    def test_base_out_of_range(self):
        with pytest.raises(ValueError, match="base"):
            champernowne(10, 1)
        with pytest.raises(ValueError, match="base"):
            champernowne(10, 37)

    def test_length_over_cap_rejected_before_building(self):
        # a prefix past the cap would be built in memory in full
        with pytest.raises(ValueError, match=f"n outside \\[0, {CHAMPERNOWNE_CAP}\\]"):
            champernowne(CHAMPERNOWNE_CAP + 1)
        with pytest.raises(ValueError, match="n outside"):
            generate(GeneratorSpec(kind="champernowne", base=2, length=CHAMPERNOWNE_CAP + 1))

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(2, 16))
    @settings(max_examples=50, deadline=None)
    def test_prefix_stability(self, n, m, base):
        assert champernowne(n + m, base).startswith(champernowne(n, base))

    @pytest.mark.parametrize("base", range(2, 37))
    def test_equals_number_by_number_up_to_400(self, base):
        want = oracles.champernowne_by_number(400, base)
        for n in range(401):
            assert champernowne(n, base) == want[:n]

    @pytest.mark.parametrize("base", [2, 10, 16, 36])
    def test_equals_number_by_number_at_digit_count_boundaries(self, base):
        # the numbers of at most d digits spell sum_i i*(base-1)*base**(i-1) characters
        limit = 10**5
        want = oracles.champernowne_by_number(limit, base)
        ends, end, d = [], 0, 1
        while end <= limit:
            ends.append(end)
            end += d * (base - 1) * base ** (d - 1)
            d += 1
        lengths = {n for e in ends for n in (e - 1, e, e + 1) if 0 <= n <= limit} | {limit}
        for n in sorted(lengths):
            assert champernowne(n, base) == want[:n]

    def test_entropy_trend_toward_log_base(self):
        values = [shannon_entropy(champernowne(n, 10)) for n in (100, 1000, 10000)]
        for prev, cur in zip(values, values[1:]):
            assert cur >= prev - 0.05
        assert values[-1] <= math.log2(10)


class TestModular:
    def test_module_never_extended(self):
        spec = GeneratorSpec(kind="modular", seed="AB", period=5, steps=4)
        assert modular_generate(spec) == "ABABABAB"

    def test_extension_trace(self):
        spec = GeneratorSpec(
            kind="modular", seed="A", period=2, steps=3, extension_symbols=("B",)
        )
        assert modular_generate(spec) == "AAAB"

    def test_extensions_cycle(self):
        spec = GeneratorSpec(
            kind="modular", seed="X", period=1, steps=4, extension_symbols=("Y", "Z")
        )
        # steps: X, then module XY, XYZ, XYZY appended after each extension
        assert modular_generate(spec) == "X" + "XY" + "XYZ" + "XYZY"

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GeneratorSpec(kind="modular", seed="A", period=1, steps=0)

    def test_champernowne_spec_rejected(self):
        with pytest.raises(ValueError, match="spec kind must be 'modular'"):
            modular_generate(GeneratorSpec(kind="champernowne", length=5))

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError, match="empty seed"):
            GeneratorSpec(kind="modular", seed="", period=1, steps=1)

    @given(
        st.text(alphabet="AB", min_size=1, max_size=3),
        st.integers(1, 5),
        st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_length_formula(self, seed, period, steps):
        spec = GeneratorSpec(
            kind="modular", seed=seed, period=period, steps=steps,
            extension_symbols=("C",),
        )
        out = modular_generate(spec)
        expected = sum(len(seed) + (i - 1) // period for i in range(1, steps + 1))
        assert len(out) == expected


class TestGeneratorSpec:
    def test_description_bits_champernowne(self):
        spec = GeneratorSpec(kind="champernowne", base=10, length=1000)
        # 2 kind bits + gamma(10) (7 bits) + gamma(1001) (19 bits)
        assert spec.description_bits == 28
        assert spec.description_bits == len(spec.encode_bits())

    def test_description_bits_grow_logarithmically(self):
        sizes = [
            GeneratorSpec(kind="champernowne", base=10, length=n).description_bits
            for n in (100, 10_000, 1_000_000)
        ]
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes[2] - sizes[0] <= 2 * (math.log2(1_000_000) - math.log2(100)) + 2

    def test_json_round_trip(self):
        for spec in (
            GeneratorSpec(kind="champernowne", base=2, length=64),
            GeneratorSpec(kind="modular", seed="AB", period=3, steps=9, extension_symbols=("C", "D")),
        ):
            assert GeneratorSpec.from_json(spec.to_json()) == spec

    def test_json_bytes(self):
        # the modular spec's JSON is part of the `long` benchmark input
        assert GeneratorSpec(kind="champernowne", base=2, length=64).to_json() == (
            '{"base": 2, "kind": "champernowne", "length": 64}'
        )
        spec = GeneratorSpec(kind="modular", seed="AB", period=3, steps=9, extension_symbols=("C", "D"))
        assert spec.to_json() == (
            '{"extension_symbols": ["C", "D"], "kind": "modular", "period": 3, "seed": "AB", "steps": 9}'
        )

    def test_from_json_extension_symbols_optional(self):
        spec = GeneratorSpec.from_json('{"kind": "modular", "seed": "AB", "period": 3, "steps": 9}')
        assert spec == GeneratorSpec(kind="modular", seed="AB", period=3, steps=9)

    @pytest.mark.parametrize("text, missing", [
        ('{"kind": "champernowne", "base": 2}', "length"),
        ('{"kind": "modular", "seed": "AB", "steps": 9}', "period"),
        ('{"base": 2, "length": 5}', "kind"),
    ])
    def test_from_json_missing_field(self, text, missing):
        with pytest.raises(ValueError, match=f"lacks field '{missing}'"):
            GeneratorSpec.from_json(text)

    @pytest.mark.parametrize("text", ["[1]", '"champernowne"', "null", "3"])
    def test_from_json_not_an_object(self, text):
        with pytest.raises(ValueError, match="must be a JSON object"):
            GeneratorSpec.from_json(text)

    @pytest.mark.parametrize("fields, name", [
        ({"kind": "champernowne", "base": "10", "length": 5}, "base"),
        ({"kind": "champernowne", "base": 10, "length": 5.0}, "length"),
        ({"kind": "champernowne", "base": True, "length": 5}, "base"),
        ({"kind": "modular", "seed": 5, "period": 3, "steps": 9}, "seed"),
        ({"kind": "modular", "seed": "AB", "period": None, "steps": 9}, "period"),
        ({"kind": "modular", "seed": "AB", "period": 3, "steps": False}, "steps"),
        ({"kind": "modular", "seed": "AB", "period": 3, "steps": 9, "extension_symbols": "CD"}, "extension_symbols"),
        ({"kind": "modular", "seed": "AB", "period": 3, "steps": 9, "extension_symbols": (1,)}, "extension_symbols"),
        ({"kind": "modular", "seed": "AB", "period": 3, "steps": 9, "extension_symbols": ("CD",)}, "extension_symbols"),
    ])
    def test_wrongly_typed_field_named(self, fields, name):
        # json.dumps writes the tuples as lists, which from_json reads back as tuples
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GeneratorSpec.from_json(json.dumps(fields))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GeneratorSpec(**fields)

    def test_extension_symbols_must_be_a_tuple(self):
        with pytest.raises(ValueError, match="^extension_symbols must be"):
            GeneratorSpec(kind="modular", seed="AB", period=3, steps=9, extension_symbols=["C"])

    @pytest.mark.parametrize("base, length, message", [
        (1, 5, "base out of range"),
        (37, 5, "base out of range"),
        (10, -1, "n outside"),
        (10, CHAMPERNOWNE_CAP + 1, "n outside"),
        (2, 10**12, "n outside"),
    ])
    def test_champernowne_spec_that_generate_rejects(self, base, length, message):
        # a spec is refused when it is made, not when it is generated
        fields = {"kind": "champernowne", "base": base, "length": length}
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(**fields)
        with pytest.raises(ValueError, match=message):
            GeneratorSpec.from_json(json.dumps(fields))

    def test_champernowne_spec_at_the_cap_accepted(self):
        spec = GeneratorSpec.from_json(json.dumps({"kind": "champernowne", "base": 10, "length": CHAMPERNOWNE_CAP}))
        assert spec.length == CHAMPERNOWNE_CAP
        assert spec.description_bits == len(spec.encode_bits())

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            GeneratorSpec(kind="fibonacci")

    @pytest.mark.parametrize("kind", ["fibonacci", None, 3, [1], {"a": 1}])
    def test_unknown_kind_in_json(self, kind):
        with pytest.raises(ValueError, match="unknown generator kind"):
            GeneratorSpec(kind=kind)
        with pytest.raises(ValueError, match="unknown generator kind"):
            GeneratorSpec.from_json(json.dumps({"kind": kind}))


class TestDivergenceReport:
    def test_champernowne_1000(self):
        spec = GeneratorSpec(kind="champernowne", base=10, length=1000)
        rep = divergence_report(generate(spec), spec)
        assert rep.normalized_entropy > 0.95
        assert rep.description_bits < 100
        assert rep.measures["huffman"] > 10 * rep.description_bits

    def test_pure_repetition_exposed(self):
        spec = GeneratorSpec(kind="modular", seed="A", period=1000, steps=64)
        s = generate(spec)
        rep = divergence_report(s, spec)
        assert rep.measures["rle"] < len(s) / 4
        assert rep.measures["ma_split"] <= math.ceil(math.log2(64)) + 1

    def test_payload_mismatch(self):
        spec = GeneratorSpec(kind="champernowne", base=10, length=2)
        with pytest.raises(ValueError, match="payload does not match spec"):
            divergence_report("AB", spec)

    def test_bdm_measure_included_with_table(self):
        spec = GeneratorSpec(kind="modular", seed="AB", period=9, steps=8)
        s = generate(spec)
        rep = divergence_report(s, spec, measures=("entropy", "bdm1d"), ctm_table=toy_table_1d())
        assert rep.measures["bdm1d"] > 0

    def test_bdm_requires_table(self):
        spec = GeneratorSpec(kind="modular", seed="AB", period=9, steps=8)
        with pytest.raises(ValueError, match="CTM table"):
            divergence_report(generate(spec), spec, measures=("bdm1d",))

    def test_unknown_measure(self):
        spec = GeneratorSpec(kind="modular", seed="AB", period=9, steps=8)
        with pytest.raises(ValueError, match="unknown measure"):
            divergence_report(generate(spec), spec, measures=("gzip",))

    def test_matrix_only_measure_rejected(self):
        spec = GeneratorSpec(kind="modular", seed="AB", period=9, steps=8)
        with pytest.raises(ValueError, match="unknown measure 'bdm2d'"):
            divergence_report(generate(spec), spec, measures=("bdm2d",))

    def test_ma_exact_accepted_under_guard(self):
        spec = GeneratorSpec(kind="modular", seed="AB", period=9, steps=8)
        s = generate(spec)
        rep = divergence_report(s, spec, measures=("ma_exact",))
        assert rep.measures == {"ma_exact": float(assembly_index_exact(s)[0])}

    def test_ma_exact_over_guard_rejected(self):
        spec = GeneratorSpec(kind="champernowne", base=10, length=40)
        with pytest.raises(ValueError, match="guard"):
            divergence_report(generate(spec), spec, measures=("ma_exact",))

    def test_split_bound_on_power_of_two_repetitions(self):
        # the log-bound guarantee holds on the doubling-friendly family
        from seqcomplexity.assembly import assembly_index_split

        for steps in (2, 4, 8, 16, 32, 64, 128):
            for seed in ("A", "AB"):
                spec = GeneratorSpec(kind="modular", seed=seed, period=steps + 1, steps=steps)
                out = generate(spec)
                assert out == seed * steps
                bound = (
                    math.ceil(math.log2(steps))
                    + assembly_index_exact(seed)[0]
                    + 1
                )
                assert assembly_index_split(out)[0] <= bound
