import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqcomplexity.stats import (
    _midranks,
    ks_two_sample,
    pearson,
    regularized_incomplete_beta,
    spearman,
    student_t_sf,
    welch_t,
)

import oracles

FLOATS = st.floats(min_value=-100, max_value=100, allow_nan=False)
SERIES = st.lists(FLOATS, min_size=3, max_size=20).filter(lambda v: min(v) < max(v))


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]).statistic == 1.0

    def test_exact_antilinear(self):
        assert pearson([1, 2, 3], [3, 2, 1]).statistic == -1.0

    def test_half(self):
        # closed form: covariance 1, both variances 2
        assert pearson([1, 2, 3], [1, 3, 2]).statistic == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1, 2, 3], [1, 2])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_3_pairs_rejected(self, n):
        with pytest.raises(ValueError, match="^need at least 3 pairs$"):
            pearson([1.0, 2.0][:n], [2.0, 1.0][:n])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # min(1.0, nan) is 1.0, so an unchecked NaN would read as r = 1, p = 0
        with pytest.raises(ValueError, match="non-finite value"):
            pearson([1, 2, bad, 4], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="non-finite value"):
            pearson([1, 2, 3, 4], [1, 2, bad, 4])

    def test_degenerate_r_has_no_ci(self):
        rep = pearson([1, 2, 3], [2, 4, 6])
        assert rep.p_two_tail == 0.0
        assert rep.ci_low is None and rep.ci_high is None

    def test_ci_contains_r(self):
        rep = pearson([1, 2, 3, 4, 5, 6], [1.1, 2.3, 2.8, 4.2, 4.9, 6.4], ci_level=0.99)
        assert rep.ci_low <= rep.statistic <= rep.ci_high

    def test_ci_level_widens(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8]
        ys = [1.2, 1.9, 3.4, 3.8, 5.5, 5.7, 7.1, 8.3]
        wide = pearson(xs, ys, ci_level=0.99)
        narrow = pearson(xs, ys, ci_level=0.90)
        assert wide.ci_high - wide.ci_low > narrow.ci_high - narrow.ci_low

    def test_ci_level_just_below_one(self):
        # 1 - (1 - level)/2 rounds to 1.0 here, outside the normal quantile's domain
        rep = pearson([1, 2, 3, 5], [2, 1, 4, 3], ci_level=0.9999999999999999)
        assert -1.0 < rep.ci_low < rep.statistic < rep.ci_high < 1.0

    @given(SERIES, SERIES)
    @settings(max_examples=40, deadline=None)
    # the product of the two sums of squares underflows unless they are scaled
    @example([0.0, 0.0, 1.3002332469320458e-126], [0.0, 0.0, 1.3002332469320458e-126])
    def test_symmetry_and_range(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        if n < 3 or min(xs) == max(xs) or min(ys) == max(ys):
            return
        a = pearson(xs, ys)
        b = pearson(ys, xs)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert -1.0 <= a.statistic <= 1.0
        assert 0.0 <= a.p_one_tail <= 1.0
        assert a.p_two_tail == pytest.approx(min(1.0, 2 * a.p_one_tail), abs=1e-15)

    def test_affine_invariance(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [2.0, 1.0, 6.0, 3.0]
        base = pearson(xs, ys).statistic
        scaled = pearson([3 * x + 7 for x in xs], ys).statistic
        flipped = pearson([-2 * x + 1 for x in xs], ys).statistic
        assert scaled == pytest.approx(base, abs=1e-12)
        assert flipped == pytest.approx(-base, abs=1e-12)


class TestPowerOfTwoScaling:
    """Samples are scaled by an exact power of two before their moments
    are taken, so a power of two changes no bit, and the squares of
    extreme finite values do not overflow."""

    XS, YS = [1.1, 2.3, 4.0, 8.7, 3.5], [2.0, 1.3, 6.1, 3.0, 2.5]
    A, B = [1.0, 2.2, 5.1], [2.0, 4.7, 4.5, 3.3]

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_reports_unchanged(self, k):
        def times(sample):
            return [math.ldexp(v, k) for v in sample]

        assert dataclasses.asdict(pearson(times(self.XS), self.YS)) == dataclasses.asdict(pearson(self.XS, self.YS))
        assert dataclasses.asdict(welch_t(times(self.A), times(self.B))) == dataclasses.asdict(welch_t(self.A, self.B))

    def test_squares_beyond_float_range(self):
        assert pearson([0, 0, 1e200], [1, 3, 2]).statistic == 0.0
        rep = welch_t([0, 0, 1e200], [1, 2, 3])
        assert rep.statistic == pytest.approx(1.0) and rep.df == pytest.approx(2.0)


class TestSpearman:
    def test_monotone_transform(self):
        assert spearman([1, 2, 3], [1, 4, 9]).statistic == 1.0

    def test_antimonotone(self):
        assert spearman([1, 2, 3], [9, 4, 1]).statistic == -1.0

    def test_half(self):
        assert spearman([1, 2, 3], [1, 3, 2]).statistic == pytest.approx(0.5, abs=1e-12)

    def test_strictly_increasing_transform_invariance(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0]
        ys = [2.0, 7.0, 1.0, 8.0, 2.5]
        base = spearman(xs, ys).statistic
        assert spearman([math.exp(x) for x in xs], ys).statistic == pytest.approx(base, abs=1e-12)
        assert spearman(xs, [y**3 for y in ys]).statistic == pytest.approx(base, abs=1e-12)

    def test_midrank_ties(self):
        # ranks of [1, 2, 2, 3] are [1, 2.5, 2.5, 4]
        rep = spearman([1, 2, 2, 3], [1, 2, 3, 4])
        expected = pearson([1.0, 2.5, 2.5, 4.0], [1.0, 2.0, 3.0, 4.0]).statistic
        assert rep.statistic == pytest.approx(expected, abs=1e-12)

    @given(st.one_of(st.lists(st.integers(0, 4), max_size=30), st.lists(FLOATS, max_size=30)))
    @settings(max_examples=60, deadline=None)
    def test_midranks_equal_counting_oracle(self, values):
        # a shift of every rank leaves rho unchanged, so check the ranks themselves
        assert _midranks(values) == oracles.midranks(values)

    def test_report_is_pearson_of_midranks(self):
        xs, ys = [3.0, 1.0, 4.0, 1.0, 5.0], [2.0, 7.0, 1.0, 8.0, 2.5]
        rep, ref = spearman(xs, ys), pearson([3.0, 1.5, 4.0, 1.5, 5.0], [2.0, 4.0, 1.0, 5.0, 3.0])
        assert (rep.statistic, rep.p_one_tail, rep.p_two_tail, rep.df, rep.ci_low, rep.ci_high) == (
            ref.statistic, ref.p_one_tail, ref.p_two_tail, ref.df, ref.ci_low, ref.ci_high
        )
        assert rep.notes == "midranks; " + ref.notes

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite value"):
            spearman([1, 2, bad, 4], [1, 2, 3, 4])


class TestWelch:
    def test_identical_samples(self):
        rep = welch_t([1, 2, 3], [1, 2, 3])
        assert rep.statistic == 0.0
        assert rep.p_two_tail == 1.0

    def test_closed_form(self):
        rep = welch_t([1, 2, 3], [2, 3, 4])
        assert rep.statistic == pytest.approx(-1.224744871391589, abs=1e-6)
        assert rep.df == pytest.approx(4.0, abs=1e-12)

    def test_p_against_integration_oracle(self):
        rep = welch_t([1, 2, 3], [2, 3, 4])
        oracle = 2 * oracles.student_t_sf_trapezoid(abs(rep.statistic), rep.df)
        assert rep.p_two_tail == pytest.approx(0.288, abs=1e-3)
        assert rep.p_two_tail == pytest.approx(oracle, abs=1e-9)

    def test_antisymmetry(self):
        a, b = [1.0, 2.0, 5.0], [2.0, 4.0, 4.5]
        ra, rb = welch_t(a, b), welch_t(b, a)
        assert ra.statistic == pytest.approx(-rb.statistic, abs=1e-12)
        assert ra.p_two_tail == pytest.approx(rb.p_two_tail, abs=1e-15)

    def test_undersized(self):
        with pytest.raises(ValueError, match="at least 2"):
            welch_t([1.0], [1.0, 2.0])

    def test_both_constant_equal(self):
        rep = welch_t([3, 3], [3, 3, 3])
        assert rep.statistic == 0.0 and rep.p_two_tail == 1.0

    def test_both_constant_unequal(self):
        with pytest.raises(ValueError, match="zero variance"):
            welch_t([3, 3], [4, 4])

    @staticmethod
    def _exact(a, b):
        """t squared and df in exact rational arithmetic on the given floats."""
        def term(xs):
            xs = [Fraction(x) for x in xs]
            m = sum(xs) / len(xs)
            return m, sum((x - m) ** 2 for x in xs) / (len(xs) - 1) / len(xs), len(xs)

        (ma, qa, na), (mb, qb, nb) = term(a), term(b)
        se2 = qa + qb
        return (ma - mb) ** 2 / se2, se2**2 / (qa**2 / (na - 1) + qb**2 / (nb - 1))

    @pytest.mark.parametrize(
        "a, b",
        [
            ([1.0, 2.2, 5.1], [2.0, 4.7, 4.5, 3.3]),
            # squared deviations of 1e-155 fall below the normal range, and
            # their squares in the df quotient below the subnormal one
            ([1, 1], [0, 2e-155]),
            ([1, 1], [0, 1e-170]),
            ([1e-170, 3e-170, 1], [1, 1, 2e-171]),
        ],
    )
    def test_against_exact_arithmetic(self, a, b):
        rep = welch_t(a, b)
        t2, df = self._exact(a, b)
        assert math.copysign(1.0, rep.statistic) == math.copysign(1.0, sum(a) / len(a) - sum(b) / len(b))
        assert float(Fraction(rep.statistic) ** 2 / t2) == pytest.approx(1.0, rel=1e-12)
        assert float(Fraction(rep.df) / df) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "b",
        [
            [0, 5e-324],  # halving 5e-324 to scale the samples leaves no spread
            [0, 1e-310],  # |t| near 1e310
            [0, 2.0**-1023],  # the scaled mean difference fits, |t| does not
        ],
    )
    def test_spread_below_float_range_named(self, b):
        with pytest.raises(ValueError, match="spread underflows against the largest magnitude"):
            welch_t([1, 1], b)

    def test_constant_samples_whose_means_round(self):
        # fsum([0.1] * 3) / 3 != 0.1, so the rounded means show a spread
        # that the samples do not have
        with pytest.raises(ValueError, match="zero variance"):
            welch_t([0.1] * 3, [0.7] * 3)
        assert welch_t([0.1] * 3, [0.1] * 5).notes == "both samples constant and equal"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # an unchecked NaN would fail deep inside the incomplete beta
        with pytest.raises(ValueError, match="non-finite value"):
            welch_t([1.0, bad, 3.0], [2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="non-finite value"):
            welch_t([1.0, 2.0, 3.0], [2.0, 3.0, bad])


class TestKs:
    def test_disjoint_supports(self):
        assert ks_two_sample([1, 2, 3], [4, 5, 6]).statistic == 1.0

    def test_identical(self):
        rep = ks_two_sample([1, 2, 3], [1, 2, 3])
        assert rep.statistic == 0.0
        assert rep.p_two_tail == 1.0

    def test_interleaved(self):
        assert ks_two_sample([1, 3], [2, 4]).statistic == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            ks_two_sample([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN has no place in a sort order, so the ECDFs would be arbitrary
        with pytest.raises(ValueError, match="non-finite value"):
            ks_two_sample([1.0, bad, 3.0], [2.0, 4.0])

    @given(
        st.lists(FLOATS, min_size=1, max_size=15),
        st.lists(FLOATS, min_size=1, max_size=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_statistic_matches_oracle_and_symmetry(self, a, b):
        rep = ks_two_sample(a, b)
        assert rep.statistic == pytest.approx(oracles.ecdf_sup_distance(a, b), abs=1e-12)
        assert rep.statistic == pytest.approx(ks_two_sample(b, a).statistic, abs=1e-15)
        assert 0.0 <= rep.statistic <= 1.0
        assert 0.0 <= rep.p_two_tail <= 1.0

    def test_d_zero_iff_same_ecdf(self):
        assert ks_two_sample([1, 1, 2], [1, 2, 1]).statistic == 0.0
        assert ks_two_sample([1, 1, 2], [1, 2, 2]).statistic > 0.0


class TestTDistribution:
    def test_cdf_matches_integration_oracle(self):
        worst = 0.0
        for df in (1.0, 2.0, 4.0, 10.0, 100.0):
            for t in np.linspace(-10.0, 10.0, 41):
                mine = student_t_sf(float(t), df)
                ref = oracles.student_t_sf_trapezoid(float(t), df)
                worst = max(worst, abs(mine - ref))
        assert worst <= 1e-6

    def test_p_monotone_in_statistic(self):
        for df in (1.0, 4.0, 30.0):
            values = [student_t_sf(t, df) for t in np.linspace(0.0, 8.0, 30)]
            assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("df", [0.0, -1.0, -math.inf])
    def test_non_positive_df_rejected(self, df):
        with pytest.raises(ValueError, match="^df must be positive$"):
            student_t_sf(1.0, df)

    @pytest.mark.parametrize("df", [1.0, 4.0, 1e6])
    def test_infinite_t(self, df):
        assert student_t_sf(math.inf, df) == 0.0
        assert student_t_sf(-math.inf, df) == 1.0

    def test_symmetry(self):
        assert student_t_sf(0.0, 5.0) == pytest.approx(0.5, abs=1e-12)
        assert student_t_sf(2.0, 5.0) == pytest.approx(1 - student_t_sf(-2.0, 5.0), abs=1e-12)

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(2.0, 3.0, 1.5)

    def test_incomplete_beta_closed_form(self):
        # I_x(1, b) = 1 - (1-x)^b
        for x in (0.1, 0.4, 0.9):
            for b in (1.0, 2.0, 5.5):
                assert regularized_incomplete_beta(1.0, b, x) == pytest.approx(
                    1 - (1 - x) ** b, rel=1e-12
                )
