"""Correlation and two-sample tests: Pearson, Spearman, Welch's t, and
two-sample Kolmogorov-Smirnov.

Student-t tail probabilities go through a continued-fraction evaluation of
the regularized incomplete beta function; KS p-values use the asymptotic
Kolmogorov series on the effective sample size.  No continuity
corrections are applied anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import groupby
from statistics import NormalDist

__all__ = [
    "StatReport",
    "pearson",
    "spearman",
    "welch_t",
    "ks_two_sample",
    "student_t_sf",
    "regularized_incomplete_beta",
]


@dataclass(frozen=True)
class StatReport:
    """One test result: statistic, tail probabilities, optional df and CI."""

    statistic: float
    p_one_tail: float
    p_two_tail: float
    df: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    notes: str = ""


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by the Lentz continued fraction, relative tolerance 1e-12."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    # converges fastest for x < (a+1)/(a+b+2); otherwise use the symmetry
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)

    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)

    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(0, 400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        d = 1.0 / d
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-12:
            return front * (f - 1.0) / a
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    p = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


def _tails(t: float, df: float) -> tuple[float, float]:
    one = student_t_sf(abs(t), df)
    return one, min(1.0, 2.0 * one)


def _check_finite(*samples):
    if not all(math.isfinite(v) for sample in samples for v in sample):
        raise ValueError("non-finite value")


def _check_pair(xs, ys):
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 3:
        raise ValueError("need at least 3 pairs")
    _check_finite(xs, ys)
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ValueError("zero variance")


def _scaled(*samples):
    """The samples times the power of two that puts their largest magnitude
    in [0.5, 1): exact unless a product falls below the normal range, so no
    statistic changes, yet no square of a deviation overflows."""
    shift = -math.frexp(max(abs(v) for sample in samples for v in sample))[1]
    return [[math.ldexp(v, shift) for v in sample] for sample in samples]


def pearson(xs, ys, ci_level: float = 0.99) -> StatReport:
    """Sample Pearson correlation with t-based p-values and Fisher-z CI."""
    _check_pair(xs, ys)
    if not 0.0 < ci_level < 1.0:
        raise ValueError("ci_level outside (0, 1)")
    n = len(xs)
    (xs,), (ys,) = _scaled(xs), _scaled(ys)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))

    df = float(n - 2)
    if abs(r) == 1.0:
        one, two = 0.0, 0.0
        return StatReport(
            statistic=r, p_one_tail=one, p_two_tail=two, df=df,
            notes="degenerate |r|=1; CI unavailable",
        )
    t = r * math.sqrt(df / (1.0 - r * r))
    one, two = _tails(t, df)
    if n > 3:
        z = math.atanh(r)
        # the lower quantile, negated: 1 - (1 - ci_level)/2 rounds to 1.0 for a level just below 1
        half = -NormalDist().inv_cdf((1.0 - ci_level) / 2.0) / math.sqrt(n - 3)
        lo, hi = math.tanh(z - half), math.tanh(z + half)
    else:
        lo, hi = -1.0, 1.0  # n = 3 carries no Fisher-z information
    return StatReport(
        statistic=r, p_one_tail=one, p_two_tail=two, df=df,
        ci_low=lo, ci_high=hi, notes=f"fisher z CI, level {ci_level:g}",
    )


def _midranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    for _, run in groupby(order, key=values.__getitem__):
        run = list(run)
        rank = i + (len(run) + 1) / 2
        for k in run:
            ranks[k] = rank
        i += len(run)
    return ranks


def spearman(xs, ys, ci_level: float = 0.99) -> StatReport:
    """Spearman rho: Pearson correlation of mid-ranks (average-rank ties)."""
    _check_pair(xs, ys)
    rep = pearson(_midranks(xs), _midranks(ys), ci_level)
    return replace(rep, notes="midranks; " + rep.notes)


def welch_t(a, b) -> StatReport:
    """Unpaired two-sample t-test with Welch's correction."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least 2 observations per sample")
    _check_finite(a, b)
    na, nb = len(a), len(b)
    if min(a) == max(a) and min(b) == max(b):
        # tested before any mean is rounded: the mean of three 0.1s is not 0.1
        if a[0] == b[0]:
            return StatReport(
                statistic=0.0, p_one_tail=0.5, p_two_tail=1.0, df=None,
                notes="both samples constant and equal",
            )
        raise ValueError("zero variance in both samples with unequal means")
    a, b = _scaled(a, b)
    ma = math.fsum(a) / na
    mb = math.fsum(b) / nb
    # deviations this small could leave a variance, or its square in the df
    # quotient, below the normal range; the power of two that puts the
    # largest in [0.5, 1) lifts them, and larger ones keep every bit
    dev = max(abs(x - m) for xs, m in ((a, ma), (b, mb)) for x in xs)
    shift = -math.frexp(dev)[1] if dev < 2.0**-200 else 0
    va = math.fsum(math.ldexp(x - ma, shift) ** 2 for x in a) / (na - 1)
    vb = math.fsum(math.ldexp(x - mb, shift) ** 2 for x in b) / (nb - 1)
    se2 = va / na + vb / nb
    try:
        t = math.ldexp((ma - mb) / math.sqrt(se2), shift)
    except (OverflowError, ZeroDivisionError):
        # |t| beyond the float range, or no spread left after ``_scaled``
        raise ValueError("the spread underflows against the largest magnitude") from None
    df = se2 * se2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    one, two = _tails(t, df)
    return StatReport(statistic=t, p_one_tail=one, p_two_tail=two, df=df)


def _ecdf_distance(a, b) -> float:
    sa, sb = sorted(a), sorted(b)
    return max(
        abs(bisect_right(sa, x) / len(sa) - bisect_right(sb, x) / len(sb))
        for x in set(a) | set(b)
    )


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov tail probability Q(lambda).

    The alternating series converges slowly for small lambda, where the
    equivalent theta-function form takes over (Marsaglia's cutoff).
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        cdf = 0.0
        for j in range(1, 101):
            term = math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * lam * lam))
            cdf += term
            if term < 1e-18:
                break
        cdf *= math.sqrt(2.0 * math.pi) / lam
        return min(1.0, max(0.0, 1.0 - cdf))
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(a, b) -> StatReport:
    """Two-sample KS test: D = sup |ECDF_a - ECDF_b|, asymptotic p-value.

    The p-value uses the Kolmogorov series at the effective size
    ``na*nb/(na+nb)`` and is asymptotic even for small samples.
    """
    if not a or not b:
        raise ValueError("empty sample")
    _check_finite(a, b)
    d = _ecdf_distance(a, b)
    n_eff = len(a) * len(b) / (len(a) + len(b))
    p = 1.0 if d == 0.0 else kolmogorov_sf(math.sqrt(n_eff) * d)
    return StatReport(
        statistic=d, p_one_tail=p, p_two_tail=p, df=None, notes="asymptotic",
    )
