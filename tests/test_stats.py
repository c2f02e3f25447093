import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from radioscope import StatError, ks_two_sample, log_binomial_pvalue, log_gamma_pvalue


def binomial_pvalue(s: int, n: int, gamma: float) -> float:
    """P(S >= s) for S ~ Binomial(n, gamma), through the log form."""
    return math.exp(log_binomial_pvalue(s, n, gamma))


def gamma_pvalue(score: float, n: int) -> float:
    """P(S >= score) for S ~ Gamma(n, 1), through the log form."""
    return math.exp(log_gamma_pvalue(score, n))


def binomial_oracle(s: int, n: int, gamma: Fraction) -> Fraction:
    """Exact tail P(S >= s) by rational summation."""
    total = Fraction(0)
    for i in range(s, n + 1):
        total += (math.comb(n, i) * gamma**i * (1 - gamma) ** (n - i))
    return total


def gamma_oracle(s: float, n: int) -> float:
    """Integer-shape closed form: e^{-s} sum_{i<n} s^i / i!."""
    acc = 0.0
    term = 1.0
    for i in range(n):
        if i > 0:
            term *= s / i
        acc += term
    return math.exp(-s) * acc


class TestBinomial:
    def test_zero_score_is_one(self):
        for n in (1, 10, 1000):
            assert binomial_pvalue(0, n, 0.25) == 1.0

    def test_all_successes_closed_form(self):
        assert binomial_pvalue(10, 10, 0.25) == pytest.approx(0.25**10, rel=1e-12)

    def test_spec_example(self):
        assert binomial_pvalue(3, 5, 0.25) == pytest.approx(0.103515625, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(StatError):
            binomial_pvalue(6, 5, 0.25)

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 111, 1000])
    def test_matches_exact_summation(self, n, gamma):
        g = Fraction(gamma).limit_denominator(10**6)
        scores = sorted({0, 1, n // 3, n // 2, n - 1, n})
        for s in scores:
            exact = float(binomial_oracle(s, n, g))
            got = binomial_pvalue(s, n, float(g))
            assert got == pytest.approx(exact, rel=1e-10)

    def test_matches_scipy_tail(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 5000))
            s = int(rng.integers(0, n + 1))
            gamma = float(rng.uniform(0.05, 0.95))
            expect = scipy.stats.binom.sf(s - 1, n, gamma)
            assert binomial_pvalue(s, n, gamma) == pytest.approx(expect, rel=1e-8)

    def test_log_tail_below_underflow(self):
        # deep tail stays finite in log space; oracle = direct log-sum-exp
        # over the exact binomial terms (scipy's logsf underflows here)
        n, s, gamma = 10_000, 9000, 0.25
        terms = [
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(gamma) + (n - i) * math.log1p(-gamma)
            for i in range(s, n + 1)
        ]
        m = max(terms)
        expect = m + math.log(sum(math.exp(t - m) for t in terms))
        lp = log_binomial_pvalue(s, n, gamma)
        assert lp == pytest.approx(expect, rel=1e-10)
        assert lp < -4000

    def test_monotone_in_score(self):
        # strict monotonicity holds in log space even where p rounds to 1.0
        values = [log_binomial_pvalue(s, 500, 0.25) for s in range(1, 501, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_calibration_uniform(self):
        # discreteness vanishes at large N; p-values must look uniform
        rng = np.random.default_rng(42)
        n = 100_000
        draws = rng.binomial(n, 0.25, size=10_000)
        pvals = scipy.stats.binom.sf(draws - 1, n, 0.25)
        ours = [binomial_pvalue(int(s), n, 0.25) for s in draws[:200]]
        assert np.allclose(ours, pvals[:200], rtol=1e-8)
        _, ks_p = scipy.stats.kstest(pvals, "uniform")
        assert ks_p > 0.01


class TestGamma:
    def test_zero_score_is_one(self):
        assert gamma_pvalue(0.0, 5) == 1.0

    def test_exponential_tail(self):
        assert gamma_pvalue(1.0, 1) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_n2_closed_form(self):
        assert gamma_pvalue(1.0, 2) == pytest.approx(2 * math.exp(-1), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 50])
    def test_matches_integer_closed_form(self, n):
        for s in (0.1, 0.5, float(n) / 2, float(n), 2.0 * n, 5.0 * n):
            assert gamma_pvalue(s, n) == pytest.approx(gamma_oracle(s, n),
                                                       rel=1e-10)

    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 10_000))
            s = float(rng.uniform(0, 3 * n))
            assert gamma_pvalue(s, n) == pytest.approx(
                scipy.stats.gamma.sf(s, n), rel=1e-8)

    def test_log_tail(self):
        # integer-shape series in log space (scipy's logsf underflows here)
        n, s = 100, 5000.0
        terms = [i * math.log(s) - math.lgamma(i + 1) for i in range(n)]
        m = max(terms)
        expect = -s + m + math.log(sum(math.exp(t - m) for t in terms))
        lp = log_gamma_pvalue(s, n)
        assert lp == pytest.approx(expect, rel=1e-10)
        assert lp < -3000

    def test_monotone_in_score(self):
        values = [gamma_pvalue(s, 20) for s in np.linspace(0.01, 100, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_calibration_uniform(self):
        rng = np.random.default_rng(77)
        draws = rng.gamma(shape=50, scale=1.0, size=10_000)
        pvals = [gamma_pvalue(float(s), 50) for s in draws]
        _, ks_p = scipy.stats.kstest(pvals, "uniform")
        assert ks_p > 0.01


class TestKS:
    def test_identical_samples(self):
        d, p = ks_two_sample([1, 2, 3], [1, 2, 3])
        assert d == 0.0
        assert p == pytest.approx(1.0)

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([0, 0, 0], [1, 1, 1])
        assert d == 1.0

    def test_spec_example(self):
        d, _ = ks_two_sample([1, 3], [2, 4])
        assert d == 0.5

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xs = rng.normal(size=int(rng.integers(5, 60)))
            ys = rng.normal(0.3, size=int(rng.integers(5, 60)))
            d, p = ks_two_sample(xs, ys)
            ref = scipy.stats.ks_2samp(xs, ys, method="asymp")
            assert d == pytest.approx(ref.statistic, abs=1e-12)
            # stephens correction differs slightly from scipy's asymptotic
            assert p == pytest.approx(ref.pvalue, rel=0.2, abs=0.02)

    def test_shifted_distributions_detected(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(0, 1, 300)
        ys = rng.normal(1.0, 1, 300)
        _, p = ks_two_sample(xs, ys)
        assert p < 1e-6
