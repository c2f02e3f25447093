"""The exact tails against scipy over n up to 10^6 and scores within 5 sigma.

Every tail must return without an exception and agree with scipy to
1e-9 * max(|ref|, 1).  Above n = 10^5 a second term allows for the
log-prefactor: it is a sum of terms of size n * ln(n), each rounded to
one ulp, which near the mean puts the error at up to 3e-9 for n = 10^6.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from radioscope.stats import log_binomial_pvalue, log_gamma_pvalue

NS = sorted({int(round(x)) for x in np.logspace(0, 6, 25)} | {8000, 11000})
ZS = np.linspace(-5.0, 5.0, 21)


def _close(lp, ref, n):
    prefactor = 3 * np.finfo(float).eps * n * math.log(n) if n > 10**5 else 0.0
    return abs(lp - ref) <= 1e-9 * max(abs(ref), 1.0) + prefactor


@pytest.mark.parametrize("n", NS)
def test_gamma_tail_matches_scipy(n):
    for z in ZS:
        score = n + z * math.sqrt(n)
        if score < 0:
            continue
        lp, ref = log_gamma_pvalue(score, n), float(sps.gamma.logsf(score, n))
        assert _close(lp, ref, n), (n, z, lp, ref)


@pytest.mark.parametrize("n", NS)
def test_binomial_tail_matches_scipy(n):
    gamma = 0.25
    sd = math.sqrt(n * gamma * (1 - gamma))
    for z in ZS:
        s = min(max(math.ceil(n * gamma + z * sd), 0), n)
        lp = log_binomial_pvalue(s, n, gamma)
        ref = 0.0 if s == 0 else float(sps.binom.logsf(s - 1, n, gamma))
        assert _close(lp, ref, n), (n, z, s, lp, ref)
