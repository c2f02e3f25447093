"""Exact p-values for watermark scores, Fisher combination, and K-S test.

The binomial tail (greenlist scheme) goes through the regularized
incomplete beta function, the exponential-score tail through the
regularized upper incomplete gamma function.  Both are evaluated with the
textbook continued-fraction / series algorithms, carried in log-space so
that p-values far below 1e-300 keep an exact ``log10``.
"""

from __future__ import annotations

import math

_EPS = 1e-16
_TINY = 1e-300


def _max_iter(a: float) -> int:
    """Iteration cap of the series and continued fractions at shape ``a``.

    Their iteration counts grow like sqrt(a) near the mean; a value that
    converges under a lower cap converges at the same iteration here.
    """
    return 600 + 10 * math.isqrt(int(a))


class StatError(ValueError):
    """Domain error in a statistical computation."""


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _max_iter(max(a, b))):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise StatError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def log_betainc(a: float, b: float, x: float) -> float:
    """Natural log of the regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return -math.inf
    if x >= 1.0:
        return 0.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return ln_front + math.log(_betacf(a, b, x) / a)
    # complement is the big side; safe in linear space
    comp = math.exp(ln_front) * _betacf(b, a, 1.0 - x) / b
    return math.log1p(-min(comp, 1.0)) if comp < 1.0 else -math.inf


def log_binomial_pvalue(s: int, n: int, gamma: float) -> float:
    """Natural log of P(S >= s) for S ~ Binomial(n, gamma)."""
    if not 0.0 < gamma < 1.0:
        raise StatError(f"gamma must be in (0, 1), got {gamma}")
    if s < 0 or n < 0 or s > n:
        raise StatError(f"need 0 <= s <= n, got s={s}, n={n}")
    if s == 0:
        return 0.0
    if s == n:
        return n * math.log(gamma)
    # P(S >= s) = I_gamma(s, n - s + 1)
    return log_betainc(float(s), float(n - s + 1), gamma)


def binomial_pvalue(s: int, n: int, gamma: float) -> float:
    """P(S >= s) for S ~ Binomial(n, gamma); underflows to 0.0 when tiny."""
    lp = log_binomial_pvalue(s, n, gamma)
    return math.exp(lp) if lp > -745.0 else 0.0


def _gamma_series_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series; x < a + 1."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_max_iter(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise StatError(f"incomplete gamma series did not converge for a={a}, x={x}")


def _gamma_cf_log_q(a: float, x: float) -> float:
    """Natural log of Q(a, x) by continued fraction; x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _max_iter(a)):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return -x + a * math.log(x) - math.lgamma(a) + math.log(h)
    raise StatError(f"incomplete gamma CF did not converge for a={a}, x={x}")


def log_gamma_pvalue(score: float, n: int) -> float:
    """Natural log of P(S >= score) for S ~ Gamma(n, 1)."""
    if n < 1:
        raise StatError(f"n must be >= 1, got {n}")
    if score < 0.0:
        raise StatError(f"score must be >= 0, got {score}")
    if score == 0.0:
        return 0.0
    a = float(n)
    if score < a + 1.0:
        p = _gamma_series_p(a, score)
        return math.log1p(-p) if p < 1.0 else -math.inf
    return _gamma_cf_log_q(a, score)


def gamma_pvalue(score: float, n: int) -> float:
    """Regularized upper incomplete gamma Q(n, score) = P(S >= score)."""
    lp = log_gamma_pvalue(score, n)
    return math.exp(lp) if lp > -745.0 else 0.0


def fisher_combine(p_values) -> float:
    """Fisher's method: chi-square survival of -2 * sum(ln p) at 2m dof."""
    return math.exp(min(log_fisher_combine(p_values), 0.0))


def log_fisher_combine(p_values) -> float:
    """Natural log of the Fisher-combined p-value."""
    ps = list(p_values)
    for p in ps:
        if not 0.0 < p <= 1.0:
            raise StatError(
                f"p-values must lie in (0, 1]; got {p} "
                "(clamp zero p-values to the smallest representable value first)"
            )
    return log_fisher_combine_logs([math.log(p) for p in ps])


def log_fisher_combine_logs(log_ps) -> float:
    """Natural log of the Fisher-combined p-value of natural-log p-values.

    A p-value given by its log keeps its mass where p itself underflows.
    """
    log_ps = list(log_ps)
    if not log_ps:
        raise StatError("fisher_combine needs at least one p-value")
    # -2 * sum(ln p) is chi-square with 2m dof, whose survival at x is Q(m, x/2)
    return log_gamma_pvalue(-sum(log_ps), len(log_ps))


def _kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q_KS(lambda)."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = sign * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample(xs, ys) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov test.

    Returns the exact sup-distance between the empirical CDFs and the
    asymptotic p-value at effective size n*m/(n+m).
    """
    xs = sorted(xs)
    ys = sorted(ys)
    n, m = len(xs), len(ys)
    if n == 0 or m == 0:
        raise StatError("both samples must be nonempty")
    d = 0.0
    i = j = 0
    while i < n and j < m:
        v = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n and xs[i] <= v:
            i += 1
        while j < m and ys[j] <= v:
            j += 1
        d = max(d, abs(i / n - j / m))
    d = max(d, abs(1.0 - j / m), abs(i / n - 1.0))
    ne = n * m / (n + m)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return d, _kolmogorov_sf(lam)
