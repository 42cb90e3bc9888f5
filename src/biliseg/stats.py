"""Descriptive statistics and one-way ANOVA across segmentation methods.

The F-distribution tail is evaluated through a from-scratch regularized
incomplete beta function (continued fraction), so results are reproducible
from source without a statistics package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    df_between: int
    df_within: int
    p_value: float

    @property
    def significant(self) -> bool:
        """True iff p < 0.05."""
        return self.p_value < 0.05


def mean_std(samples) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (N-1 in the denominator)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {x.size}")
    return float(x.mean()), float(np.std(x, ddof=1))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    MAXIT, EPS, FPMIN = 500, 1e-15, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), absolute error below 1e-10.

    Raises ValueError outside the domain 0 <= x <= 1, a > 0, b > 0.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def one_way_anova(groups) -> AnovaResult:
    """Omnibus F test for equal group means.

    F = (SSB / (k-1)) / (SSW / (N-k)); the p-value is the upper tail of the
    F(k-1, N-k) distribution via the incomplete beta.
    """
    if len(groups) < 2:
        raise ConfigError(f"need at least 2 groups, got {len(groups)}")
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if any(a.size < 2 for a in arrays):
        raise ConfigError("every group needs at least 2 samples")

    k = len(arrays)
    n_total = sum(a.size for a in arrays)
    means = [float(a.mean()) for a in arrays]
    # weighted mean of group means: groups with equal means cancel exactly
    grand = sum(a.size * m for a, m in zip(arrays, means)) / n_total
    ssb = sum(a.size * (m - grand) ** 2 for a, m in zip(arrays, means))
    ssw = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)
    if ssw == 0.0:
        raise DegenerateInputError("zero within-group variance, F is undefined")

    df_between = k - 1
    df_within = n_total - k
    f = (ssb / df_between) / (ssw / df_within)
    x = df_between * f / (df_between * f + df_within)
    p = 1.0 - reg_inc_beta(x, df_between / 2.0, df_within / 2.0)
    return AnovaResult(f_stat=f, df_between=df_between, df_within=df_within, p_value=p)
