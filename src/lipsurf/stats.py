"""Small statistical helpers shared by the estimators."""

from __future__ import annotations

from functools import reduce
from math import sqrt
from operator import add

# the two-sided 99% normal quantile
Z_99 = 2.5758293035489004


def ltr_sum(values):
    """Sum left to right from int 0 on every Python version: from 3.12 the
    builtin sum() of floats is compensated, which changes last bits."""
    return reduce(add, values, 0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 99% interval for a binomial proportion.

    Preferred over the normal approximation because it stays sane for small
    counts and near 0 or 1 (a zero count still gets a positive upper bound).
    """
    if trials < 0 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = Z_99 * Z_99
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    margin = (Z_99 / denom) * sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return (max(0.0, center - margin), min(1.0, center + margin))


def mean_and_se(values) -> tuple[float, float]:
    """Sample mean and its standard error."""
    n = len(values)
    if n == 0:
        raise ValueError("empty sample")
    m = ltr_sum(values) / n
    if n == 1:
        return m, 0.0
    var = ltr_sum((v - m) ** 2 for v in values) / (n - 1)
    return m, sqrt(var / n)
