"""Closed-form constants and tail bounds for the admissible-path model.

All quantities are exact arithmetic in the model parameters (d, p):

* the per-site step count a (2d, or 2d-1 when straight-down steps are
  excluded) and the rates a*q and a^2*q with q = 1 - p;
* the explicit prefactor A = 1 / ((1 - a*q)(1 - a^2*q)) and the path-sum
  bound A * (a*q)^h * (a^2*q)^r, valid when a^2*q < 1 and r >= max(0, -h);
* the surface-height tail bound A * (a*q)^k and the spread-radius tail
  bound A * (a^2*q)^k, which the Monte Carlo harness tests against;
* the Laplace transform of the branching-random-walk offspring law,
  alpha(mu) = q * (sum_n tau_n e^(-mu n)) * (p e^mu / (1 - q e^mu)),
  with tau_n the 1-norm sphere count in Z^(d-1), summed with a certified
  geometric tail remainder; its minimizer over mu; and the root p1(d)
  below which no mu makes alpha < 1.
"""

from __future__ import annotations

import functools
from math import exp, log

import numpy as np

from .lattice import count_l1_sphere


class HypothesisError(ValueError):
    """A parameter combination outside the regime a bound is proved for."""


MU_MIN = 1e-4  # below this the offspring series needs too many terms to certify
_SERIES_TOL = 1e-12


def step_count(d: int, restricted: bool = False) -> int:
    """Admissible step vectors per site: 2d, or 2d-1 without straight-down."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return 2 * d - 1 if restricted else 2 * d


def tail_rate(d: int, p: float, restricted: bool = False) -> float:
    """Geometric rate a*(1-p) of the surface-height tail; must be < 1 to bite."""
    _check_p(p)
    return step_count(d, restricted) * (1.0 - p)


def spread_rate(d: int, p: float, restricted: bool = False) -> float:
    """Geometric rate a^2*(1-p) of the spread-radius tail."""
    _check_p(p)
    a = step_count(d, restricted)
    return a * a * (1.0 - p)


def prefactor(d: int, p: float, restricted: bool = False) -> float:
    """The explicit constant 1/((1-aq)(1-a^2 q)); requires a^2 q < 1."""
    aq = tail_rate(d, p, restricted)
    a2q = spread_rate(d, p, restricted)
    if a2q >= 1.0:
        raise HypothesisError(
            f"a^2*q = {a2q} >= 1 (need p > 1 - 1/a^2); bound not applicable")
    return 1.0 / ((1.0 - aq) * (1.0 - a2q))


def path_sum_bound(d: int, p: float, h: int, r: int, restricted: bool = False) -> float:
    """Bound on the expected number of admissible paths from the origin ending
    at height >= h and radial part >= r: A * (aq)^h * (a^2 q)^r.

    Requires a^2*q < 1 and r >= max(0, -h); the two violations raise distinct
    error types (HypothesisError vs ValueError).
    """
    if r < max(0, -h):
        raise ValueError(f"need r >= max(0, -h); got h={h}, r={r}")
    pref = prefactor(d, p, restricted)
    return pref * tail_rate(d, p, restricted) ** h * spread_rate(d, p, restricted) ** r


@functools.lru_cache(maxsize=1024)
def surface_tail_bound(d: int, p: float, k: int, restricted: bool = False) -> float:
    """Bound on P(surface height at a column exceeds k): A * (aq)^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return path_sum_bound(d, p, k, 0, restricted)


@functools.lru_cache(maxsize=1024)
def spread_tail_bound(d: int, p: float, k: int, restricted: bool = False) -> float:
    """Bound on P(spread radius of the ground cluster >= k): A * (a^2 q)^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return path_sum_bound(d, p, 0, k, restricted)


def geometric_mgf(p: float, mu: float) -> float:
    """E e^(mu*G) for G geometric on {1,2,...} with success p; needs q e^mu < 1."""
    _check_p(p)
    q = 1.0 - p
    if mu <= 0:
        raise ValueError("mu must be > 0")
    if q * exp(mu) >= 1.0:
        raise HypothesisError(f"q*e^mu = {q * exp(mu)} >= 1; transform diverges")
    return p * exp(mu) / (1.0 - q * exp(mu))


@functools.lru_cache(maxsize=1024)
def _sphere_block(dim: int, n0: int, block: int) -> np.ndarray:
    """tau_n = count_l1_sphere(dim, n) for n0 <= n < n0 + block, as floats."""
    taus = np.array([count_l1_sphere(dim, n) for n in range(n0, n0 + block)],
                    dtype=float)
    taus.flags.writeable = False
    return taus


def _sphere_series(dim: int, mu: float) -> float:
    """sum_{n>=1} tau_n e^(-mu n) with tau_n = count_l1_sphere(dim, n).

    Summed in blocks; stops when a certified geometric bound on the remainder
    drops below _SERIES_TOL relative to the partial sum.  tau_n <= 2(2n+1)^dim
    gives the remainder bound once the term ratio is safely below 1.
    """
    if mu < MU_MIN:
        raise HypothesisError(
            f"mu={mu} below {MU_MIN}: series tail cannot be certified cheaply; "
            "the transform diverges as mu -> 0")
    total = 0.0
    n0 = 1
    block = 512
    r = exp(-mu)
    while True:
        ns = np.arange(n0, n0 + block)
        taus = _sphere_block(dim, n0, block)
        total += float(np.sum(taus * np.power(r, ns.astype(float))))
        n_next = n0 + block
        # remainder bound: terms beyond n_next are <= 2(2n+1)^dim r^n, and the
        # ratio of consecutive bounding terms is at most c*r with
        # c = (1 + 2/(2*n_next+1))^dim
        c = (1.0 + 2.0 / (2 * n_next + 1)) ** dim
        if c * r < 1.0:
            head = 2.0 * (2 * n_next + 1) ** dim * r ** n_next
            remainder = head / (1.0 - c * r)
            if remainder <= _SERIES_TOL * max(total, 1.0):
                return total
        n0 = n_next
        if n0 > 20_000_000:  # pragma: no cover - guarded by MU_MIN
            raise HypothesisError("offspring series did not certify; mu too small")


def offspring_laplace(d: int, p: float, mu: float) -> float:
    """Mean of sum_z e^(mu z) over one offspring generation rooted at 0.

    Children arrive in levels n >= 1: a Binomial(tau_n, q) count at depth n,
    each displaced upward by an independent geometric; hence
    alpha = q * (sum_n tau_n e^(-mu n)) * E e^(mu G).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    _check_p(p)
    q = 1.0 - p
    mgf = geometric_mgf(p, mu)  # raises HypothesisError when q e^mu >= 1
    return q * _sphere_series(d - 1, mu) * mgf


def minimize_offspring_laplace(d: int, p: float) -> tuple[float, float]:
    """Golden-section minimum of offspring_laplace over the feasible mu interval.

    The transform is log-convex in mu, hence unimodal; the feasible interval
    is (0, log(1/q)) shrunk to where the series certifies.
    """
    _check_p(p)
    q = 1.0 - p
    lo = MU_MIN
    hi = log(1.0 / q) * (1.0 - 1e-9)
    if hi <= lo:
        raise HypothesisError(f"no feasible mu for p={p}")
    invphi = (5 ** 0.5 - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc = offspring_laplace(d, p, c)
    fe = offspring_laplace(d, p, e)
    while (b - a) > 1e-9 * max(abs(a), abs(b), 1e-12):
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = offspring_laplace(d, p, c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = offspring_laplace(d, p, e)
    mu_star = (a + b) / 2
    return mu_star, offspring_laplace(d, p, mu_star)


def subcritical_threshold(d: int, tol: float = 1e-6) -> float:
    """Bisection root of min_mu alpha(p) = 1; alpha < 1 strictly above it.

    Every bisection step keeps the bracket invariant alpha*(lo) >= 1 >
    alpha*(hi).  No closed-form reference value exists; the output is a
    reported artifact, pinned by its own postcondition.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")

    def alpha_star(p: float) -> float:
        return minimize_offspring_laplace(d, p)[1]

    hi = 1.0 - 1e-9
    if alpha_star(hi) >= 1.0:  # pragma: no cover - cannot happen for d <= 8
        raise HypothesisError(f"alpha* >= 1 even at p={hi}")
    lo = 0.5
    while alpha_star(lo) < 1.0:
        lo = lo / 2
        if lo < 1e-6:  # pragma: no cover
            raise HypothesisError("no subcritical/supercritical bracket found")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if alpha_star(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def constants_summary(d: int, p: float, restricted: bool = False,
                      k_max: int = 5) -> dict:
    """One JSON-able record of every constant, for the CLI and run metadata.

    The prefactor reported is the explicit proof-level constant, not an
    abstract finite one; downstream tables state this in their metadata.
    """
    _check_p(p)
    a2q = spread_rate(d, p, restricted)
    feasible = a2q < 1.0
    out = {
        "d": d,
        "p": p,
        "q": 1.0 - p,
        "step_mode": "no-straight-down" if restricted else "full",
        "steps_per_site": step_count(d, restricted),
        "surface_tail_rate": tail_rate(d, p, restricted),
        "spread_tail_rate": a2q,
        "hypothesis_ok": feasible,
        "prefactor": prefactor(d, p, restricted) if feasible else None,
        "prefactor_note": "explicit proof-level constant 1/((1-aq)(1-a^2 q))",
    }
    if feasible:
        out["surface_tail_bounds"] = [surface_tail_bound(d, p, k, restricted)
                                      for k in range(k_max + 1)]
        out["spread_tail_bounds"] = [spread_tail_bound(d, p, k, restricted)
                                     for k in range(k_max + 1)]
    try:
        mu_star, alpha_star = minimize_offspring_laplace(d, p)
        out["brw_mu_star"] = mu_star
        out["brw_alpha_star"] = alpha_star
        out["brw_subcritical"] = alpha_star < 1.0
    except HypothesisError:
        out["brw_mu_star"] = None
        out["brw_alpha_star"] = None
        out["brw_subcritical"] = False
    return out


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
