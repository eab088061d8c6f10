import math

import numpy as np
import pytest

from lipsurf import bounds
from lipsurf.bounds import (HypothesisError, constants_summary, geometric_mgf,
                            minimize_offspring_laplace, offspring_laplace,
                            path_sum_bound, prefactor, spread_rate,
                            spread_tail_bound, step_count,
                            subcritical_threshold, surface_tail_bound,
                            tail_rate)
from lipsurf.lattice import count_l1_sphere


def test_tail_rate_examples():
    assert math.isclose(tail_rate(2, 0.99), 0.04)
    assert math.isclose(tail_rate(3, 35 / 36), 1 / 6)
    assert tail_rate(2, 0.7) >= 1.0  # hypothesis flag territory
    assert not constants_summary(2, 0.8)["hypothesis_ok"]
    assert constants_summary(2, 0.99)["hypothesis_ok"]


def test_step_count():
    assert step_count(2) == 4
    assert step_count(2, restricted=True) == 3
    assert step_count(5) == 10


def test_prefactor_value():
    # 1 / (0.96 * 0.84) at d=2, p=0.99
    assert math.isclose(prefactor(2, 0.99), 1.0 / (0.96 * 0.84), rel_tol=1e-12)
    assert math.isclose(prefactor(2, 0.99), 1.240079, rel_tol=1e-6)


def test_path_sum_bound_examples():
    assert math.isclose(path_sum_bound(2, 0.99, 0, 0), 1.240079, rel_tol=1e-6)
    assert math.isclose(path_sum_bound(2, 0.99, 1, 0), 0.0496032, rel_tol=1e-6)
    with pytest.raises(HypothesisError):
        path_sum_bound(2, 0.9, 0, 0)  # a^2 q = 1.6
    with pytest.raises(ValueError) as err:
        path_sum_bound(2, 0.99, -2, 1)  # r < max(0, -h)
    assert not isinstance(err.value, HypothesisError)


def test_path_sum_bound_factorizes():
    base = path_sum_bound(2, 0.99, 0, 0)
    aq = tail_rate(2, 0.99)
    a2q = spread_rate(2, 0.99)
    for h in range(-2, 4):
        for r in range(max(0, -h), 4):
            expect = base * aq ** h * a2q ** r
            assert math.isclose(path_sum_bound(2, 0.99, h, r), expect, rel_tol=1e-12)


def test_tail_bound_examples():
    assert math.isclose(surface_tail_bound(2, 0.99, 0), 1.240079, rel_tol=1e-6)
    assert math.isclose(spread_tail_bound(2, 0.99, 0), 1.240079, rel_tol=1e-6)
    assert math.isclose(surface_tail_bound(2, 0.99, 3), 7.9365e-5, rel_tol=1e-4)
    assert math.isclose(spread_tail_bound(2, 0.99, 5), 1.3001e-4, rel_tol=1e-3)


def test_bounds_decrease_in_p():
    grid = [0.95, 0.96, 0.97, 0.98, 0.99, 0.995]
    for k in (0, 1, 3):
        vals = [surface_tail_bound(2, p, k) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        vals = [spread_tail_bound(2, p, k) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def _alpha_closed_form(d, p, mu):
    # independent evaluation for d=2,3 where the sphere series has a closed form:
    # sum 2 r^n = 2r/(1-r) and sum 4n r^n = 4r/(1-r)^2
    q = 1.0 - p
    r = math.exp(-mu)
    if d == 2:
        series = 2 * r / (1 - r)
    elif d == 3:
        series = 4 * r / (1 - r) ** 2
    else:
        raise ValueError(d)
    return q * series * (p * math.exp(mu) / (1 - q * math.exp(mu)))


def test_offspring_laplace_value():
    alpha = offspring_laplace(2, 0.99, math.log(2))
    assert math.isclose(alpha, 0.0404082, rel_tol=1e-5)
    assert math.isclose(alpha, 0.01 * 2 * (1.98 / 0.98), rel_tol=1e-12)


def test_offspring_laplace_matches_closed_form():
    for d in (2, 3):
        for p in (0.95, 0.99, 0.999):
            for mu in (0.2, 0.5, math.log(2), 1.5):
                if (1 - p) * math.exp(mu) >= 1:
                    continue
                got = offspring_laplace(d, p, mu)
                want = _alpha_closed_form(d, p, mu)
                assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sphere_series_cache_is_exact(dim, monkeypatch):
    """The memoised sphere counts give the same float, bit for bit, as
    recounting every block; mu = 0.01 needs several 512-term blocks."""
    mus = (0.01, 0.2, math.log(2), 1.5)
    bounds._sphere_block.cache_clear()
    cached = [bounds._sphere_series(dim, mu) for mu in mus]
    assert [bounds._sphere_series(dim, mu) for mu in mus] == cached
    starts = []

    def recount(dim, n0, block):
        starts.append(n0)
        return np.array([count_l1_sphere(dim, n) for n in range(n0, n0 + block)],
                        dtype=float)

    monkeypatch.setattr(bounds, "_sphere_block", recount)
    assert [bounds._sphere_series(dim, mu) for mu in mus] == cached
    assert starts.count(1) == len(mus) and len(starts) > len(mus)


def test_offspring_laplace_domain_errors():
    with pytest.raises(HypothesisError):
        offspring_laplace(2, 0.5, 1.0)  # q e^mu > 1
    with pytest.raises(HypothesisError):
        offspring_laplace(2, 0.99, 1e-5)  # below the certifiable-mu threshold
    with pytest.raises(ValueError):
        geometric_mgf(0.99, -1.0)
    # alpha blows up toward mu -> 0+
    assert offspring_laplace(2, 0.99, 2e-4) > offspring_laplace(2, 0.99, math.log(2))


def test_minimize_offspring_laplace():
    mu_star, alpha_star = minimize_offspring_laplace(2, 0.99)
    assert alpha_star <= offspring_laplace(2, 0.99, math.log(2))
    # the golden-section result is no worse than a 1000-point grid scan
    lo, hi = 1e-4, math.log(1 / 0.01) * (1 - 1e-9)
    grid_min = min(offspring_laplace(2, 0.99, lo + (hi - lo) * i / 999)
                   for i in range(1000))
    assert alpha_star <= grid_min + 1e-8


def test_alpha_star_monotone_in_p():
    grid = [0.95, 0.97, 0.98, 0.99, 0.995, 0.999]
    stars = [minimize_offspring_laplace(2, p)[1] for p in grid]
    assert all(a >= b for a, b in zip(stars, stars[1:]))
    assert stars[-1] < 0.01  # alpha* -> 0 as p -> 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_subcritical_threshold_postcondition(d):
    tol = 1e-6
    p1 = subcritical_threshold(d, tol)
    assert 0.0 < p1 < 1.0
    assert minimize_offspring_laplace(d, p1 + tol)[1] < 1.0
    assert minimize_offspring_laplace(d, p1 - tol)[1] >= 1.0


def test_constants_summary_with_no_feasible_tilt():
    """Far below the proven regime neither the tail prefactor nor the BRW
    tilt exists: the summary says so with None, not an error."""
    out = constants_summary(2, 5e-5)
    assert out["hypothesis_ok"] is False and out["prefactor"] is None
    assert out["brw_mu_star"] is None and out["brw_alpha_star"] is None
    assert out["brw_subcritical"] is False
    assert "surface_tail_bounds" not in out and "spread_tail_bounds" not in out


def test_constants_summary_contents():
    out = constants_summary(2, 0.99)
    assert out["steps_per_site"] == 4
    assert math.isclose(out["surface_tail_rate"], 0.04)
    assert math.isclose(out["spread_tail_rate"], 0.16)
    assert "proof-level" in out["prefactor_note"]
    assert out["brw_subcritical"] is True
    restricted = constants_summary(2, 0.99, restricted=True)
    assert restricted["steps_per_site"] == 3
    assert math.isclose(restricted["surface_tail_rate"], 0.03)
