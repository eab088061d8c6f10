"""Dominating branching random walk for the local-cover growth process.

One particle sits at location 0.  Its children arrive in depth levels
n = 1, 2, ...: the level-n count is Binomial(tau_n, q) with tau_n the
1-norm sphere count in Z^(d-1), and each child lands at
parent - n + Geometric(p).  Every particle reproduces independently with
the same law.  With the exponential weight S_n = sum of e^(mu * location)
over generation n, the mean evolves exactly as E S_n = alpha^n where
alpha is the offspring Laplace transform from the bounds module; S_n /
alpha^n is a nonnegative martingale, which the tests check empirically.

The offspring law has almost surely infinitely many children in total
(the level counts never stop), so simulation truncates at depth_cap and
optionally prunes children whose weight falls below weight_floor.  Both
truncations are accounted exactly: the cap removes a computable slice of
alpha (reported as cap_remainder), and every pruned child's weight is
added to a discarded tally, never silently lost.

Randomness is keyed per particle by its ancestry, so pruning or ignoring
one particle never shifts the draws of any other; runs are deterministic
given (master_seed, run_index).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import exp

import numpy as np

from .bounds import geometric_mgf, offspring_laplace
from .lattice import absorb, count_l1_sphere
from .stats import Z_99, mean_and_se, wilson_interval

_DOMAIN_TAG = 0x42525754  # keeps BRW streams disjoint from field streams
_SHIFT_TAG = 0x43


@dataclass(frozen=True)
class OffspringLaw:
    """Parameters of one branching step, plus the simulation truncations."""

    d: int
    p: float
    mu: float
    depth_cap: int = 30
    weight_floor: float = 0.0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0,1)")
        if not self.mu > 0.0:  # NaN fails too
            raise ValueError("mu must be > 0")
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")
        if not self.weight_floor >= 0.0:
            raise ValueError("weight_floor must be >= 0")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def alpha(self) -> float:
        return offspring_laplace(self.d, self.p, self.mu)

    def alpha_truncated(self) -> float:
        """Laplace transform of the depth-capped law; the simulated mean."""
        series = sum(count_l1_sphere(self.d - 1, n) * exp(-self.mu * n)
                     for n in range(1, self.depth_cap + 1))
        return self.q * series * geometric_mgf(self.p, self.mu)

    def cap_remainder(self) -> float:
        """Per-unit-weight mass the depth cap removes from one generation."""
        return self.alpha() - self.alpha_truncated()

    def offspring_second_moment(self) -> float:
        """E W^2 for W the weighted sum over one offspring generation.

        Levels are independent compound binomials, so
        Var W = sum_n tau_n q E X_n^2 - tau_n q^2 (E X_n)^2 with
        X_n = e^(mu(g - n)); both series reuse the certified sphere-series
        summation at 2*mu (which must itself satisfy q e^(2mu) < 1).
        """
        from .bounds import _sphere_series
        s2 = _sphere_series(self.d - 1, 2.0 * self.mu)
        g1 = geometric_mgf(self.p, self.mu)
        g2 = geometric_mgf(self.p, 2.0 * self.mu)
        alpha = self.alpha()
        var_w = self.q * s2 * g2 - (self.q * g1) ** 2 * s2
        return var_w + alpha * alpha

    def s_second_moment(self, n: int) -> float:
        """Exact E S_n^2 by the branching recursion
        m2_k = a2 * m2_(k-1) + (gamma - a2) * alpha^(2(k-1)),
        where a2 is the offspring transform at 2*mu and gamma = E W^2."""
        alpha = self.alpha()
        a2 = offspring_laplace(self.d, self.p, 2.0 * self.mu)
        gamma = self.offspring_second_moment()
        m2 = 1.0
        for k in range(1, n + 1):
            m2 = a2 * m2 + (gamma - a2) * alpha ** (2 * (k - 1))
        return m2

    def mean_standard_error(self, n: int, runs: int) -> float:
        """Exact standard error of the empirical mean of S_n over the given
        number of runs: sqrt((E S_n^2 - alpha^(2n)) / runs).  This is the
        honest yardstick for the martingale identity; the sample SE
        collapses at deep n, where the mean is carried by lineages far too
        rare to observe."""
        alpha = self.alpha()
        var = max(0.0, self.s_second_moment(n) - alpha ** (2 * n))
        return (var / runs) ** 0.5


@functools.lru_cache(maxsize=32)
def _level_counts(d: int, depth_cap: int) -> int | np.ndarray:
    """Sites per depth level 1..depth_cap, as one int when every level has
    the same count (d=2).  numpy's binomial then takes its scalar-n path,
    which makes the same draws in the same order as the array form at a
    fraction of its fixed cost per call."""
    taus = [count_l1_sphere(d - 1, n) for n in range(1, depth_cap + 1)]
    return taus[0] if len(set(taus)) == 1 else np.array(taus)


def sample_offspring(location: int, law: OffspringLaw, key: int
                     ) -> tuple[list[tuple[int, int]], float]:
    """Children of one particle: list of (location, child_key) pairs, plus
    the exact weight discarded by the floor prune.

    Level counts and geometric displacements come from a generator seeded by
    the particle's key alone; child keys extend the ancestry chain.  Only
    the levels with children are visited.
    """
    rng = np.random.default_rng(key)
    counts = rng.binomial(_level_counts(law.d, law.depth_cap), law.q, law.depth_cap)
    children: list[tuple[int, int]] = []
    discarded = 0.0
    for i in counts.nonzero()[0].tolist():
        n = i + 1
        level_key = absorb(key, n)
        for j in range(int(counts[i])):
            g = int(rng.geometric(law.p))
            loc = location - n + g
            w = exp(law.mu * loc)
            if w < law.weight_floor:
                discarded += w
                continue
            children.append((loc, absorb(level_key, j)))
    return children, discarded


@dataclass(frozen=True)
class BrwRun:
    """One simulated lineage: exponential weights and extremes per generation.

    max_locations[n] is None once the population is extinct.  discarded_cum
    accumulates the exact weight removed by floor pruning through each
    generation; truncated flags a run stopped by the particle cap.
    """

    law: OffspringLaw
    shift: int | None
    s_values: tuple[float, ...]
    max_locations: tuple[int | None, ...]
    population: tuple[int, ...]
    discarded_cum: tuple[float, ...]
    truncated: bool


def run_key(master_seed: int, run_index: int) -> int:
    return absorb(absorb(absorb(0, _DOMAIN_TAG), master_seed), run_index)


def evolve(law: OffspringLaw, generations: int, master_seed: int,
           run_index: int = 0, shift: int | None = None,
           particle_cap: int = 100_000) -> BrwRun:
    """Simulate one run for the given number of generations.

    With shift=C every location is offset by +C from the start (S_0 becomes
    e^(mu*C)); the keyed randomness makes the shifted run's locations equal
    the unshifted run's plus C, exactly.  The particle cap cuts by count in
    the same order, so truncation is the same too; only a positive
    weight_floor, which prunes by location, tells the two runs apart.  The
    martingale table reads the unshifted run, the survival table the run
    shifted by its C: with a zero floor that is the unshifted run's maxima
    plus C, so one evolve per run index serves both tables.
    """
    if generations < 1:
        raise ValueError("generations must be >= 1")
    loc0 = 0 if shift is None else int(shift)
    particles: list[tuple[int, int]] = [(loc0, run_key(master_seed, run_index))]
    s_values = [exp(law.mu * loc0)]
    max_locations: list[int | None] = [loc0]
    population = [1]
    discarded_cum = [0.0]
    discarded = 0.0
    truncated = False
    for _ in range(generations):
        if not particles:
            break
        nxt: list[tuple[int, int]] = []
        for loc, key in particles:
            kids, dropped = sample_offspring(loc, law, key)
            discarded += dropped
            nxt.extend(kids)
            if len(nxt) > particle_cap:
                truncated = True
                nxt = nxt[:particle_cap]
                break
        particles = nxt
        s_values.append(sum(exp(law.mu * loc) for loc, _ in particles))
        max_locations.append(max(loc for loc, _ in particles) if particles else None)
        population.append(len(particles))
        discarded_cum.append(discarded)
    # an extinct run stops; each generation left reads what an empty one
    # gives: the int 0 that sum() returns, no maximum, no particles
    left = generations + 1 - len(s_values)
    s_values += [0] * left
    max_locations += [None] * left
    population += [0] * left
    discarded_cum += [discarded] * left
    return BrwRun(law, shift, tuple(s_values), tuple(max_locations),
                  tuple(population), tuple(discarded_cum), truncated)


def sample_shift(law: OffspringLaw, master_seed: int, run_index: int) -> int:
    """Height of the lowest open site above a column: geometric with success p."""
    rng = np.random.default_rng(absorb(run_key(master_seed, run_index), _SHIFT_TAG))
    return int(rng.geometric(law.p))


@dataclass(frozen=True)
class MartingaleRow:
    n: int
    mean_s: float
    se_s: float
    alpha_pow: float
    cap_bias: float
    mean_discarded: float


@dataclass(frozen=True)
class SurvivalRow:
    n: int
    hits: int
    runs: int
    frequency: float
    ci_hi: float
    bound: float
    allowance: float


def _martingale_rows(runs: list[BrwRun], generations: int, alpha: float,
                     alpha_cap: float) -> list[MartingaleRow]:
    """Martingale table rows from the unshifted runs, one per run index."""
    rows = []
    for n in range(generations + 1):
        mean, se = mean_and_se([run.s_values[n] for run in runs])
        rows.append(MartingaleRow(
            n, mean, se, alpha ** n, alpha ** n - alpha_cap ** n,
            sum(run.discarded_cum[n] for run in runs) / len(runs)))
    return rows


def martingale_table(law: OffspringLaw, generations: int, runs: int,
                     master_seed: int) -> list[MartingaleRow]:
    """Empirical generation means of S_n against alpha^n, one unshifted
    run per run index.

    cap_bias is the exact gap alpha^n - alpha_truncated^n between the ideal
    and simulated means; mean_discarded tracks floor pruning.
    """
    runs_list = [evolve(law, generations, master_seed, run_index=r)
                 for r in range(runs)]
    return _martingale_rows(runs_list, generations, law.alpha(),
                            law.alpha_truncated())


def survival_curve(law: OffspringLaw, generations: int, runs: int,
                   master_seed: int, z: float = Z_99) -> list[SurvivalRow]:
    """Per-generation frequency of a shifted-run particle above location 0,
    against the Markov bound alpha^n * E e^(mu*C).

    Each run draws its own shift C (geometric) and counts the run started
    at C.  With a zero weight floor nothing is pruned, and that run is the
    unshifted run moved up by C, exactly (see evolve), so its maxima are
    read off the unshifted run; a positive floor prunes by location, so
    there the shifted run is evolved itself.  Pruning only removes
    particles, so the measured frequency is a lower bound of the unpruned
    one; the reported allowance adds the discarded mass and the cap bias
    back for reference.
    """
    return brw_tables(law, generations, runs, master_seed, z)[1]


def brw_tables(law: OffspringLaw, generations: int, runs: int,
               master_seed: int, z: float = Z_99
               ) -> tuple[list[MartingaleRow], list[SurvivalRow]]:
    """martingale_table and survival_curve, row for row, from one pass.

    Each run index is evolved once unshifted and feeds both tables; only a
    positive weight floor adds the shifted evolve the survival table needs.
    alpha and the truncated alpha are computed once for both tables.
    """
    alpha, alpha_cap = law.alpha(), law.alpha_truncated()
    mgf = geometric_mgf(law.p, law.mu)
    plain_runs = []
    hits = [0] * (generations + 1)
    disc_mean = [0.0] * (generations + 1)
    for r in range(runs):
        c = sample_shift(law, master_seed, r)
        plain = evolve(law, generations, master_seed, run_index=r)
        plain_runs.append(plain)
        if law.weight_floor > 0.0:
            run, lift = evolve(law, generations, master_seed, run_index=r,
                               shift=c), 0
        else:
            run, lift = plain, c
        for n in range(generations + 1):
            ml = run.max_locations[n]
            if ml is not None and ml + lift > 0:
                hits[n] += 1
            disc_mean[n] += run.discarded_cum[n] / runs
    mart = _martingale_rows(plain_runs, generations, alpha, alpha_cap)
    surv = []
    for n in range(generations + 1):
        freq = hits[n] / runs
        ci_hi = wilson_interval(hits[n], runs, z)[1]
        bound = alpha ** n * mgf
        allowance = disc_mean[n] + (alpha ** n - alpha_cap ** n) * mgf
        surv.append(SurvivalRow(n, hits[n], runs, freq, ci_hi, bound,
                                allowance))
    return mart, surv
