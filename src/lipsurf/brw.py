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

brw_tables runs the walk: it evolves a table's runs together and reads
both the martingale and the survival table off them.
Randomness is keyed per particle by its ancestry, so pruning or ignoring
one particle never shifts the draws of any other; runs are deterministic
given (master_seed, run_index).  Every particle's draws are those of
np.random.default_rng(key), made by numpy's own Generator.  Only the
seeding is batched: the runs of a table advance in lockstep, and each
generation's keys, across all runs and however few, become PCG64 states
in one numpy pass (_pcg64_states, numpy's SeedSequence reimplemented; the
tests pin it against numpy key by key).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import exp

import numpy as np

from .bounds import _sphere_series, geometric_mgf, offspring_laplace
from .lattice import _absorb_vec, absorb, count_l1_sphere
from .stats import ltr_sum, mean_and_se, wilson_interval

_DOMAIN_TAG = 0x42525754  # keeps BRW streams disjoint from field streams
_SHIFT_TAG = 0x43
_LOCKSTEP_PARTICLES = 1 << 14  # runs holding more live particles advance in halves

# numpy's SeedSequence (O'Neill's seed_seq_fe: a pool of four uint32 words)
# and PCG64's seeding, as _pcg64_states reproduces them
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _chain(init: int, mult: int, count: int) -> list[int]:
    """init * mult^i mod 2^32 for i < count: the constants a SeedSequence
    hash steps through, the same for every key."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _M32)
    return out


def _column(values: list[int]) -> np.ndarray:
    return np.array(values, np.uint32)[:, None]


_HASH = _chain(0x43B0D7E5, 0x931E8875, 17)  # hashmix call i: xor [i], times [i+1]
_OUT = _chain(0x8B51F9DD, 0x58F38DED, 9)
_FILL_XOR, _FILL_MUL = _column(_HASH[0:4]), _column(_HASH[1:5])
# source word s is mixed into the other three, in ascending order
_ROUNDS = tuple(([t for t in range(4) if t != s],
                 _column(_HASH[4 + 3 * s:7 + 3 * s]),
                 _column(_HASH[5 + 3 * s:8 + 3 * s])) for s in range(4))
_OUT_XOR, _OUT_MUL = _column(_OUT[0:8]), _column(_OUT[1:9])
# 0-d arrays, which a ufunc takes without the per-call scalar conversion
_MIX_L, _MIX_R, _S16 = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


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
        series = ltr_sum(count_l1_sphere(self.d - 1, n) * exp(-self.mu * n)
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


def _hashmix(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix on uint32 rows, each row with its own constants
    x = x ^ xor
    x *= mul
    x ^= x >> _S16
    return x


def _pcg64_states(keys: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) in np.random.default_rng(key), for each uint64 key.

    One numpy pass runs numpy's SeedSequence on every key at once.  Its
    pool of four uint32 words starts as the hashed low word, high word and
    two zeros (a key below 2^32 has one word, and SeedSequence pads the
    pool with zeros, so its high word hashes the same); each word is mixed
    into the other three; the pool is hashed out into eight words, a
    128-bit seed and a 128-bit increment.  PCG64's two seeding steps then
    run in Python ints.
    """
    words = np.zeros((4, keys.size), np.uint32)
    words[:2] = keys.astype("<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(words, _FILL_XOR, _FILL_MUL)
    for src, (dst, xor, mul) in enumerate(_ROUNDS):
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], xor, mul) * _MIX_R
        mixed ^= mixed >> _S16
        pool[dst] = mixed
    out = _hashmix(np.concatenate([pool, pool]), _OUT_XOR, _OUT_MUL)
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in (
            np.ascontiguousarray(out.T, "<u4").view("<u8").tolist()):
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _M128
        seed = seed_hi << 64 | seed_lo
        states.append((((inc + seed) * _PCG_MULT + inc) & _M128, inc))
    return states


def _seeder(keys: np.ndarray, rng: np.random.Generator):
    """The function i -> a Generator in the state np.random.default_rng(
    keys[i]) starts in, to be drawn from before the next i is asked for.

    Every batch, of one key or many, is turned into PCG64 states in one
    _pcg64_states pass, and rng, a PCG64 Generator, is reseeded through its
    bit generator's state, one state dict rebound for every key.
    """
    states = _pcg64_states(keys)
    bits = rng.bit_generator
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    words = state["state"]

    def seeded(i: int) -> np.random.Generator:
        words["state"], words["inc"] = states[i]
        bits.state = state
        return rng
    return seeded


@dataclass(frozen=True)
class BrwRun:
    """One simulated lineage: exponential weights and extremes per generation.

    max_locations[n] is None once the population is extinct.  discarded_cum
    accumulates the exact weight removed by floor pruning through each
    generation; truncated flags a run stopped by the particle cap.
    """

    s_values: tuple[float, ...]
    max_locations: tuple[int | None, ...]
    population: tuple[int, ...]
    discarded_cum: tuple[float, ...]
    truncated: bool


def _seed_prefix(master_seed: int) -> int:
    return absorb(absorb(0, _DOMAIN_TAG), master_seed)


def run_key(master_seed: int, run_index: int) -> int:
    return absorb(_seed_prefix(master_seed), run_index)


def _run_keys(master_seed: int, run_indices) -> np.ndarray:
    """run_key of each run index, as uint64."""
    indices = np.array(run_indices, np.int64).astype(np.uint64)
    return _absorb_vec(np.uint64(_seed_prefix(master_seed)), indices)


class _Lineage:
    """One run's per-generation records while it evolves."""

    __slots__ = ("s_values", "max_locations", "population", "discarded_cum",
                 "discarded", "truncated")

    def __init__(self, mu: float, loc0: int):
        self.s_values = [exp(mu * loc0)]
        self.max_locations: list[int | None] = [loc0]
        self.population = [1]
        self.discarded_cum = [0.0]
        self.discarded = 0.0
        self.truncated = False

    def record(self, mu: float, locs: list[int]) -> None:
        self.s_values.append(ltr_sum(exp(mu * loc) for loc in locs))
        self.max_locations.append(max(locs) if locs else None)
        self.population.append(len(locs))
        self.discarded_cum.append(self.discarded)

    def run(self, generations: int) -> BrwRun:
        # an extinct run stops; each generation left reads what an empty one
        # gives: the int 0 that ltr_sum() returns, no maximum, no particles
        left = generations + 1 - len(self.s_values)
        return BrwRun(tuple(self.s_values + [0] * left),
                      tuple(self.max_locations + [None] * left),
                      tuple(self.population + [0] * left),
                      tuple(self.discarded_cum + [self.discarded] * left),
                      self.truncated)


def _evolve_runs(law: OffspringLaw, generations: int, master_seed: int,
                 run_indices, shifts=None,
                 particle_cap: int = 100_000) -> list[BrwRun]:
    """Simulate each run index for the given number of generations, started
    at location 0, or at its shift C if shifts is given, with all runs in
    lockstep.

    With shift C every location is offset by +C from the start (S_0 becomes
    e^(mu*C)); the keyed randomness makes the shifted run's locations equal
    the unshifted run's plus C, exactly.  The particle cap cuts by count in
    the same order, so truncation is the same too; only a positive
    weight_floor, which prunes by location, tells the two runs apart.

    Each generation seeds the live particles of every run in one _seeder
    batch, through one Generator per call.  Runs holding more than
    _LOCKSTEP_PARTICLES live particles advance in halves, so memory stays
    near that of one capped run.  Within a run, parents are sampled in turn:
    a parent's level counts are one binomial draw and its children's
    displacements one geometric draw of their total, which numpy makes as
    the same calls, in the same order, as one draw per child; only the
    levels with children are visited.  Each parent's pruned weight is summed
    on its own before it joins the run's tally; once the next generation
    exceeds particle_cap, its first particle_cap children are kept and the
    parents left are not sampled.
    """
    if generations < 1:
        raise ValueError("generations must be >= 1")
    taus, q, p = _level_counts(law.d, law.depth_cap), law.q, law.p
    depth_cap, mu, floor = law.depth_cap, law.mu, law.weight_floor
    starts = [0] * len(run_indices) if shifts is None else [int(c) for c in shifts]
    lineages = [_Lineage(mu, loc) for loc in starts]
    rng = np.random.default_rng(0)  # every _seeder pass replaces its state

    def advance(lineages, locs, keys, sizes, done):
        # lineages are the live runs, sizes their particle counts, and locs
        # and keys their particles, run after run; a kid is (location,
        # level, index within the level)
        while done < generations and lineages:
            if len(lineages) > 1 and len(locs) > _LOCKSTEP_PARTICLES:
                half = len(lineages) // 2
                cut = sum(sizes[:half])
                advance(lineages[:half], locs[:cut], keys[:cut], sizes[:half], done)
                advance(lineages[half:], locs[cut:], keys[cut:], sizes[half:], done)
                return
            seeded = _seeder(keys, rng)
            live, live_sizes, kids, parents = [], [], [], []
            first = 0
            for lineage, size in zip(lineages, sizes):
                mine, mine_parents = [], []
                for parent in range(first, first + size):
                    draw = seeded(parent)
                    counts = draw.binomial(taus, q, depth_cap)
                    levels = counts.nonzero()[0].tolist()
                    if not levels:
                        continue
                    counts = counts.tolist()
                    steps = iter(draw.geometric(p, sum(counts)).tolist())
                    location, dropped = locs[parent], 0.0
                    for i in levels:
                        n = i + 1
                        for j in range(counts[i]):
                            loc = location - n + next(steps)
                            if floor > 0.0:
                                w = exp(mu * loc)
                                if w < floor:
                                    dropped += w
                                    continue
                            mine.append((loc, n, j))
                            mine_parents.append(parent)
                    lineage.discarded += dropped
                    if len(mine) > particle_cap:
                        lineage.truncated = True
                        del mine[particle_cap:], mine_parents[particle_cap:]
                        break
                first += size
                lineage.record(mu, [loc for loc, _, _ in mine])
                if mine:
                    live.append(lineage)
                    live_sizes.append(len(mine))
                    kids += mine
                    parents += mine_parents
            lineages, sizes = live, live_sizes
            done += 1
            if done < generations:  # the last generation's keys go unread
                table = np.array(kids, np.int64).reshape(-1, 3)
                locs = table[:, 0].tolist()
                keys = _absorb_vec(
                    _absorb_vec(keys[parents], table[:, 1].astype(np.uint64)),
                    table[:, 2].astype(np.uint64))

    advance(lineages, starts, _run_keys(master_seed, run_indices),
            [1] * len(starts), 0)
    return [lineage.run(generations) for lineage in lineages]


def _sample_shifts(law: OffspringLaw, master_seed: int, run_indices) -> list[int]:
    """Each run index's shift C, the height of the lowest open site above a
    column: geometric with success p, keyed by the run, seeded in one batch."""
    keys = _absorb_vec(_run_keys(master_seed, run_indices), np.uint64(_SHIFT_TAG))
    seeded = _seeder(keys, np.random.default_rng(0))
    return [int(seeded(i).geometric(law.p)) for i in range(keys.size)]


@dataclass(frozen=True)
class MartingaleRow:
    """Generation n's empirical mean of S_n, and its standard error, against
    alpha^n.  cap_bias is the exact gap alpha^n - alpha_truncated^n between
    the ideal and simulated means; mean_discarded tracks floor pruning."""

    n: int
    mean_s: float
    se_s: float
    alpha_pow: float
    cap_bias: float
    mean_discarded: float


@dataclass(frozen=True)
class SurvivalRow:
    """Generation n's frequency of runs holding a particle above location 0
    when started at their shift C, against the Markov bound
    alpha^n * E e^(mu*C), with the Wilson upper limit ci_hi.

    Pruning only removes particles, so the measured frequency is a lower
    bound of the unpruned one; the allowance adds the mean discarded mass
    and the cap bias, times E e^(mu*C), back for reference.
    """

    n: int
    hits: int
    runs: int
    frequency: float
    ci_hi: float
    bound: float
    allowance: float


def brw_tables(law: OffspringLaw, generations: int, runs: int,
               master_seed: int) -> tuple[list[MartingaleRow], list[SurvivalRow]]:
    """The martingale and survival tables over run indices 0..runs-1, one
    row per generation 0..generations, from one pass.

    The martingale table reads each run unshifted; the survival table each
    run started at its own geometric shift C.  Each run index is evolved
    once unshifted and feeds both tables: with a zero weight floor nothing
    is pruned, and the shifted run is the unshifted one moved up by C,
    exactly (see _evolve_runs), so its maxima are those of the unshifted
    run plus C.  A positive floor prunes by location, so there the shifted
    runs are evolved themselves.  The runs, and the shifts, are seeded in
    batches across run indices; a shorter table is a prefix of a longer one.
    """
    alpha, alpha_cap = law.alpha(), law.alpha_truncated()
    mgf = geometric_mgf(law.p, law.mu)
    shifts = _sample_shifts(law, master_seed, range(runs))
    plain_runs = _evolve_runs(law, generations, master_seed, range(runs))
    if law.weight_floor > 0.0:
        lifted = zip(_evolve_runs(law, generations, master_seed, range(runs),
                                  shifts), [0] * runs)
    else:
        lifted = zip(plain_runs, shifts)
    hits = [0] * (generations + 1)
    disc_mean = [0.0] * (generations + 1)
    for run, lift in lifted:
        for n in range(generations + 1):
            ml = run.max_locations[n]
            if ml is not None and ml + lift > 0:
                hits[n] += 1
            disc_mean[n] += run.discarded_cum[n] / runs
    mart, surv = [], []
    for n in range(generations + 1):
        power, bias = alpha ** n, alpha ** n - alpha_cap ** n
        mean, se = mean_and_se([run.s_values[n] for run in plain_runs])
        mart.append(MartingaleRow(
            n, mean, se, power, bias,
            ltr_sum(run.discarded_cum[n] for run in plain_runs) / runs))
        surv.append(SurvivalRow(n, hits[n], runs, hits[n] / runs,
                                wilson_interval(hits[n], runs)[1], power * mgf,
                                disc_mean[n] + bias * mgf))
    return mart, surv
