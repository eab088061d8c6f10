"""Workload table, block seeds and output-body checks for the lipsurf benchmark.

Each workload is an acceptance criterion's configuration cut into blocks.
A block is what one closed-loop step runs: one `run_experiment` call per
config in the workload (covers_d2 runs radh_tail then rho_tail on the same
seed), every call with the block's own seed.  Block sizes keep a block near
20 ms on a 2-core x86 host, so a 35 s run of eight timed passes holds well
over 100 distinct blocks.

Checks need no golden file and hold for any seed; golden digests pin the
exact bodies at the default seed on top of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

TAIL_HEADER = "k,trials,hits_lo,hits_hi,p_lo,p_hi,ci_lo,ci_hi,bound,unresolved_frac"
BRW_HEADER = "n,mean_S,se_S,alpha_pow_n,survival_hat,survival_ci_hi,bound"

# Wilson limits are float arithmetic: at a share of exactly 0 or 1 the
# computed limit can land one ulp inside the point estimate
WILSON_SLACK = 1e-12

_COVER = {"d": 2, "p": 0.99, "k_max": 5, "box_margin": 4, "box_height": 4,
          "growth_cap": 5}


class CheckError(ValueError):
    """An output body broke an invariant or its golden digest."""


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[dict, ...]
    size_field: str          # "replicates", or "runs" for the BRW
    size: int                # replicates (or BRW runs) per block
    unresolved_limit: float  # run-level cap on the aggregate unresolved share
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("ftail_d2",
             ({"kind": "f_tail", "d": 2, "p": 0.99, "k_max": 4},),
             "replicates", 50, 1e-3,
             "acceptance 2 surface-height tail; floor_reach_sandwich and array "
             "hashing dominate, so a faster or batched reach kernel shows here"),
    Workload("covers_d2",
             ({"kind": "radh_tail", **_COVER}, {"kind": "rho_tail", **_COVER}),
             "replicates", 150, 1e-3,
             "acceptance 3 spread then cover tails on the same seeds; thousands "
             "of tiny boxes, so per-call hashing and reach overhead dominate"),
    Workload("brw_d2",
             ({"kind": "brw", "d": 2, "p": 0.99, "mu": math.log(2),
               "generations": 10},),
             "runs", 80, 0.0,
             "acceptance 6 branching random walk; touches no field, reach or "
             "surface code, so lattice/reach/surface changes must leave it flat"),
)}
# Acceptance 1 (surface_validity, d=3) is not a workload: a block cannot be
# smaller than its one ~20k-site replicate (45-85 ms), which leaves too few
# timed passes per run for steady figures on a shared host.


def block_configs(w: Workload, seed: int) -> list[dict]:
    """The run_experiment configs of one block."""
    return [dict(c, seed=seed, **{w.size_field: w.size},
                 # the acceptance criteria bound the unresolved share over the
                 # whole run; a single block is too small to apply it to
                 unresolved_threshold=1.0)
            for c in w.configs]


def block_seeds(w: Workload, seed: int):
    """Warm-up seed, then an endless stream of block seeds, all from the
    workload seed alone."""
    rng = random.Random(f"lipsurf-perfbench/{w.name}/{seed}")
    while True:
        yield rng.getrandbits(31)


def run_block(run_experiment, w: Workload, seed: int) -> list[str]:
    """Run one block; returns the CSV body of each call."""
    return [run_experiment(cfg)["csv"] for cfg in block_configs(w, seed)]


def digest(bodies: list[str]) -> str:
    h = hashlib.sha256()
    for b in bodies:
        h.update(b.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- checks

def _csv(body: str, header: str) -> list[list[str]]:
    lines = body.split("\n")
    if lines[0] != header or lines[-1] != "" or len(lines) < 3:
        raise CheckError(f"bad CSV framing: header {lines[0]!r}")
    return [ln.split(",") for ln in lines[1:-1]]


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _tail_rows(body: str, trials: int, levels: int) -> list[list[str]]:
    rows = _csv(body, TAIL_HEADER)
    _need(len(rows) == levels, f"expected {levels} tail rows, got {len(rows)}")
    prev_lo = prev_hi = trials
    for k, row in enumerate(rows):
        _need(len(row) == 10, f"row {k} has {len(row)} fields")
        _need(int(row[0]) == k and int(row[1]) == trials, f"row {k} k/trials")
        lo, hi = int(row[2]), int(row[3])
        _need(0 <= lo <= hi <= trials, f"row {k}: hits_lo <= hits_hi fails")
        _need(lo <= prev_lo and hi <= prev_hi, f"row {k}: hits increase in k")
        prev_lo, prev_hi = lo, hi
        p_lo, p_hi, ci_lo, ci_hi = map(float, row[4:8])
        _need(p_lo == lo / trials and p_hi == hi / trials, f"row {k}: p columns")
        _need(0.0 <= ci_lo <= p_lo + WILSON_SLACK and p_hi <= ci_hi + WILSON_SLACK
              and ci_hi <= 1.0, f"row {k}: Wilson CI")
        _need(float(row[9]) == (hi - lo) / trials, f"row {k}: unresolved_frac")
    _need(int(rows[0][2]) == trials, "level 0 must be hit by every replicate")
    return rows


def _bound_column(rows) -> list[str]:
    return [r[8] for r in rows]


def check_block(w: Workload, bodies: list[str], fixed: dict | None) -> dict:
    """Check one block's bodies; returns the exact tallies the run
    aggregates (unresolved counts and trials).  `fixed` holds the
    seed-independent columns recorded from the golden run, or None while
    recording."""
    n = w.size
    if w.name == "ftail_d2":
        rows = _tail_rows(bodies[0], n, w.configs[0]["k_max"] + 1)
        cols = {"bound": _bound_column(rows)}
        unresolved = [int(r[3]) - int(r[2]) for r in rows]
    elif w.name == "covers_d2":
        kmax = w.configs[0]["k_max"]
        radh = _tail_rows(bodies[0], n, kmax + 1)
        rho = _tail_rows(bodies[1], n, kmax + 2)
        for k in range(1, kmax + 2):
            # the cover radius is the spread radius plus one, replicate by
            # replicate, and the bound column is shifted to match
            _need(rho[k][1:] == radh[k - 1][1:], f"rho row {k} != radh row {k - 1}")
        cols = {"bound": _bound_column(radh)}
        unresolved = [int(r[3]) - int(r[2]) for r in radh + rho]
    elif w.name == "brw_d2":
        rows = _csv(bodies[0], BRW_HEADER)
        gens = w.configs[0]["generations"]
        _need(len(rows) == gens + 1, f"expected {gens + 1} BRW rows")
        for k, row in enumerate(rows):
            _need(len(row) == 7 and int(row[0]) == k, f"BRW row {k} framing")
            mean_s, se_s, _, surv, surv_hi, _ = map(float, row[1:])
            _need(all(math.isfinite(v) for v in (mean_s, se_s, surv, surv_hi)),
                  f"BRW row {k}: non-finite value")
            _need(mean_s >= 0.0 and se_s >= 0.0, f"BRW row {k}: negative mean/SE")
            _need(0.0 <= surv <= surv_hi + WILSON_SLACK and surv_hi <= 1.0,
                  f"BRW row {k}: survival CI")
        _need(float(rows[0][1]) == 1.0 and float(rows[0][2]) == 0.0,
              "S_0 must be exactly 1 with zero SE")
        _need(float(rows[0][4]) == 1.0, "every shifted run starts above 0")
        cols = {"alpha_pow_n": [r[3] for r in rows], "bound": [r[6] for r in rows]}
        unresolved = [0]
    else:  # pragma: no cover - names come from WORKLOADS
        raise KeyError(w.name)
    if fixed is not None:
        for name, want in fixed.items():
            _need(cols.get(name) == want, f"seed-independent column {name} drifted")
    return {"cols": cols, "unresolved": unresolved, "trials": n}
