"""Record golden output digests for the benchmark's default seed.

    python3 perfbench/record_golden.py

Runs the warm-up block and the first GOLDEN_BLOCKS blocks of every workload
at the default seed and writes perfbench/golden.json: the SHA-256 digest of
each block's bodies, plus the columns that do not depend on the seed (tail
and survival bounds, alpha^n), which every run checks at any seed.  Record
only from an engine whose outputs are trusted; a change that alters any
body byte is a change in results, not in speed.
"""

from __future__ import annotations

import json
import sys

from run import import_lipsurf
import workloads as wl

GOLDEN_BLOCKS = 48


def main() -> int:
    run_experiment = import_lipsurf().run_experiment
    out = {"seed": wl.DEFAULT_SEED, "workloads": {}}
    for name, w in wl.WORKLOADS.items():
        seeds = wl.block_seeds(w, wl.DEFAULT_SEED)
        entry = {"warmup": None, "blocks": [], "fixed": None}
        for i in range(GOLDEN_BLOCKS + 1):
            bodies = wl.run_block(run_experiment, w, next(seeds))
            cols = wl.check_block(w, bodies, entry["fixed"])["cols"]
            entry["fixed"] = entry["fixed"] or cols
            if i == 0:
                entry["warmup"] = wl.digest(bodies)
            else:
                entry["blocks"].append(wl.digest(bodies))
        out["workloads"][name] = entry
        print(f"{name}: {GOLDEN_BLOCKS} blocks recorded", file=sys.stderr)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
