"""lipsurf benchmark: closed-loop blocks of acceptance-shaped experiments.

    python3 perfbench/run.py --workload ftail_d2 --seed 1 --seconds 35 --trace 0

Run from the repository root; lipsurf is imported from ./src.  One process,
one thread, one block at a time: each block is one `run_experiment` call per
config of the workload (see workloads.py), each block with its own seed
derived from --seed.  Every block's output bodies are checked, and at the
default seed also compared with golden SHA-256 digests; a block that raises
or fails a check counts in `failed`.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
processes that each import lipsurf and run one warm-up block), replicates
per second, block-time p50/p90 and peak RSS.  Block times are the best of
eight timed passes over the same blocks, taken on each CPU in turn, and
every pass must repeat the first pass's bodies exactly.  --trace 1 alternates each block untraced and
traced (tracer.py), checks both give byte-identical bodies, and prints the
per-layer metrics plus the tracing overhead.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the line before it holds diagnostics (environment,
host-speed probe, block count, failed and unresolved shares).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7
TIMED_PASSES = 8
MIN_BLOCKS = 120  # so the block-time p90 has ten blocks beyond it
SETUP_TIMEOUT_S = 150
PROBE_LOOPS = 20_000


def import_lipsurf():
    """Import lipsurf from this checkout's src/ and nowhere else."""
    if not (SRC / "lipsurf" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'lipsurf'} not found; run from a "
                         "lipsurf checkout")
    sys.path.insert(0, str(SRC))
    import lipsurf
    from lipsurf import harness
    if Path(lipsurf.__file__).resolve().parent != SRC / "lipsurf":
        raise SystemExit(f"error: imported lipsurf from {lipsurf.__file__}, "
                         f"not from {SRC}")
    return harness


def host_probe_ms() -> float:
    """A fixed pure-Python loop, timed: tracks host speed drift.  Reported
    as a diagnostic; no metric is divided by it."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return (time.perf_counter() - t0) * 1e3


def pin(cpus: list[int], turn: int) -> None:
    """Run on the turn-th of the given CPUs (no-op without affinity support).
    Virtual CPUs of a shared host slow down independently of each other."""
    if cpus:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


def available_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def setup_probe(name: str, seed: int) -> None:
    """Child-process body: time importing lipsurf plus one warm-up block."""
    t0 = time.perf_counter()
    harness = import_lipsurf()
    w = wl.WORKLOADS[name]
    wl.run_block(harness.run_experiment, w, next(wl.block_seeds(w, seed)))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str, seed: int, cpus: list[int]) -> list[float]:
    samples = []
    for turn in range(SETUP_SAMPLES):
        pin(cpus, turn)  # the child inherits the affinity
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Checker:
    """Checks bodies and accumulates the run's exact tallies."""

    def __init__(self, w: wl.Workload, seed: int):
        self.w = w
        golden = wl.load_golden()
        entry = golden["workloads"][w.name]
        self.fixed = entry["fixed"]
        self.digests = entry["blocks"] if seed == golden["seed"] else []
        self.warmup_digest = entry["warmup"] if seed == golden["seed"] else None
        self.unresolved: list[int] = []
        self.trials = 0

    def check(self, index: int | None, bodies: list[str]) -> None:
        """index None is the warm-up block; raises CheckError on failure."""
        wl.check_block(self.w, bodies, self.fixed)
        want = (self.warmup_digest if index is None
                else self.digests[index] if index < len(self.digests) else None)
        if want is not None and wl.digest(bodies) != want:
            raise wl.CheckError(f"block {index}: body differs from golden digest")

    def tally(self, bodies: list[str]) -> None:
        """Add a checked block to the run's unresolved counts."""
        tally = wl.check_block(self.w, bodies, self.fixed)
        if not self.unresolved:
            self.unresolved = [0] * len(tally["unresolved"])
        self.unresolved = [a + b for a, b in zip(self.unresolved, tally["unresolved"])]
        self.trials += tally["trials"]

    def unresolved_frac(self) -> float:
        return max(self.unresolved, default=0) / self.trials if self.trials else 0.0


def _value(v: float, unit: str) -> dict:
    return {"value": v, "unit": unit}


class Blocks:
    """The run's blocks: seeds, best time so far, bodies of the first pass."""

    def __init__(self, w: wl.Workload, seed: int, run_experiment):
        self.w = w
        self.run_experiment = run_experiment
        self.checker = Checker(w, seed)
        self.seeds = wl.block_seeds(w, seed)
        self.checker.check(None, self.run(next(self.seeds))[0])
        self.block_seeds: list[int] = []
        self.bodies: list[list[str] | None] = []
        self.bad: set[int] = set()
        self.best_s: list[float] = []
        self.probes: list[float] = []

    def run(self, block_seed: int) -> tuple[list[str], float]:
        t0 = time.perf_counter()
        bodies = wl.run_block(self.run_experiment, self.w, block_seed)
        return bodies, time.perf_counter() - t0

    def first(self) -> int:
        """Run, time and check a new block; returns its index."""
        index = len(self.block_seeds)
        self.block_seeds.append(next(self.seeds))
        self.bodies.append(None)
        self.best_s.append(float("inf"))
        self.probes.append(host_probe_ms())
        out = self.guard(index, lambda: self.run(self.block_seeds[index]))
        if out is not None:
            self.guard(index, lambda: self.checker.check(index, out[0]))
            if not self.failed(index):
                self.bodies[index], self.best_s[index] = out
        return index

    def again(self, index: int, run) -> float | None:
        """Re-run a good block through `run`; its bodies must repeat exactly."""
        out = self.guard(index, lambda: run(self.block_seeds[index]))
        if out is None:
            return None
        bodies, dt = out
        if bodies != self.bodies[index]:
            self.fail(index, "re-run gave a different body")
            return None
        return dt

    def guard(self, index: int, step):
        try:
            return step()
        except Exception:  # one bad block must not hide the others
            self.fail(index, traceback.format_exc())
            return None

    def fail(self, index: int, why: str) -> None:
        self.bad.add(index)
        sys.stderr.write(f"block {index} (seed {self.block_seeds[index]}) "
                         f"failed:\n{why}\n")

    def failed(self, index: int) -> bool:
        return index in self.bad

    def good(self) -> list[int]:
        return [i for i in range(len(self.bodies)) if not self.failed(i)]


def timed_passes(blocks: Blocks, seconds: float, cpus: list[int]) -> None:
    """TIMED_PASSES passes over the same blocks, keeping each block's best
    time.  On a shared host each virtual CPU's speed flips between states
    lasting about a second as neighbours load the machine; the best of
    passes spread across the run, and across the CPUs in turn, measures the
    code rather than the neighbours."""
    pin(cpus, 0)
    t0 = time.perf_counter()
    t_end, deadline = t0 + seconds / TIMED_PASSES, t0 + seconds
    while (not blocks.block_seeds or time.perf_counter() < t_end
           or len(blocks.block_seeds) < MIN_BLOCKS
           and time.perf_counter() < t0 + seconds / 2):
        blocks.first()
    for turn in range(1, TIMED_PASSES):
        pin(cpus, turn)
        for i in blocks.good():
            if time.perf_counter() > deadline:
                return
            dt = blocks.again(i, blocks.run)
            if dt is not None:
                blocks.best_s[i] = min(blocks.best_s[i], dt)


def traced_pairs(blocks: Blocks, tracer, seconds: float) -> tuple[float, float]:
    """Each block untraced, then traced; returns (untraced, traced) seconds."""

    def traced_run(block_seed):
        tracer.install()
        try:
            return blocks.run(block_seed)
        finally:
            tracer.uninstall()

    untraced_s = traced_s = 0.0
    t_end = time.perf_counter() + seconds
    while not blocks.block_seeds or time.perf_counter() < t_end:
        i = blocks.first()
        if blocks.failed(i):
            continue
        dt = blocks.again(i, traced_run)
        if dt is not None:
            untraced_s += blocks.best_s[i]
            traced_s += dt
    return untraced_s, traced_s


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = wl.WORKLOADS[name]
    run_experiment = import_lipsurf().run_experiment
    cpus = available_cpus()
    try:
        setup = [] if trace else measure_setup(name, seed, cpus)
        blocks = Blocks(w, seed, run_experiment)
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            untraced_s, traced_s = traced_pairs(blocks, tracer, seconds)
        else:
            timed_passes(blocks, seconds, cpus)
    finally:
        if cpus:
            os.sched_setaffinity(0, set(cpus))

    good = blocks.good()
    attempted = len(blocks.bodies)
    failed = attempted - len(good)
    for i in good:
        blocks.checker.tally(blocks.bodies[i])
    unresolved = blocks.checker.unresolved_frac()
    run_ok = unresolved <= w.unresolved_limit
    if not run_ok:
        sys.stderr.write(f"unresolved share {unresolved} above the acceptance "
                         f"limit {w.unresolved_limit}\n")
    probes = blocks.probes
    diag = {"workload": name, "seed": seed, "trace": int(trace),
            "blocks": len(good), "block_size": {w.size_field: w.size},
            "failed_frac": failed / attempted, "unresolved_frac": unresolved,
            "host_probe_ms": {"p50": statistics.median(probes),
                              "min": min(probes), "max": max(probes)},
            "env": environment()}
    if trace:
        replicates = len(good) * w.size if w.size_field == "replicates" else 0
        metrics = {k: _value(v, _unit(k)) for k, v in tracer.metrics(replicates).items()}
        if w.size_field == "runs":
            runs = tracer.counts["brw_runs"]
            unresolved = tracer.counts["truncated_runs"] / runs if runs else 0.0
            diag["unresolved_frac"] = unresolved
        metrics["unresolved_frac"] = _value(unresolved, "frac")
        metrics["trace.wall_s"] = _value(traced_s, "s")
        metrics["trace.overhead_frac"] = _value(
            traced_s / untraced_s - 1.0 if untraced_s else 0.0, "frac")
        metrics["trace.accounted_frac"] = _value(
            tracer.total_self_s() / traced_s if traced_s else 0.0, "frac")
        metrics["host.probe_ms"] = _value(statistics.median(probes), "ms")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}.json")
    else:
        best = sorted(blocks.best_s[i] for i in good)
        total = sum(best)
        p90 = statistics.quantiles(best, n=10)[8] if len(best) >= 2 else (best or [0.0])[-1]
        diag["setup_samples_s"] = setup
        diag["blocks_beyond_p90"] = sum(1 for t in best if t > p90)
        metrics = {
            "setup_s": _value(statistics.median(setup), "s"),
            "replicates_per_s": _value(len(best) * w.size / total if total else 0.0, "1/s"),
            "block_s.p50": _value(statistics.median(best) if best else 0.0, "s"),
            "block_s.p90": _value(p90, "s"),
            "peak_rss_mb": _value(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({"correct": failed == 0 and run_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_site"):
        return "ns"
    if name.endswith("us_per_box") or name.endswith("us_per_particle"):
        return "us"
    if name.endswith(("per_replicate", "per_hashed")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
