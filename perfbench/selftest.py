"""Quick self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints as its last line a result
    with exactly the metrics BENCHMARK.json names, each with its unit, and
    no failed block;
  * the first blocks at the default seed match the golden digests;
  * tracing discovers every layer, rebinds names imported elsewhere, restores
    them, and leaves output bodies byte-identical;
  * without the lipsurf sources the benchmark exits non-zero and prints no
    result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, import_lipsurf
from tracer import LAYERS, Tracer
import workloads as wl


def fail(msg: str):
    print(f"FAIL {msg}")
    sys.exit(1)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(wl.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_results(spec: dict) -> None:
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, w["name"], trace)
            if proc.returncode != 0:
                fail(f"{w['name']} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{w['name']} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{w['name']} trace={trace}: {res['failed']}/{res['attempted']} "
                     f"blocks failed:\n{proc.stderr}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                fail(f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                fail(f"{w['name']} trace={trace}: non-numeric metric value")
            print(f"ok   {w['name']} trace={trace}: {len(got)} metrics with units")


def check_golden_and_tracing() -> None:
    run_experiment = import_lipsurf().run_experiment
    golden = wl.load_golden()
    harness = importlib.import_module("lipsurf.harness")
    original = harness.floor_reach_sandwich
    for name, w in wl.WORKLOADS.items():
        entry = golden["workloads"][name]
        seeds = wl.block_seeds(w, golden["seed"])
        want = [entry["warmup"]] + entry["blocks"][:2]
        for i, block_seed in enumerate([next(seeds) for _ in want]):
            bodies = wl.run_block(run_experiment, w, block_seed)
            wl.check_block(w, bodies, entry["fixed"])
            if wl.digest(bodies) != want[i]:
                fail(f"{name} block {i - 1} differs from its golden digest")
            tracer = Tracer()
            tracer.install()
            try:
                if harness.floor_reach_sandwich is original:
                    fail("harness.floor_reach_sandwich was not rebound")
                traced = wl.run_block(run_experiment, w, block_seed)
            finally:
                tracer.uninstall()
            if harness.floor_reach_sandwich is not original:
                fail("uninstall left harness.floor_reach_sandwich wrapped")
            if traced != bodies:
                fail(f"{name}: tracing changed an output body")
        print(f"ok   {name}: golden digests match, traced bodies identical")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    layers = {k.split(".", 1)[0] for k in tracer.stats}
    if not set(LAYERS) <= layers:
        fail(f"tracing found no functions in {sorted(set(LAYERS) - layers)}")
    print(f"ok   tracing covers layers {', '.join(LAYERS)}")


def check_bare_checkout() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "ftail_d2", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark without lipsurf sources did not fail cleanly")
    print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_golden_and_tracing()
    check_bare_checkout()
    check_results(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
