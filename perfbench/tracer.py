"""Outside-in per-layer tracing of lipsurf, found by discovery.

`Tracer.install()` wraps every public function of each layer module, and
every public method of `PercolationField` plus its constructor, then
rebinds each wrapped name in every loaded `lipsurf` module that holds it
(harness and surface import `floor_reach_sandwich` and `reach` by name).
A public function a later change adds to a layer is traced with no edit
here.  `uninstall()` restores every binding, so traced and untraced blocks
can alternate in one process.

Each call is a span: its duration, minus the durations of the spans it
caused, is its self time, so the self times of all spans under the
outermost calls add up to the traced wall time.  Spans are kept in memory
and written out by `write()`.  The scalar hashing primitives run millions
of times, so they are tallied but not kept as span records.

Exact counts are read from arguments and return values: box sizes hashed,
sites reached, boxes per certification attempt group, BRW particles and
truncated runs.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from collections import Counter

# the modules of src/lipsurf; oracle is the slow ground truth and is never
# optimised, and cli only parses arguments
LAYERS = ("lattice", "reach", "surface", "harness", "brw", "bounds", "stats")

SCALAR_HASH = ("lattice.mix64", "lattice.absorb",
               "lattice.PercolationField.uniform64",
               "lattice.PercolationField.is_closed")
BOX_KERNELS = ("reach.floor_reach_sandwich", "reach.reach")
GROWTH_BINS = 6    # growth_cap 5 gives at most 6 boxes per group
SPAN_CAP = 100_000  # span records kept; tallies continue past the cap


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # key -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        # certification group -> [boxes, side contact, top contact] of the
        # group's boxes so far; the flags are those of its latest box
        self.groups: dict[tuple, list] = {}
        self.names: list[str] = []
        self.spans = array("q")  # id, parent, name index, start_ns, end_ns
        self.spans_dropped = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._ids = itertools.count(1).__next__
        self._patches: list[tuple] = []
        self._wrappers: tuple[dict, list] | None = None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0, 0])
        observe = _OBSERVERS.get(key)
        keep = key not in SCALAR_HASH
        name_idx = len(self.names)
        self.names.append(key)
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns
        spans, tracer = self.spans, self

        def traced(*args, **kwargs):
            frame = [ids(), 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                parent = stack[-1][0] if stack else 0
                if stack:
                    stack[-1][1] += dt
                if keep:
                    if len(spans) < 5 * SPAN_CAP:
                        spans.extend((frame[0], parent, name_idx, t0, t1))
                    else:
                        tracer.spans_dropped += 1
            if observe is not None:
                observe(tracer, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _discover(self) -> tuple[dict, list]:
        """Wrap every public function of each layer and every public method
        of PercolationField, once per tracer."""
        functions = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            # import_module, not `from lipsurf import reach`: the package
            # re-exports the function reach under the module's name
            mod = importlib.import_module(f"lipsurf.{layer}")
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                functions[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        methods = []  # (class, name, wrapper, own original or None if inherited)
        cls = importlib.import_module("lipsurf.lattice").PercolationField
        for name in ["__init__"] + [n for n in dir(cls) if not n.startswith("_")]:
            obj = inspect.getattr_static(cls, name)
            if inspect.isfunction(obj):
                methods.append((cls, name,
                                self._wrap(f"lattice.PercolationField.{name}", obj),
                                obj if name in vars(cls) else None))
        return functions, methods

    def install(self) -> None:
        """Bind the wrappers wherever lipsurf modules hold the originals."""
        if self._wrappers is None:
            self._wrappers = self._discover()
        functions, methods = self._wrappers
        for cls, name, wrapper, original in methods:
            setattr(cls, name, wrapper)
            self._patches.append((cls, name, original))
        for modname, mod in list(sys.modules.items()):
            if modname != "lipsurf" and not modname.startswith("lipsurf."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = functions.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ counting

    def box(self, parent: int, field, side: bool, top: bool) -> None:
        """One certification box: grouped by the calling span and field, so
        a group is one replicate's (or one climb set's) growth sequence."""
        key = (parent, type(field).__name__, getattr(field, "p", None),
               getattr(field, "master_seed", None),
               getattr(field, "replicate", id(field)))
        g = self.groups.get(key)
        if g is None:
            self.groups[key] = [1, side, top]
        else:
            g[0] += 1
            g[1], g[2] = side, top

    # ------------------------------------------------------------ results

    def _self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0, 0))[2] for k in keys) / 1e9

    def _calls(self, key) -> int:
        return self.stats.get(key, (0, 0, 0))[0]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for k, s in self.stats.items()
                   if k.split(".", 1)[0] == layer) / 1e9

    def metrics(self, replicates: int) -> dict[str, float]:
        """Per-layer metrics; `replicates` is the replicate count (BRW runs
        excluded) of the traced blocks."""
        c = self.counts
        m: dict[str, float] = {}
        hashed = c["sites_hashed"]
        boxes = sum(self._calls(k) for k in BOX_KERNELS)
        mask = "lattice.PercolationField.closed_mask"
        m["lattice.closed_mask.calls"] = self._calls(mask)
        m["lattice.closed_mask.self_s"] = self._self_s(mask)
        m["lattice.sites_hashed"] = hashed
        m["lattice.ns_per_site"] = self._self_s(mask) * 1e9 / hashed if hashed else 0.0
        m["lattice.closed_sites.self_s"] = self._self_s("lattice.PercolationField.closed_sites")
        m["lattice.field_init.self_s"] = self._self_s("lattice.PercolationField.__init__")
        # one absorb folds one integer into the hash: the unit of scalar work
        m["lattice.scalar_hash.calls"] = self._calls("lattice.absorb")
        m["lattice.scalar_hash.self_s"] = self._self_s(*SCALAR_HASH)
        m["reach.floor_reach_sandwich.calls"] = self._calls("reach.floor_reach_sandwich")
        m["reach.floor_reach_sandwich.self_s"] = self._self_s("reach.floor_reach_sandwich")
        m["reach.reach.calls"] = self._calls("reach.reach")
        m["reach.reach.self_s"] = self._self_s("reach.reach")
        m["reach.us_per_box"] = self.layer_self_s("reach") * 1e6 / boxes if boxes else 0.0
        m["reach.sites_reached"] = c["sites_reached"]
        m["reach.reached_per_hashed"] = c["sites_reached"] / hashed if hashed else 0.0
        m["reach.boxes_per_replicate"] = boxes / replicates if replicates else 0.0
        hist = Counter(min(g[0], GROWTH_BINS) for g in self.groups.values())
        for n in range(1, GROWTH_BINS + 1):
            m[f"reach.growth_hist.{n}"] = hist[n]
        m["reach.unresolved_side"] = sum(1 for g in self.groups.values() if g[1])
        m["reach.unresolved_top"] = sum(1 for g in self.groups.values() if g[2])
        m["surface.minimal_cover.calls"] = self._calls("surface.minimal_cover")
        m["surface.covers_per_replicate"] = (
            self._calls("surface.minimal_cover") / replicates if replicates else 0.0)
        m["surface.climb_set.self_s"] = self._self_s("surface.climb_set")
        m["brw.evolve.self_s"] = self._self_s("brw.evolve")
        m["brw.sample_offspring.calls"] = self._calls("brw.sample_offspring")
        m["brw.sample_offspring.self_s"] = self._self_s("brw.sample_offspring")
        m["brw.particles"] = c["particles"]
        m["brw.us_per_particle"] = (self.layer_self_s("brw") * 1e6 / c["particles"]
                                    if c["particles"] else 0.0)
        m["brw.truncated_runs"] = c["truncated_runs"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self_s(layer)
        return m

    def total_self_s(self) -> float:
        return sum(s[2] for s in self.stats.values()) / 1e9

    def write(self, path) -> None:
        """Write the kept spans and the per-function tallies as JSON."""
        doc = {"fields": ["id", "parent", "name", "start_ns", "end_ns"],
               "names": self.names, "spans": self.spans.tolist(),
               "spans_dropped": self.spans_dropped,
               "functions": {k: {"calls": s[0], "total_ns": s[1], "self_ns": s[2]}
                             for k, s in sorted(self.stats.items()) if s[0]}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_closed_mask(tr, parent, args, kwargs, result):
    tr.counts["sites_hashed"] += _arg(args, kwargs, 1, "box").size


def _on_sandwich(tr, parent, args, kwargs, sw):
    tr.counts["sites_reached"] += len(sw.optimistic.reached) + len(sw.pessimistic.reached)
    # the pessimistic side seeds the sides and so touches side and top by
    # construction; the optimistic floor reach touching the top is the
    # contact box growth works against
    tr.box(parent, _arg(args, kwargs, 0, "field"), False, sw.optimistic.touched_top)


def _on_reach(tr, parent, args, kwargs, res):
    tr.counts["sites_reached"] += len(res.reached)
    tr.box(parent, _arg(args, kwargs, 0, "field"), res.touched_side, res.touched_top)


def _on_evolve(tr, parent, args, kwargs, run):
    tr.counts["particles"] += sum(run.population)
    tr.counts["truncated_runs"] += int(run.truncated)
    tr.counts["brw_runs"] += 1


_OBSERVERS = {
    "lattice.PercolationField.closed_mask": _on_closed_mask,
    "reach.floor_reach_sandwich": _on_sandwich,
    "reach.reach": _on_reach,
    "brw.evolve": _on_evolve,
}
