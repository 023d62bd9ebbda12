"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces the layer-boundary functions of ljlayer with
wrappers, in every ljlayer module that holds a reference to them, and
`uninstall` puts the originals back.  Each call becomes a span (name, parent,
start, end); a span's self time is its duration minus the time covered by
the spans it caused.  The package's own code is not changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute).  A dotted attribute names a method.  The
# span name's first part is the layer; ljlayer.metrics is only called from
# inside the other layers and gets no span.
SPANS = [
    ("neighbors.build_index", "ljlayer.neighbors", "build_index"),
    ("neighbors.k_nearest_all", "ljlayer.neighbors", "k_nearest_all"),
    ("neighbors.nearest_all", "ljlayer.neighbors", "nearest_all"),
    ("core.lj_step", "ljlayer.core", "lj_step"),
    ("geometry.project", "ljlayer.geometry", "MeshProjector.project"),
    ("geometry.projector_init", "ljlayer.geometry", "MeshProjector.__init__"),
    ("geometry.normalize_mesh", "ljlayer.geometry", "normalize_mesh"),
    ("geometry.noise_score", "ljlayer.geometry", "noise_score"),
    ("geometry.io.load_obj", "ljlayer.geometry", "load_obj"),
    ("geometry.io.save_obj", "ljlayer.geometry", "save_obj"),
    ("geometry.io.read_xyz", "ljlayer.geometry", "read_xyz"),
    ("geometry.io.write_xyz", "ljlayer.geometry", "write_xyz"),
    ("analysis.periodogram", "ljlayer.analysis", "periodogram"),
    ("analysis.radial_stats", "ljlayer.analysis", "radial_stats"),
    ("analysis.distance_score", "ljlayer.analysis", "distance_score"),
    ("analysis.write_profile_csv", "ljlayer.analysis", "write_profile_csv"),
    ("analysis.write_periodogram_pgm", "ljlayer.analysis", "write_periodogram_pgm"),
    ("pipelines.bluenoise_2d", "ljlayer.pipelines", "bluenoise_2d"),
    ("pipelines.redistribute_on_mesh", "ljlayer.pipelines", "redistribute_on_mesh"),
    ("pipelines.embed_refine", "ljlayer.pipelines", "embed_refine"),
    ("pipelines.run_embedded", "ljlayer.pipelines", "run_embedded"),
    ("pipelines.embed_compare", "ljlayer.pipelines", "embed_compare"),
    ("pipelines.run_sweep", "ljlayer.pipelines", "run_sweep"),
    ("pipelines.write_sweep_csv", "ljlayer.pipelines", "write_sweep_csv"),
    ("pipelines.refiner_step", "ljlayer.pipelines", "SurfaceRefiner.step"),
    ("cli.main", "ljlayer.cli", "main"),
]

LOOPS = ("pipelines.bluenoise_2d", "pipelines.redistribute_on_mesh", "pipelines.embed_refine")


def _counts(name, args, result, parent):
    """Work counters recorded with a span: {counter: amount}."""
    if name in ("neighbors.k_nearest_all", "neighbors.nearest_all"):
        return {"rows": len(result)}
    if name == "core.lj_step":
        return {"pairs": int(np.size(args[1]))}
    if name == "geometry.project":
        return {"points": len(result[0])}
    if name == "analysis.periodogram":
        return {"points": len(args[0])}
    if name == "analysis.distance_score":
        # a score computed inside a relaxation loop only feeds its trace
        return {"loop_calls": int(parent in LOOPS)}
    if name in LOOPS:
        return {"iterations": result[1].iterations}
    return {}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))   # span name -> totals
        self.spans = []                                         # (id, parent id, name, start, end)
        self._stack = []                                        # [span id, name, child seconds]
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[2] += end - start
            st = self.stats[name]
            st["calls"] += 1
            st["s"] += end - start - frame[2]
            for key, amount in _counts(name, args, result, parent and parent[1]).items():
                st[key] += amount
            self.spans.append((frame[0], parent and parent[0], name, start, end))
            return result
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "ljlayer" or key.startswith("ljlayer.")]
        for name, modname, attr in SPANS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def layer_metrics(self, walls) -> dict:
        """Per-round means of the per-layer metrics, given the traced rounds' walls.

        `<layer>.self_s` sums the self time of the layer's spans;
        `pipelines.self_s` leaves out the refiner step, which is reported as
        `pipelines.refiner_step.s`.  `trace.unspanned_s` is the part of the
        traced wall under no span.
        """
        rounds = len(walls)
        per = {name: {k: v / rounds for k, v in st.items()} for name, st in self.stats.items()}

        def get(name, key):
            return per.get(name, {}).get(key, 0.0)

        out = {}
        for layer in ("neighbors", "core", "geometry", "analysis", "pipelines", "cli"):
            out[f"{layer}.self_s"] = sum(st["s"] for name, st in per.items()
                                         if name.split(".")[0] == layer
                                         and name != "pipelines.refiner_step")
        for name, keys in (("neighbors.build_index", ("calls", "s")),
                           ("neighbors.k_nearest_all", ("calls", "s", "rows")),
                           ("neighbors.nearest_all", ("calls", "s", "rows")),
                           ("core.lj_step", ("calls", "s", "pairs")),
                           ("geometry.project", ("calls", "s", "points")),
                           ("analysis.periodogram", ("calls", "s", "points")),
                           ("analysis.radial_stats", ("calls", "s")),
                           ("analysis.distance_score", ("calls", "loop_calls")),
                           ("pipelines.refiner_step", ("calls", "s")),
                           ("cli.main", ("calls",))):
            for key in keys:
                out[f"{name}.{key}"] = get(name, key)
        out["analysis.distance_score.self_s"] = get("analysis.distance_score", "s")
        out["geometry.io.s"] = sum(st["s"] for name, st in per.items()
                                   if name.startswith("geometry.io."))
        out["pipelines.iterations"] = sum(get(name, "iterations") for name in LOOPS)
        out["trace.wall_s"] = sum(walls) / rounds
        out["trace.unspanned_s"] = out["trace.wall_s"] - sum(st["s"] for st in per.values())
        return out
