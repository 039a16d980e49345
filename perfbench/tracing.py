"""Span tracing of netlab's layers from outside the package.

``Tracer.install`` wraps every public function and method of the layer
modules (names without a leading underscore, plus ``__call__`` of the map
classes) and rebinds every reference to them inside ``netlab``, so calls
between modules are traced too.  Each call records a span
``[id, parent, layer, name, start, end]`` in memory; ``dump`` writes them
out when the pass ends.  Counters are taken at the same boundaries from the
arguments and returned reports (``nodes``, ``method``, ``clamped``,
``failures``, ``coarsened``, ``cells_checked``, ...).

Self time of a span is its duration minus the time its child spans cover.
A layer's ``busy_s`` is the self time of its spans.  A layer's named
sub-times partition that self time: each span's self time goes to the
nearest span, itself or an ancestor, whose name is listed for that layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("moduli", "params", "density", "netgen", "distortion", "geomlab", "cli")

# Sub-times per layer: metric suffix -> span names whose self time (and that
# of untagged descendants in the same layer) it collects.
CATEGORIES = {
    "params": {
        "certify_s": {"certify_r", "compute_r", "num_iter_margin"},
        "kappa_s": {"kappa"},
        "scan_s": {"param_sequence"},
    },
    "density": {
        "integral_s": {"ChessboardDensity.integral", "ChessboardDensity.psi_integral",
                       "ConstantDensity.integral", "ramp_region_integral"},
    },
    "netgen": {
        "construct_s": {"construct_net_cube", "construct_net_window"},
        "audit_s": {"audit_net", "discrepancy_report", "rescale_audit"},
        "io_s": {"PointCloud.to_csv", "PointCloud.from_csv",
                 "PointCloud.to_netf", "PointCloud.from_netf"},
    },
    "distortion": {
        "exact_s": {"min_bilip_exact", "min_lip_exact"},
        "heuristic_s": {"min_bilip_heuristic"},
        "grid_s": {"feige_ls", "feige_cn_window"},
    },
    "geomlab": {
        # the raster paths that build Python sets of cells
        "raster_s": {"image_volume:grid", "symdiff_bound_check"},
        "mc_s": {"image_volume:monte_carlo"},
    },
}

# Entry points of one exact density integral; nested calls count once.
_INTEGRAL_ENTRIES = {"ChessboardDensity.integral", "ChessboardDensity.psi_integral",
                     "ConstantDensity.integral"}

COUNTERS = ("params.levels_scanned", "params.clamped",
            "density.cubes", "density.pairs_checked",
            "netgen.points", "netgen.cells", "netgen.empty_cells",
            "netgen.audit_samples", "netgen.io_bytes",
            "distortion.bb_nodes", "distortion.downgrades",
            "distortion.exact_attempted", "distortion.exact_completed",
            "geomlab.raster_cells", "geomlab.mc_samples", "geomlab.mc_failures",
            "geomlab.coarsened", "cli.bytes_out")


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    if len(args) > pos:
        return args[pos]
    return default


def _cli_bytes_out(argv):
    if "--out" not in argv:
        return 0
    prefix = argv[argv.index("--out") + 1]
    total = 0
    for ext in (".json", ".csv", ".svg", ".netf"):
        if os.path.exists(prefix + ext):
            total += os.path.getsize(prefix + ext)
    return total


def _exact_counts(rep):
    done = rep.method == "exact"
    return {"distortion.exact_attempted": 1, "distortion.exact_completed": int(done),
            "distortion.downgrades": int(not done), "distortion.bb_nodes": rep.nodes}


def _image_volume_counts(args, kwargs, est):
    if est.mode != "monte_carlo":
        return {}
    return {"geomlab.mc_samples": _arg(args, kwargs, 3, "budget", 200_000),
            "geomlab.mc_failures": est.failures}


# span name -> counts(args, kwargs, result), added up after the span closes
HOOKS = {
    "param_sequence": lambda a, k, r: {
        "params.levels_scanned": len(r.levels), "params.clamped": int(r.clamped)},
    "build_nested_families": lambda a, k, r: {
        "density.cubes": sum(len(f.cubes) for f in r)},
    "ChessboardDensity.check_property2": lambda a, k, r: {
        "density.pairs_checked": len(r)},
    "construct_net_cube": lambda a, k, r: {
        "netgen.points": len(r.cloud), "netgen.cells": len(r.cells),
        "netgen.empty_cells": len(r.empty_cells)},
    "audit_net": lambda a, k, r: {
        "netgen.audit_samples": _arg(a, k, 2, "grid_resolution", 256) ** a[0].d},
    "PointCloud.to_csv": lambda a, k, r: {"netgen.io_bytes": len(r)},
    "PointCloud.to_netf": lambda a, k, r: {"netgen.io_bytes": len(r)},
    "PointCloud.from_csv": lambda a, k, r: {"netgen.io_bytes": len(a[0])},
    "PointCloud.from_netf": lambda a, k, r: {"netgen.io_bytes": len(a[0])},
    "min_bilip_exact": lambda a, k, r: _exact_counts(r),
    "min_lip_exact": lambda a, k, r: {
        "distortion.exact_attempted": 1, "distortion.exact_completed": int(r[2])},
    "image_volume": _image_volume_counts,
    "symdiff_bound_check": lambda a, k, r: {"geomlab.raster_cells": r.cells_checked},
    "check_statement2": lambda a, k, r: {"geomlab.coarsened": int(r.coarsened)},
    "main": lambda a, k, r: {
        "cli.bytes_out": _cli_bytes_out(list(_arg(a, k, 0, "argv", [])))},
}


def _span_name(name, args, kwargs):
    """image_volume is one entry point for the set raster and Monte Carlo;
    its span carries the mode so the two can be told apart."""
    if name == "image_volume":
        return f"image_volume:{_arg(args, kwargs, 2, 'mode', 'auto')}"
    return name


class Tracer:
    def __init__(self):
        self.spans = []      # [id, parent, layer, name, start, end]
        self.counters = defaultdict(int)
        self._stack = []
        self._undo = []      # (owner, attribute, original) to restore

    # -- recording -----------------------------------------------------------

    def open(self, layer, name):
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else None,
                           layer, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer, name):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(layer, _span_name(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        return traced

    # -- installing the wrappers ------------------------------------------------

    def install(self):
        modules = {layer: sys.modules[f"netlab.{layer}"] for layer in LAYERS}
        replaced = {}  # id(original) -> traced
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, attr)
        # rebind every module-level reference, including names imported
        # into other netlab modules, so cross-module calls are traced too
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "netlab" or mod_name.startswith("netlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, name))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, name))
            elif callable(raw) and not isinstance(raw, type):
                new = self._wrap(raw, layer, name)
            else:
                continue  # properties and plain attributes
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- derived metrics --------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus its children's durations."""
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                out[s[1]] -= s[5] - s[4]
        return out

    def metrics(self) -> dict:
        spans = self.spans
        selfs = self.self_times()
        busy = defaultdict(float)
        calls = defaultdict(int)
        sub = defaultdict(float)
        integrals = 0
        for s, self_t in zip(spans, selfs):
            layer, name = s[2], s[3]
            busy[layer] += self_t
            calls[layer] += 1
            cats = CATEGORIES.get(layer)
            if cats:
                cat = self._category(s, cats)
                if cat is not None:
                    sub[f"{layer}.{cat}"] += self_t
            if name in _INTEGRAL_ENTRIES and (
                    s[1] is None or spans[s[1]][3] not in _INTEGRAL_ENTRIES):
                integrals += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer]
        for layer, cats in CATEGORIES.items():
            for cat in cats:
                out[f"{layer}.{cat}"] = sub[f"{layer}.{cat}"]
        for layer in ("params", "moduli", "cli"):
            out[f"{layer}.calls"] = calls[layer]
        out["density.integrals"] = integrals
        c = self.counters
        for key in COUNTERS:
            out[key] = c[key]
        attempted = out.pop("distortion.exact_attempted")
        completed = out.pop("distortion.exact_completed")
        # nothing attempted means nothing was lost to the node budget
        out["distortion.exact_ratio"] = completed / attempted if attempted else 1.0
        return out

    def _category(self, span, cats):
        spans = self.spans
        s = span
        while s is not None:
            for cat, names in cats.items():
                if s[3] in names:
                    return cat
            s = spans[s[1]] if s[1] is not None else None
        return None

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "parent": s[1], "layer": s[2],
                                     "name": s[3], "start": s[4], "end": s[5]}) + "\n")
