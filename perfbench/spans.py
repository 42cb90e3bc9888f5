"""Span recorder for the traced run.

The traced run wraps the public functions of the biliseg modules from here,
outside the package: every binding of a wrapped function in a loaded
``biliseg`` module is swapped for a wrapper that records a span (name,
start, end, parent) and the counts of its layer. Spans stay in memory and
are written out once, when the run ends. A function that a later version of
the package removes or renames is reported as absent; the time it used to
take then shows as the self time of its caller's layer.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _size(path):
    return os.path.getsize(os.fspath(path))


def _grid(obj):
    return obj.data.size


# (module, public function, layer, counter). A counter maps the call's
# positional arguments and its result to (count name, amount) pairs.
LAYERS = (
    ("nifti", "read_nifti", "nifti.read", lambda a, r: [("nifti.bytes_read", _size(a[0]))]),
    ("nifti", "write_nifti", "nifti.write", lambda a, r: [("nifti.bytes_written", _size(a[1]))]),
    ("preprocess", "percentile_stretch", "preprocess.stretch", None),
    ("preprocess", "dynamic_crop", "preprocess.crop",
     lambda a, r: [("preprocess.crop_voxels", math.prod(r[1].shape())),
                   ("preprocess.crop_input_voxels", _grid(a[0]))]),
    ("segmentation", "dual_threshold", "segmentation.threshold", None),
    ("segmentation", "flood_fill", "segmentation.flood_fill", None),
    ("segmentation", "region_grow", "segmentation.region_grow",
     lambda a, r: [("segmentation.reached_voxels", r.count()),
                   ("segmentation.grown_grid_voxels", _grid(r))]),
    ("segmentation", "sauvola_threshold_field", "segmentation.sauvola_field", None),
    ("segmentation", "grow_from_seed", "segmentation.grow_engine", None),
    ("segmentation", "postprocess", "segmentation.postprocess", None),
    ("core", "connected_components", "core.components",
     lambda a, r: [("core.components_calls", 1), ("core.components_voxels", _grid(a[0]))]),
    ("metrics", "hausdorff", "metrics.hausdorff", None),
    ("metrics", "distance_transform", "metrics.edt",
     lambda a, r: [("metrics.edt_calls", 1), ("metrics.edt_voxels", _grid(a[0]))]),
    ("metrics", "topology_report", "metrics.topology", None),
    ("metrics", "dice", "metrics.dice", None),
    ("mesh", "extract_surface_mesh", "mesh.extract", lambda a, r: [("mesh.triangles", len(r))]),
    ("mesh", "write_stl", "mesh.write_stl", None),
    ("phantom", "rasterize_tree", "phantom.rasterize", None),
    ("phantom", "render_intensities", "phantom.render", None),
)

# per-layer metric -> (unit, how it is derived). Times and counts are per
# case of the timed section, except phantom.*, which runs in set-up only and
# is per set-up.
METRICS = {
    "nifti.read_s": ("s", "busy", "nifti.read"),
    "nifti.write_s": ("s", "busy", "nifti.write"),
    "nifti.bytes_read": ("B", "count", "nifti.bytes_read"),
    "nifti.bytes_written": ("B", "count", "nifti.bytes_written"),
    "preprocess.stretch_s": ("s", "busy", "preprocess.stretch"),
    "preprocess.crop_s": ("s", "busy", "preprocess.crop"),
    "preprocess.crop_fraction": ("fraction", "ratio", ("preprocess.crop_voxels", "preprocess.crop_input_voxels")),
    "segmentation.region_grow_s": ("s", "self", "segmentation.region_grow"),
    "segmentation.grow_engine_s": ("s", "busy", "segmentation.grow_engine"),
    "segmentation.sauvola_field_s": ("s", "busy", "segmentation.sauvola_field"),
    "segmentation.reached_fraction": ("fraction", "ratio",
                                      ("segmentation.reached_voxels", "segmentation.grown_grid_voxels")),
    "segmentation.threshold_s": ("s", "busy", "segmentation.threshold"),
    "segmentation.flood_fill_s": ("s", "busy", "segmentation.flood_fill"),
    "segmentation.postprocess_s": ("s", "busy", "segmentation.postprocess"),
    "core.components_s": ("s", "busy", "core.components"),
    "core.components_calls": ("count", "count", "core.components_calls"),
    "core.components_voxels": ("count", "count", "core.components_voxels"),
    "metrics.hausdorff_s": ("s", "busy", "metrics.hausdorff"),
    "metrics.edt_s": ("s", "busy", "metrics.edt"),
    "metrics.edt_calls": ("count", "count", "metrics.edt_calls"),
    "metrics.edt_voxels": ("count", "count", "metrics.edt_voxels"),
    "metrics.topology_s": ("s", "busy", "metrics.topology"),
    "metrics.dice_s": ("s", "busy", "metrics.dice"),
    "mesh.extract_s": ("s", "busy", "mesh.extract"),
    "mesh.write_stl_s": ("s", "busy", "mesh.write_stl"),
    "mesh.triangles": ("count", "count", "mesh.triangles"),
    "report.compare_s": ("s", "busy", "report.compare"),
    "phantom.rasterize_s": ("s", "setup", "phantom.rasterize"),
    "phantom.render_s": ("s", "setup", "phantom.render"),
}


class Tracer:
    """In-memory spans and counts, split into the set-up and timed phases."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1, phase]
        self.counts = defaultdict(float)   # (phase, count name) -> total
        self.phase = "setup"
        self.absent = []
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                           self.phase])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, amount):
        self.counts[(self.phase, name)] += amount

    def wrap(self, fn, layer, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                for name, amount in counter(signature.bind(*args, **kwargs).args, result):
                    self.count(name, amount)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of each wrapped function in the loaded biliseg
        modules, and restore them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "biliseg" or n.startswith("biliseg.")]
        swapped = []
        for module_name, attr, layer, counter in LAYERS:
            original = getattr(sys.modules.get(f"biliseg.{module_name}"), attr, None)
            if original is None:
                self.absent.append(f"biliseg.{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, layer, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        swapped.append((module, name, original))
        try:
            yield self
        finally:
            for module, name, original in reversed(swapped):
                setattr(module, name, original)

    def absent_metrics(self):
        layers = {layer for m, a, layer, _ in LAYERS if f"biliseg.{m}.{a}" in self.absent}
        return sorted(name for name, (_, _, src) in METRICS.items() if src in layers)

    def layer_times(self, phase):
        """layer -> (busy seconds, self seconds) over the spans of one phase."""
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, parent, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            own[name] += end - start - children[index]
            # nested spans of one layer count once towards its busy time
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                busy[name] += end - start
        return busy, own

    def metrics(self, cases, setups):
        """Every per-layer metric, see METRICS."""
        busy, own = self.layer_times("timed")
        setup_busy, _ = self.layer_times("setup")
        out = {}
        for name, (unit, how, src) in METRICS.items():
            if how == "busy":
                value = busy[src] / cases
            elif how == "self":
                value = own[src] / cases
            elif how == "setup":
                value = setup_busy[src] / setups
            elif how == "count":
                value = self.counts[("timed", src)] / cases
            else:
                num, den = (self.counts[("timed", key)] for key in src)
                value = num / den if den else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path):
        """Write the spans as JSON lines, after a header line naming absent layers."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"absent": self.absent}) + "\n")
            for name, start, end, parent, phase in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase}) + "\n")
