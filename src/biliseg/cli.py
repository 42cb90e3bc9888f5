"""Batch command-line pipeline.

Verbs: ``phantom``, ``preprocess``, ``segment``, ``evaluate``, ``compare``,
``mesh``. Every command is idempotent (identical inputs give byte-identical
outputs) and returns a stable exit code: 0 success, 2 config/usage error,
3 I/O error, 4 degenerate result. JSON config schemas are documented in the
package README.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import types
import typing
from enum import IntEnum

import numpy as np

from . import __version__
from .core import Connectivity, GrownMask, Mask, connected_components, embed_mask
from .errors import BilisegError, ConfigError, DegenerateInputError
from .mesh import stream_stl
from .metrics import evaluate
from .nifti import read_nifti, write_nifti
from .phantom import PhantomParams, generate_tree, rasterize_tree, render_intensities
from .preprocess import PreprocessParams, stretch_and_crop
from .report import COLUMNS, FORMATS, write_report
from .segmentation import (FloodFillConfig, KeepLargest, KeepSeeded, MinSize,
                           RegionGrowConfig, ThresholdConfig, check_override_slices,
                           dual_threshold, flood_fill, postprocess, region_grow)
from .stats import mean_std, one_way_anova
from ._util import atomic_write


# ---------------------------------------------------------------------------
# JSON codec
#
# One typing rule per field type, read from the config dataclasses' fields and
# type hints: a float is a finite JSON number, an int a JSON integer, a bool
# true/false, a Connectivity one of its integer values, a tuple a list of the
# exact length, a dict[int, X] an object whose keys parse as distinct
# integers, and a dataclass-typed field (Spacing) a list passed to the class
# positionally. Range checks and canonical forms (a Connectivity member,
# overrides in ascending slice order) stay in the classes' __post_init__
# methods, so every document the CLI writes is dataclasses.asdict of an
# instance: json.dumps writes an IntEnum as its integer and a tuple as a list.

def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:  # also bad UTF-8, over-long ints, deep nesting
            raise ConfigError(f"malformed JSON in {path}: {e}") from None


def _check_keys(d: dict, allowed, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _from_json(cls, value, where: str):
    """The ``cls`` instance a JSON object describes; errors name the field path."""
    fields = dataclasses.fields(cls)
    _check_keys(value, [f.name for f in fields], where)
    missing = [f"{where}.{f.name}" for f in fields if f.name not in value
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing required field(s) {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _decode(hints[name], v, f"{where}.{name}") for name, v in value.items()})


def _decode(hint, value, where: str):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    integer = isinstance(value, int) and not isinstance(value, bool)
    if origin is types.UnionType:  # X | None
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _decode(hint, value, where)
    if hint is bool:
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif hint is float:
        # the comparison is exact for ints too, so it also rejects an int no float can hold
        if (integer or isinstance(value, float)) and abs(value) <= sys.float_info.max:
            return float(value)
        expected = "a finite number"
    elif hint is int:
        if integer:
            return value
        expected = "an integer"
    elif isinstance(hint, type) and issubclass(hint, IntEnum):
        members = [m.value for m in hint]
        if integer and value in members:
            return hint(value)
        expected = f"one of {members}"
    elif origin is tuple:
        if isinstance(value, list):
            items = args[:1] * len(value) if args[1:] == (...,) else args
            if len(value) == len(items):
                return tuple(_decode(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
        expected = "a list" if args[1:] == (...,) else f"a list of {len(args)} values"
    elif origin is dict:
        if isinstance(value, dict):
            try:
                keys = [int(k) for k in value]
            except ValueError:
                raise ConfigError(f"{where} keys must be integers, got {list(value)}") from None
            if len(set(keys)) < len(keys):
                key = next(a for a, b in itertools.pairwise(sorted(keys)) if a == b)
                raise ConfigError(f"{where} names {key} more than once, got {list(value)}")
            return {k: _decode(args[1], v, f"{where}.{k}") for k, v in zip(keys, value.values())}
        expected = "an object"
    else:  # a dataclass-typed field such as Spacing
        hints = typing.get_type_hints(hint)
        items = tuple[tuple(hints[f.name] for f in dataclasses.fields(hint))]
        return hint(*_decode(items, value, where))
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def _write_json(path, doc) -> None:
    atomic_write(path, [(json.dumps(doc, indent=2) + "\n").encode("utf-8")])


POLICIES = {"keep_largest": KeepLargest, "min_size": MinSize, "keep_seeded": KeepSeeded}
_POLICY_NAMES = {cls: name for name, cls in POLICIES.items()}
METHODS = {"threshold": ThresholdConfig, "floodfill": FloodFillConfig, "regiongrow": RegionGrowConfig}
# a seeded method whose grown mask covers more than this fraction of the input
# grid has most likely leaked into the background; segment warns on stderr
FLOOD_WARNING_FRACTION = 0.25


def _policies_from_json(items) -> list:
    if not isinstance(items, list):
        raise ConfigError(f"postprocess must be a JSON list, got {items!r}")
    policies = []
    for i, item in enumerate(items):
        where = f"postprocess[{i}]"
        name = item.get("policy") if isinstance(item, dict) else None
        if not isinstance(name, str) or name not in POLICIES:
            raise ConfigError(f"{where} needs a 'policy' key, one of {list(POLICIES)}, got {item!r}")
        policies.append(_from_json(POLICIES[name], {k: v for k, v in item.items() if k != "policy"}, where))
    return policies


# ---------------------------------------------------------------------------
# commands

def cmd_phantom(args) -> int:
    params = _from_json(PhantomParams, _load_json(args.config), "phantom")
    tree = generate_tree(params)
    truth = rasterize_tree(tree, params.dims, params.spacing)
    volume = render_intensities(truth, params)
    write_nifti(volume, args.out_volume)
    write_nifti(truth, args.out_truth)
    _, sizes, _ = connected_components(truth)
    print(f"phantom: {len(tree)} segments, {len(sizes) - 1} component(s), "
          f"{truth.count()} foreground voxels")
    return 0


def cmd_preprocess(args) -> int:
    pre = (_from_json(PreprocessParams, _load_json(args.config), "preprocess")
           if args.config else PreprocessParams())
    volume = read_nifti(args.input)
    out, box = stretch_and_crop(volume, pre)
    if box is not None:
        _write_json(str(args.output) + ".crop.json", dataclasses.asdict(box))
    write_nifti(out, args.output)
    print(f"preprocess: wrote {out.dims[0]}x{out.dims[1]}x{out.dims[2]} volume to {args.output}")
    return 0


def _shift_seed(seed, box):
    if not all(l <= s <= h for s, l, h in zip(seed, box.lo, box.hi)):
        raise ConfigError(f"seed {list(seed)} lies outside the crop box "
                          f"{list(box.lo)}..{list(box.hi)}")
    return tuple(s - l for s, l in zip(seed, box.lo))


def _run_method(method: str, work, cfg, box, nz: int):
    """Run one segmentation method on the (possibly cropped) working volume.

    Seeds and per-slice overrides in ``cfg`` are in original-grid coordinates
    (``nz`` slices); with a crop ``box`` they are moved into crop coordinates
    here, and overrides for slices outside the crop, which cannot affect the
    output, are dropped. The method function is looked up by its module-level
    name on every call, so a rebinding of that name (a tracer, a test spy)
    takes effect.
    """
    if box is not None and method == "threshold":
        check_override_slices(cfg, nz)
        kept = {z - box.lo[2]: pair for z, pair in cfg.per_slice_overrides.items() if box.lo[2] <= z <= box.hi[2]}
        cfg = dataclasses.replace(cfg, per_slice_overrides=kept)
    elif box is not None:
        cfg = dataclasses.replace(cfg, seed=_shift_seed(cfg.seed, box))
    run = {"threshold": dual_threshold, "floodfill": flood_fill, "regiongrow": region_grow}[method]
    return run(work, cfg)


def cmd_segment(args) -> int:
    """Stretch, optionally crop, segment and post-process a volume, then write
    the mask and its provenance sidecar.

    A seeded method's ``GrownMask`` that covers more than
    ``FLOOD_WARNING_FRACTION`` of the input grid draws one warning on stderr;
    outputs and exit code stay as they are. Once the working volume is made,
    only the input's dims and spacing are kept, so the method runs beside
    the stretched grid alone.
    """
    cfg = _load_json(args.config)
    _check_keys(cfg, ("method", "preprocess", *METHODS, "postprocess",
                      "input", "output", "tool", "version", "command", "derived"),
                "segment config")
    method = args.method or cfg.get("method")
    if not isinstance(method, str) or method not in METHODS:
        raise ConfigError(f"method must be one of {list(METHODS)}, got {method!r}")
    in_path = args.input or cfg.get("input")
    out_path = args.output or cfg.get("output")
    if not all(isinstance(p, str) and p for p in (in_path, out_path)):
        raise ConfigError("segment needs an input and an output path (flags or config)")
    if cfg.get(method) is None:
        raise ConfigError(f"segment config has no '{method}' section")
    method_cfg = _from_json(METHODS[method], cfg[method], method)
    pre = _from_json(PreprocessParams, cfg.get("preprocess", {}), "preprocess")
    policies = _policies_from_json(cfg.get("postprocess", []))

    volume = read_nifti(in_path)
    dims, spacing = volume.dims, volume.spacing
    work, box = stretch_and_crop(volume, pre)
    del volume  # the raw grid is not needed beside the method's own
    local_mask = _run_method(method, work, method_cfg, box, dims[2])
    mask = embed_mask(local_mask, box, dims) if box else local_mask
    reached = local_mask.count() / math.prod(dims) if isinstance(local_mask, GrownMask) else 0.0

    try:
        mask = postprocess(mask, policies)
    except DegenerateInputError:
        mask = Mask(np.zeros(dims, dtype=bool, order="F"), spacing)

    write_nifti(mask, out_path)
    n = mask.count()
    # provenance keeps the config as parsed, in original-grid coordinates, so
    # that a rerun with the sidecar as --config reproduces the run end to end
    sidecar = {
        "tool": "biliseg",
        "version": __version__,
        "command": "segment",
        "input": str(in_path),
        "output": str(out_path),
        "method": method,
        "preprocess": dataclasses.asdict(pre),
        method: dataclasses.asdict(method_cfg),
        "postprocess": [{"policy": _POLICY_NAMES[type(p)], **dataclasses.asdict(p)} for p in policies],
        "derived": {
            "crop_bbox": dataclasses.asdict(box) if box else None,
            "mask_voxels": n,
        },
    }
    _write_json(str(out_path) + ".provenance.json", sidecar)

    print(f"segment[{method}]: {n} foreground voxels -> {out_path}")
    if reached > FLOOD_WARNING_FRACTION:
        print(f"warning: {method} reached {reached:.1%} of the input grid, more than "
              f"{FLOOD_WARNING_FRACTION:.0%}; the region has likely leaked into the background",
              file=sys.stderr)
    if n == 0:
        print("segment: degenerate result (empty mask)", file=sys.stderr)
        return 4
    return 0


def cmd_evaluate(args) -> int:
    pred = read_nifti(args.input, as_mask=True)
    truth = read_nifti(args.truth, as_mask=True)
    if not truth.data.any():
        raise DegenerateInputError("ground-truth mask is empty")
    report = evaluate(pred, truth, Connectivity(args.connectivity))
    _write_json(args.output, dataclasses.asdict(report))
    print(f"evaluate: DSC={report.dsc:.6f} HD={report.hd_mm:.6f}mm RVD={report.rvd:.6f} "
          f"-> {args.output}")
    return 0


def cmd_compare(args) -> int:
    if not args.group or len(args.group) < 2:
        raise ConfigError("compare needs at least two --group entries")
    groups = {}
    for entry in args.group:
        if len(entry) < 3:
            raise ConfigError("each --group needs a method name and at least two report files")
        name, paths = entry[0], entry[1:]
        if name in groups:
            raise ConfigError(f"duplicate method name {name!r}")
        groups[name] = paths

    loaded = {name: [(p, _load_json(p)) for p in paths] for name, paths in groups.items()}

    rows = []
    per_column: dict[str, list[list[float]]] = {col: [] for col in COLUMNS}
    for name, reports in loaded.items():
        row = {"method": name}
        for col, key in COLUMNS.items():
            try:
                values = [_decode(float, r[key], f"{p}.{key}") for p, r in reports]
            except (KeyError, TypeError):
                raise ConfigError(f"report for method {name!r} lacks a numeric {key!r} field") from None
            try:
                row[col] = mean_std(values)
            except DegenerateInputError as e:
                raise DegenerateInputError(f"{col} of method {name!r}: {e}") from None
            per_column[col].append(values)
        rows.append(row)

    anova = {}
    for col, value_groups in per_column.items():
        try:
            anova[col] = one_way_anova(value_groups)
        except DegenerateInputError as e:
            anova[col] = str(e)  # F is undefined; the text names why
    write_report(rows, args.format, args.output, anova=anova)
    print(f"compare: {len(rows)} methods -> {args.output}")
    return 0


def cmd_mesh(args) -> int:
    count = stream_stl(read_nifti(args.input, as_mask=True), args.output)
    print(f"mesh: {count} triangles -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="biliseg",
                                     description="Tubular-structure segmentation and evaluation pipeline")
    parser.add_argument("--version", action="version", version=f"biliseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic tube-tree volume with ground truth")
    p.add_argument("--config", required=True, help="phantom parameter JSON")
    p.add_argument("--out-volume", required=True, help="output intensity volume (.nii)")
    p.add_argument("--out-truth", required=True, help="output ground-truth mask (.nii)")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("preprocess", help="contrast stretch (and optionally crop) a volume")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--config", help="preprocess parameter JSON (defaults if omitted)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("segment", help="preprocess, segment and post-process a volume")
    p.add_argument("--in", dest="input", help="input volume (.nii); falls back to config 'input'")
    p.add_argument("--out", dest="output", help="output mask (.nii); falls back to config 'output'")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--method", choices=METHODS, help="override the method named in the config")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="compare a predicted mask against ground truth")
    p.add_argument("--in", dest="input", required=True, help="predicted mask (.nii)")
    p.add_argument("--truth", required=True, help="ground-truth mask (.nii)")
    p.add_argument("--out", dest="output", required=True, help="output report (.json)")
    p.add_argument("--connectivity", type=int, choices=(6, 18, 26), default=26,
                   help="component connectivity for the topology counts")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="summarize per-method reports and run one-way ANOVA")
    p.add_argument("--group", action="append", nargs="+", metavar="METHOD REPORT...",
                   help="method name followed by its report files; repeat per method")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mesh", help="export a mask surface as binary STL")
    p.add_argument("--in", dest="input", required=True, help="mask (.nii)")
    p.add_argument("--out", dest="output", required=True, help="surface (.stl)")
    p.set_defaults(func=cmd_mesh)
    return parser


# one parser per process: building it costs more than a parse
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except DegenerateInputError as e:
        print(f"error: degenerate input: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: I/O failure: {e}", file=sys.stderr)
        return 3
    except BilisegError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
