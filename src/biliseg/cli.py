"""Batch command-line pipeline.

Verbs: ``phantom``, ``preprocess``, ``segment``, ``evaluate``, ``compare``,
``mesh``. Every command is idempotent (identical inputs give byte-identical
outputs) and returns a stable exit code: 0 success, 2 config/usage error,
3 I/O error, 4 degenerate result. JSON config schemas are documented in the
package README.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .core import Connectivity, Mask, connected_components
from .errors import (BilisegError, ConfigError, DegenerateInputError,
                     FormatError, GeometryError)
from .mesh import extract_surface_mesh, write_stl
from .metrics import evaluate
from .nifti import read_nifti, write_nifti
from .phantom import PhantomParams, generate_tree, rasterize_tree, render_intensities
from .preprocess import PreprocessParams, dynamic_crop, embed_mask, percentile_stretch
from .report import REPORT_COLUMNS, write_report
from .segmentation import (FloodFillConfig, KeepLargest, KeepSeeded, MinSize,
                           RegionGrowConfig, ThresholdConfig, dual_threshold,
                           flood_fill, postprocess, region_grow)
from .stats import mean_std, one_way_anova
from ._util import atomic_write_text

METHODS = ("threshold", "floodfill", "regiongrow")
_METRIC_KEYS = {
    "DSC": "dsc",
    "HD_mm": "hd_mm",
    "RVD": "rvd",
    "outliers": "outliers",
    "false_communicating_IHDs": "false_communicating",
    "false_non_communicating_IHDs": "false_non_communicating",
}


def thread_cap() -> int:
    """Parallelism cap from BILISEG_THREADS (0 or unset = auto)."""
    raw = os.environ.get("BILISEG_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"BILISEG_THREADS must be an integer >= 0, got {raw!r}") from None
    if n < 0:
        raise ConfigError(f"BILISEG_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# JSON config parsing

def _load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _check_keys(d: dict, allowed, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _seed(value, where: str):
    try:
        seed = tuple(int(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: seed must be three integers, got {value!r}") from None
    if len(seed) != 3:
        raise ConfigError(f"{where}: seed must be three integers, got {value!r}")
    return seed


def _coerce(kind, value, where: str):
    """``kind(value)``, with a ConfigError naming ``where`` if it fails."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}") from None


def preprocess_from_dict(d: dict) -> PreprocessParams:
    _check_keys(d, ("p_low", "p_high", "crop_enabled", "crop_percentile", "crop_margin"), "preprocess")
    return PreprocessParams(**d)


def threshold_from_dict(d: dict) -> ThresholdConfig:
    _check_keys(d, ("t_min", "t_max", "per_slice_overrides"), "threshold config")
    try:
        overrides = {
            int(z): (float(pair[0]), float(pair[1]))
            for z, pair in (d.get("per_slice_overrides") or {}).items()
        }
        return ThresholdConfig(float(d["t_min"]), float(d["t_max"]), overrides or None)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as e:
        raise ConfigError(f"bad threshold config: {e!r}") from None


def floodfill_from_dict(d: dict) -> FloodFillConfig:
    _check_keys(d, ("seed", "tolerance", "connectivity"), "floodfill config")
    if "seed" not in d or "tolerance" not in d:
        raise ConfigError("floodfill config requires 'seed' and 'tolerance'")
    try:
        conn = Connectivity(int(d.get("connectivity", 6)))
    except (TypeError, ValueError):
        raise ConfigError(f"unknown connectivity {d.get('connectivity')!r}") from None
    return FloodFillConfig(_seed(d["seed"], "floodfill"),
                           _coerce(float, d["tolerance"], "floodfill tolerance"), conn)


def regiongrow_from_dict(d: dict) -> RegionGrowConfig:
    _check_keys(d, ("seed", "k", "R", "window", "in_slice_connectivity", "propagate_slices"),
                "regiongrow config")
    if "seed" not in d:
        raise ConfigError("regiongrow config requires 'seed'")
    try:
        conn = Connectivity(int(d.get("in_slice_connectivity", 4)))
    except (TypeError, ValueError):
        raise ConfigError(f"unknown connectivity {d.get('in_slice_connectivity')!r}") from None
    return RegionGrowConfig(
        seed=_seed(d["seed"], "regiongrow"),
        k=_coerce(float, d.get("k", 0.3), "regiongrow k"),
        R=_coerce(float, d.get("R", 100.0), "regiongrow R"),
        window=_coerce(int, d.get("window", 3), "regiongrow window"),
        in_slice_connectivity=conn,
        propagate_slices=bool(d.get("propagate_slices", True)),
    )


def policies_from_list(items) -> list:
    if not isinstance(items, list):
        raise ConfigError(f"postprocess must be a JSON list, got {items!r}")
    policies = []
    for item in items:
        if not isinstance(item, dict) or "policy" not in item:
            raise ConfigError(f"each postprocess entry needs a 'policy' key, got {item!r}")
        kind = item["policy"]
        if kind == "keep_largest":
            _check_keys(item, ("policy",), "keep_largest policy")
            policies.append(KeepLargest())
        elif kind == "min_size":
            _check_keys(item, ("policy", "voxels"), "min_size policy")
            policies.append(MinSize(_coerce(int, item.get("voxels"), "min_size voxels")))
        elif kind == "keep_seeded":
            _check_keys(item, ("policy", "seeds"), "keep_seeded policy")
            seeds = tuple(_seed(s, "keep_seeded") for s in item.get("seeds", ()))
            if not seeds:
                raise ConfigError("keep_seeded policy needs at least one seed")
            policies.append(KeepSeeded(seeds))
        else:
            raise ConfigError(f"unknown postprocess policy {kind!r}")
    return policies


def phantom_params_from_dict(d: dict) -> PhantomParams:
    allowed = ("dims", "spacing", "root", "root_direction", "segment_length", "radius_root",
               "radius_taper", "branch_probability", "branch_angle", "max_depth",
               "fg_mean", "bg_mean", "noise_std", "rng_seed")
    _check_keys(d, allowed, "phantom params")
    required = ("dims", "spacing", "root", "root_direction", "segment_length", "radius_root")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"phantom params missing {missing}")
    try:
        kwargs = dict(d)
        kwargs["dims"] = tuple(int(v) for v in d["dims"])
        kwargs["spacing"] = tuple(float(v) for v in d["spacing"])
        kwargs["root"] = tuple(float(v) for v in d["root"])
        kwargs["root_direction"] = tuple(float(v) for v in d["root_direction"])
        return PhantomParams(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad phantom params: {e!r}") from None


def _policies_to_json(policies) -> list:
    out = []
    for p in policies:
        if isinstance(p, KeepLargest):
            out.append({"policy": "keep_largest"})
        elif isinstance(p, MinSize):
            out.append({"policy": "min_size", "voxels": p.voxels})
        elif isinstance(p, KeepSeeded):
            out.append({"policy": "keep_seeded", "seeds": [list(s) for s in p.seeds]})
    return out


# ---------------------------------------------------------------------------
# commands

def cmd_phantom(args) -> int:
    params = phantom_params_from_dict(_load_json(args.config))
    tree = generate_tree(params)
    truth = rasterize_tree(tree, params.dims, params.spacing)
    volume = render_intensities(truth, params)
    write_nifti(volume, args.out_volume)
    write_nifti(truth, args.out_truth)
    labels = connected_components(truth)
    print(f"phantom: {len(tree)} segments, {labels.num_components} component(s), "
          f"{truth.count()} foreground voxels")
    return 0


def cmd_preprocess(args) -> int:
    pre = preprocess_from_dict(_load_json(args.config)) if args.config else PreprocessParams()
    volume = read_nifti(args.input)
    out = percentile_stretch(volume, pre)
    if pre.crop_enabled:
        out, box = dynamic_crop(out, pre)
        atomic_write_text(str(args.output) + ".crop.json",
                          json.dumps({"lo": list(box.lo), "hi": list(box.hi)}, indent=2) + "\n")
    write_nifti(out, args.output)
    print(f"preprocess: wrote {out.dims[0]}x{out.dims[1]}x{out.dims[2]} volume to {args.output}")
    return 0


def _shift_seed(seed, box):
    if not all(l <= s <= h for s, l, h in zip(seed, box.lo, box.hi)):
        raise ConfigError(f"seed {list(seed)} lies outside the crop box "
                          f"{list(box.lo)}..{list(box.hi)}")
    return tuple(s - l for s, l in zip(seed, box.lo))


def _run_method(method: str, work, cfg: dict, box):
    """Run one segmentation method on the (possibly cropped) working volume.

    Seeds and per-slice overrides in the config are in original-grid
    coordinates; they are shifted into crop coordinates here.
    """
    z0 = box.lo[2] if box else 0
    if method == "threshold":
        tc = threshold_from_dict(cfg)
        if box and tc.per_slice_overrides:
            kept = {z - z0: pair for z, pair in tc.per_slice_overrides.items()
                    if box.lo[2] <= z <= box.hi[2]}
            tc = ThresholdConfig(tc.t_min, tc.t_max, kept or None)
        return dual_threshold(work, tc), tc
    if method == "floodfill":
        fc = floodfill_from_dict(cfg)
        if box:
            fc = FloodFillConfig(_shift_seed(fc.seed, box), fc.tolerance, fc.connectivity)
        return flood_fill(work, fc), fc
    rc = regiongrow_from_dict(cfg)
    if box:
        rc = RegionGrowConfig(_shift_seed(rc.seed, box), rc.k, rc.R,
                              rc.window, rc.in_slice_connectivity, rc.propagate_slices)
    return region_grow(work, rc), rc


def _method_to_json(method: str, cfg) -> dict:
    if method == "threshold":
        overrides = cfg.per_slice_overrides or {}
        return {"t_min": cfg.t_min, "t_max": cfg.t_max,
                "per_slice_overrides": {str(z): list(pair) for z, pair in sorted(overrides.items())}}
    if method == "floodfill":
        return {"seed": list(cfg.seed), "tolerance": cfg.tolerance,
                "connectivity": int(cfg.connectivity)}
    return {"seed": list(cfg.seed), "k": cfg.k, "R": cfg.R, "window": cfg.window,
            "in_slice_connectivity": int(cfg.in_slice_connectivity),
            "propagate_slices": cfg.propagate_slices}


def cmd_segment(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("segment config must be a JSON object")
    _check_keys(cfg, ("method", "preprocess", "threshold", "floodfill", "regiongrow",
                      "postprocess", "input", "output", "tool", "version", "command", "derived"),
                "segment config")
    method = args.method or cfg.get("method")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    in_path = args.input or cfg.get("input")
    out_path = args.output or cfg.get("output")
    if not in_path or not out_path:
        raise ConfigError("segment needs an input and an output path (flags or config)")
    method_cfg = cfg.get(method)
    if method_cfg is None:
        raise ConfigError(f"segment config has no '{method}' section")

    pre = preprocess_from_dict(cfg.get("preprocess", {}))
    volume = read_nifti(in_path)
    work = percentile_stretch(volume, pre)
    box = None
    if pre.crop_enabled:
        work, box = dynamic_crop(work, pre)
        # validate original-coordinate overrides before shifting them
        if method == "threshold":
            for z in (threshold_from_dict(method_cfg).per_slice_overrides or {}):
                if not 0 <= z < volume.dims[2]:
                    raise ConfigError(f"per-slice override references slice {z}, "
                                      f"volume has {volume.dims[2]} slices")

    local_mask, effective = _run_method(method, work, method_cfg, box)
    mask = embed_mask(local_mask, box, volume.dims) if box else local_mask

    policies = policies_from_list(cfg.get("postprocess", []))
    degenerate = False
    try:
        mask = postprocess(mask, policies)
    except DegenerateInputError:
        mask = Mask(np.zeros(volume.dims, dtype=bool), volume.spacing)
        degenerate = True

    write_nifti(mask, out_path)
    sidecar = {
        "tool": "biliseg",
        "version": __version__,
        "command": "segment",
        "input": str(in_path),
        "output": str(out_path),
        "method": method,
        "preprocess": {"p_low": pre.p_low, "p_high": pre.p_high, "crop_enabled": pre.crop_enabled,
                       "crop_percentile": pre.crop_percentile, "crop_margin": pre.crop_margin},
        method: _sidecar_method(method, method_cfg, box, effective),
        "postprocess": _policies_to_json(policies),
        "derived": {
            "crop_bbox": {"lo": list(box.lo), "hi": list(box.hi)} if box else None,
            "mask_voxels": mask.count(),
        },
    }
    atomic_write_text(str(out_path) + ".provenance.json", json.dumps(sidecar, indent=2) + "\n")

    n = mask.count()
    print(f"segment[{method}]: {n} foreground voxels -> {out_path}")
    if degenerate or n == 0:
        print("segment: degenerate result (empty mask)", file=sys.stderr)
        return 4
    return 0


def _sidecar_method(method: str, method_cfg: dict, box, effective) -> dict:
    # provenance keeps original-grid coordinates so a rerun reproduces the
    # pipeline end to end; when no crop happened the effective config is
    # identical and also carries the defaults the run actually used
    if box is None:
        return _method_to_json(method, effective)
    merged = _method_to_json(method, effective)
    if method in ("floodfill", "regiongrow"):
        merged["seed"] = [int(v) for v in method_cfg["seed"]]
    if method == "threshold":
        merged["per_slice_overrides"] = {
            str(int(z)): [float(p[0]), float(p[1])]
            for z, p in sorted((method_cfg.get("per_slice_overrides") or {}).items(), key=lambda kv: int(kv[0]))
        }
    return merged


def cmd_evaluate(args) -> int:
    pred = read_nifti(args.input, as_mask=True)
    truth = read_nifti(args.truth, as_mask=True)
    if not truth.data.any():
        raise DegenerateInputError("ground-truth mask is empty")
    report = evaluate(pred, truth, Connectivity(args.connectivity))
    write_report(report, "json", args.output)
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

    with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
        loaded = {name: list(pool.map(_load_json, paths)) for name, paths in groups.items()}

    rows = []
    per_column: dict[str, list[list[float]]] = {col: [] for col in REPORT_COLUMNS[1:]}
    for name, reports in loaded.items():
        row = {"method": name}
        for col in REPORT_COLUMNS[1:]:
            key = _METRIC_KEYS[col]
            try:
                values = [float(r[key]) for r in reports]
            except (KeyError, TypeError, ValueError):
                raise ConfigError(f"report for method {name!r} lacks a numeric {key!r} field") from None
            row[col] = mean_std(values)
            per_column[col].append(values)
        rows.append(row)

    anova = {}
    for col, value_groups in per_column.items():
        try:
            anova[col] = one_way_anova(value_groups)
        except DegenerateInputError:
            anova[col] = None  # all observations identical, F undefined
    write_report(rows, args.format, args.output, anova=anova)
    print(f"compare: {len(rows)} methods -> {args.output}")
    return 0


def cmd_mesh(args) -> int:
    mask = read_nifti(args.input, as_mask=True)
    mesh = extract_surface_mesh(mask)
    write_stl(mesh, args.output)
    print(f"mesh: {len(mesh)} triangles -> {args.output}")
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
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mesh", help="export a mask surface as binary STL")
    p.add_argument("--in", dest="input", required=True, help="mask (.nii)")
    p.add_argument("--out", dest="output", required=True, help="surface (.stl)")
    p.set_defaults(func=cmd_mesh)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, GeometryError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=sys.stderr)
        return 2
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
