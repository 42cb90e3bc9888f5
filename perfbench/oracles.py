"""Correctness checks for the benchmark, computed apart from the program.

Nothing here imports biliseg. Every ``check_*`` function returns a list of
problems; an empty list means the output passed. The masks, reports and STL
files the program writes are read back with the small NIfTI and STL readers
below, and compared with what numpy and scipy compute from the same inputs,
or with properties the method must have.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np
from scipy import ndimage

HD_TOL = 1e-9          # mm, Hausdorff distances against cKDTree
SAUVOLA_TIE = 1e-3     # summed-area tables round differently from a direct window sum
FULL26 = np.ones((3, 3, 3), dtype=bool)
FACE6 = ndimage.generate_binary_structure(3, 1)
STRUCTURES = {6: FACE6, 26: FULL26}
EDGE4_PROPAGATE = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


# ---------------------------------------------------------------------------
# file readers

_NII_DTYPES = {2: "<u1", 4: "<i2", 16: "<f4", 512: "<u2"}


def read_nii(path):
    """(array in (x, y, z) order, spacing) of a little-endian single-file NIfTI-1."""
    with open(path, "rb") as f:
        raw = f.read()
    if struct.unpack_from("<i", raw, 0)[0] != 348 or raw[344:347] != b"n+1":
        raise ValueError(f"{path}: not a little-endian single-file NIfTI-1")
    dim = struct.unpack_from("<8h", raw, 40)
    code = struct.unpack_from("<h", raw, 70)[0]
    pixdim = struct.unpack_from("<8f", raw, 76)
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    shape = tuple(dim[1:4])
    data = np.frombuffer(raw, dtype=_NII_DTYPES[code], count=int(np.prod(shape)), offset=offset)
    return data.reshape(shape, order="F"), tuple(float(p) for p in pixdim[1:4])


def read_mask(path):
    data, spacing = read_nii(path)
    if not np.isin(data, (0, 1)).all():
        raise ValueError(f"{path}: mask holds values other than 0 and 1")
    return data.astype(bool), spacing


# ---------------------------------------------------------------------------
# reference computations

def stretch(data, p_low, p_high):
    """Percentile stretch onto [0, 255] as float32 (linear order statistics)."""
    x = np.asarray(data, dtype=np.float64)
    lo, hi = np.percentile(x, (p_low, p_high))
    if hi <= lo:
        return np.zeros(x.shape, dtype=np.float32)
    return (np.clip((x - lo) / (hi - lo), 0.0, 1.0) * 255.0).astype(np.float32)


def largest_component(mask, structure=FULL26):
    """The largest component; ties go to the one holding the smallest
    x-fastest linear index."""
    labels, k = ndimage.label(mask, structure=structure)
    if k == 0:
        return np.zeros(mask.shape, dtype=bool)
    flat = labels.ravel(order="F")
    sizes = np.bincount(flat, minlength=k + 1)
    sizes[0] = 0
    best = np.flatnonzero(sizes == sizes.max())
    first = {lab: np.flatnonzero(flat == lab)[0] for lab in best}
    return labels == min(best, key=first.get)


def drop_small(mask, voxels, structure=FULL26):
    labels, k = ndimage.label(mask, structure=structure)
    sizes = np.bincount(labels.ravel(), minlength=k + 1)
    keep = sizes >= voxels
    keep[0] = False
    return keep[labels]


def crop_box(stretched, percentile, margin):
    """(lo, hi) inclusive corners of the box around the largest bright component."""
    bright = stretched >= np.percentile(stretched.astype(np.float64), percentile)
    occupied = np.argwhere(largest_component(bright))
    lo = np.maximum(occupied.min(axis=0) - margin, 0)
    hi = np.minimum(occupied.max(axis=0) + margin, np.array(stretched.shape) - 1)
    return tuple(int(v) for v in lo), tuple(int(v) for v in hi)


def box_slices(box):
    lo, hi = box
    return tuple(slice(l, h + 1) for l, h in zip(lo, hi))


def embed(local, box, shape):
    full = np.zeros(shape, dtype=bool)
    full[box_slices(box)] = local
    return full


def band(data, t_min, t_max, overrides=None):
    """Threshold band rule, float32 comparisons as for a float32 volume."""
    out = (data > t_min) & (data <= t_max)
    for z, (lo, hi) in (overrides or {}).items():
        out[:, :, z] = (data[:, :, z] > lo) & (data[:, :, z] <= hi)
    return out


def flood_component(data, seed, tolerance, connectivity):
    """The seed's ``ndimage.label`` component of the tolerance map."""
    seed = tuple(seed)
    allowed = np.abs(data.astype(np.float64) - float(data[seed])) <= tolerance
    labels, _ = ndimage.label(allowed, structure=STRUCTURES[connectivity])
    return labels == labels[seed]


def scalar_sauvola(slice2d, x, y, k, R, window):
    """T = m (1 + k (s / R - 1)) over the window at (x, y), clipped to the slice."""
    h = window // 2
    w = np.asarray(slice2d[max(0, x - h):x + h + 1, max(0, y - h):y + h + 1], dtype=np.float64)
    m = float(w.mean())
    return m * (1.0 + k * (float(w.std()) / R - 1.0))


def offsets_structure(offsets):
    s = np.zeros((3, 3, 3), dtype=bool)
    s[1, 1, 1] = True
    for d in offsets:
        s[tuple(1 + c for c in d)] = True
    return s


def exposed_faces(mask):
    """Number of foreground voxel faces next to background or the grid edge."""
    padded = np.pad(mask, 1)
    return int(sum(np.count_nonzero(np.diff(padded.astype(np.int8), axis=a)) for a in range(3)))


def directed_hd(a, b, spacing):
    """max over a of the mm distance to the nearest voxel of b (cKDTree).

    Only b's voxels with an in-grid 6-neighbour outside b are indexed: the
    nearest b voxel to any point outside b is always one of them.
    """
    from scipy.spatial import cKDTree

    outside = a & ~b
    if not outside.any():
        return 0.0
    shell = b & ~ndimage.binary_erosion(b, FACE6, border_value=1)
    sp = np.asarray(spacing, dtype=np.float64)
    dist, _ = cKDTree(np.argwhere(shell) * sp).query(np.argwhere(outside) * sp)
    return float(dist.max())


def topology_counts(pred, gt):
    """(outliers, missed, false communicating, false non-communicating) from
    the overlap matrix of the 26-connected components."""
    lp, kp = ndimage.label(pred, structure=FULL26)
    lg, kg = ndimage.label(gt, structure=FULL26)
    both = pred & gt
    overlap = np.bincount(lp[both].astype(np.int64) * (kg + 1) + lg[both],
                          minlength=(kp + 1) * (kg + 1)).reshape(kp + 1, kg + 1)[1:, 1:] > 0
    per_pred = overlap.sum(axis=1)
    per_gt = overlap.sum(axis=0)
    return (int((per_pred == 0).sum()), int((per_gt == 0).sum()),
            int(np.maximum(per_pred - 1, 0).sum()), int(np.maximum(per_gt - 1, 0).sum()))


# ---------------------------------------------------------------------------
# checks

def check_equal_masks(got, expected, what):
    if got.shape != expected.shape:
        return [f"{what}: shape {got.shape}, expected {expected.shape}"]
    diff = int(np.count_nonzero(got != expected))
    return [f"{what}: {diff} voxel(s) differ from the reference"] if diff else []


def check_report(report, pred, gt, spacing, what):
    """An evaluate report against Dice/RVD from voxel counts, both directed
    Hausdorff distances from cKDTree and topology from the overlap matrix."""
    problems = []
    n_pred, n_gt = int(pred.sum()), int(gt.sum())
    inter = int((pred & gt).sum())
    expected = {
        "dsc": 2.0 * inter / (n_pred + n_gt),
        "rvd": abs(n_pred - n_gt) / n_gt,
        "hd_directed_pred_to_gt": directed_hd(pred, gt, spacing),
        "hd_directed_gt_to_pred": directed_hd(gt, pred, spacing),
    }
    expected["hd_mm"] = max(expected["hd_directed_pred_to_gt"], expected["hd_directed_gt_to_pred"])
    for key, value in expected.items():
        tol = HD_TOL if key.startswith("hd") else 1e-12
        got = report.get(key)
        if not isinstance(got, (int, float)) or abs(got - value) > tol:
            problems.append(f"{what}: {key} = {got!r}, reference {value!r}")
    names = ("outliers", "missed_components", "false_communicating", "false_non_communicating")
    for key, value in zip(names, topology_counts(pred, gt)):
        if report.get(key) != value:
            problems.append(f"{what}: {key} = {report.get(key)!r}, reference {value}")
    return problems


def check_region_grow(mask, stretched, seed, offsets, rng, k=0.3, R=100.0, window=3, sample=400):
    """Properties every region-growing result has: it holds the seed, it is
    one component under the step offsets, each member passes its Sauvola
    threshold and each outside neighbour of a member fails it (checked on a
    seeded sample with the scalar formula; near-ties are skipped)."""
    seed = tuple(seed)
    if not mask[seed]:
        return [f"region grow: seed {seed} is not in the mask"]
    structure = offsets_structure(offsets)
    _, k_comp = ndimage.label(mask, structure=structure)
    problems = [] if k_comp == 1 else [f"region grow: {k_comp} components under its offsets, expected 1"]
    inside = np.argwhere(mask)
    rim = np.argwhere(ndimage.binary_dilation(mask, structure) & ~mask)
    for points, should_pass in ((inside, True), (rim, False)):
        if len(points) > sample:
            points = points[rng.choice(len(points), sample, replace=False)]
        for x, y, z in points:
            if (x, y, z) == seed:
                continue
            value = float(stretched[x, y, z])
            t = scalar_sauvola(stretched[:, :, z], x, y, k, R, window)
            if abs(value - t) <= SAUVOLA_TIE:
                continue
            if (value >= t) != should_pass:
                side = "member" if should_pass else "outside neighbour"
                problems.append(f"region grow: {side} ({x}, {y}, {z}) has value {value} against T = {t}")
    return problems


def check_stl(path, mask):
    """Binary STL: 84 + 50 n bytes, count field n, n twice the exposed faces."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        head = f.read(84)
    if len(head) < 84:
        return [f"{path}: {size} bytes, shorter than the 84-byte STL preamble"]
    n = struct.unpack_from("<I", head, 80)[0]
    problems = []
    if size != 84 + 50 * n:
        problems.append(f"{path}: {size} bytes for {n} triangles, expected {84 + 50 * n}")
    expected = 2 * exposed_faces(mask)
    if n != expected:
        problems.append(f"{path}: {n} triangles, expected {expected} (two per exposed face)")
    return problems


def check_compare(doc, groups, columns):
    """The compare summary against scipy.stats.f_oneway and statistics of the
    per-case reports. ``groups`` maps a method name to its report dicts;
    ``columns`` maps a summary column to its report key."""
    import statistics

    from scipy import stats

    problems = []
    rows = {row["method"]: row for row in doc.get("rows", [])}
    for column, key in columns.items():
        samples = [[float(r[key]) for r in reports] for reports in groups.values()]
        for name, values in zip(groups, samples):
            mean, sd = statistics.fmean(values), statistics.stdev(values)
            decimals = 1 if key in ("outliers", "false_communicating", "false_non_communicating") else 3
            sd_decimals = 2 if decimals == 1 else 3
            cell = f"{mean:.{decimals}f} ±{sd:.{sd_decimals}f}"
            got = rows.get(name, {}).get(column)
            if got != cell:
                problems.append(f"compare: {name} {column} cell {got!r}, reference {cell!r}")
        result = doc.get("anova", {}).get(column)
        within = sum(((np.asarray(v) - np.mean(v)) ** 2).sum() for v in samples)
        if within == 0.0:
            if result is not None:
                problems.append(f"compare: {column} has zero within-group variance, F must be undefined")
            continue
        ref = stats.f_oneway(*samples)
        if result is None:
            problems.append(f"compare: {column} F undefined, reference F = {ref.statistic}")
            continue
        if not math.isclose(result["f_stat"], ref.statistic, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"compare: {column} F = {result['f_stat']!r}, reference {ref.statistic!r}")
        if abs(result["p_value"] - ref.pvalue) > 1e-9:
            problems.append(f"compare: {column} p = {result['p_value']!r}, reference {ref.pvalue!r}")
    return problems


def check_same_bytes(path_a, path_b, what):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        same = fa.read() == fb.read()
    return [] if same else [f"{what}: {path_b} differs from {path_a}"]


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
