"""Overlap, distance and topology metrics for a (prediction, ground truth) pair.

Distances are Euclidean in mm between voxel centers with anisotropic spacing
honored. The Hausdorff distance is evaluated over all foreground voxel
centers (no surface extraction). Its value is the one an exact Euclidean
distance transform of the whole grid gives, bit for bit, but it is found
without one: a source inside the target is at distance 0, the search keeps
to the bounding box of the source voxels outside the target and the target,
and bounds on 8^3 blocks of that box prune an exact search against the
target's shell. Only when the search would cost more than a distance
transform of the box, or two nearest voxels tie to the last bit, does one
distance transform of that search box run. ``distance_transform`` returns
that transform as a plain float64 array.

The topology counts are automated connected-component proxies for visual
error tallies: spurious prediction components (outliers), ground-truth
components with no prediction (missed), one prediction bridging several
ground-truth structures (false communicating) and one ground-truth structure
fragmented across several predictions (false non-communicating).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import Connectivity, Mask, bbox_of, connected_components, same_geometry
from .errors import DegenerateInputError

# The exact Hausdorff search (_directed_hd) tiles the source voxels and the
# target's shell into _BLOCK^3 cells. _REL_TOL is the relative slack that
# covers every rounding difference between two evaluations of one distance.
# Costs are counted in voxel-pair distances: on 2 vCPUs one voxel of a
# distance transform costs 10-25 of them (boxes of 0.2-4 M voxels) and one
# (block, cell) bound about 5, so the search gives way to one distance
# transform of the box once its count passes _PAIRS_PER_EDT_VOXEL per box
# voxel. _CHUNK caps the elements of each broadcast temporary.
_BLOCK = 8
_REL_TOL = 1e-12
_PAIRS_PER_EDT_VOXEL = 10
_PAIRS_PER_BOUND = 5
_CHUNK = 1 << 16


@dataclass(frozen=True)
class MetricsReport:
    """All quantitative and topological measures for one mask pair."""

    dsc: float
    hd_mm: float
    hd_directed_pred_to_gt: float
    hd_directed_gt_to_pred: float
    rvd: float
    outliers: int
    missed_components: int
    false_communicating: int
    false_non_communicating: int


def dice(pred: Mask, gt: Mask) -> float:
    """Overlap coefficient 2|X n Y| / (|X| + |Y|); 1.0 when both masks are
    empty, 0.0 when exactly one is."""
    same_geometry(pred, gt)
    np_, ng = pred.count(), gt.count()
    if np_ == 0 and ng == 0:
        return 1.0
    inter = int(np.count_nonzero(pred.data & gt.data))
    return 2.0 * inter / (np_ + ng)


def rvd(pred: Mask, gt: Mask) -> float:
    """Absolute volume difference relative to the ground-truth volume."""
    same_geometry(pred, gt)
    ng = gt.count()
    if ng == 0:
        raise DegenerateInputError("relative volume difference is undefined for an empty ground truth")
    return abs(pred.count() - ng) / ng


def distance_transform(mask: Mask) -> np.ndarray:
    """Exact Euclidean distance (mm) from every voxel center to the nearest
    foreground voxel center, as a C-contiguous float64 array of the mask's
    dims (0 on the foreground)."""
    if not mask.data.any():
        raise DegenerateInputError("distance to an empty mask is undefined")
    return ndimage.distance_transform_edt(~mask.data, sampling=mask.spacing.as_tuple())


def hausdorff(pred: Mask, gt: Mask, mode: str = "symmetric") -> float:
    """Largest boundary error in mm.

    ``directed`` gives max over prediction voxels of the distance to the
    nearest ground-truth voxel; ``symmetric`` is the max of both directions.
    The value equals, bit for bit, the maximum of ``distance_transform(gt)``
    over the prediction voxels, see the module docstring.
    """
    if mode not in ("directed", "symmetric"):
        raise ValueError(f"mode must be 'directed' or 'symmetric', got {mode!r}")
    same_geometry(pred, gt)
    if not pred.data.any() or not gt.data.any():
        raise DegenerateInputError("Hausdorff distance is undefined for empty masks")
    forward = _directed_hd(pred, gt)
    if mode == "directed":
        return forward
    return max(forward, _directed_hd(gt, pred))


def _directed_hd(a: Mask, b: Mask) -> float:
    """``distance_transform(b)[a.data].max()``, bit for bit, without a
    full-grid distance transform.

    Voxels of ``a`` inside ``b`` are at 0, so only ``out = a & ~b`` counts.
    All of ``b`` lies in the bounding box of ``out | b``, and a distance
    transform of ``b`` on any box that holds all of ``b`` gives the same
    value at every voxel of the box, so the search works inside that box.
    """
    out = a.data & ~b.data
    if not out.any():
        return 0.0
    box = bbox_of(Mask(out | b.data, b.spacing)).slices()
    out = out[box]
    inner = Mask(b.data[box], b.spacing)
    shell = _Shell(inner)
    found = _block_search(out, shell)
    best = None if found is None else _edt_value_max(shell, *found)
    if best is None:  # the cost guard or an ulp tie
        best = float(distance_transform(inner)[out].max())
    return best


class _Shell:
    """The voxels of ``b`` with a 6-neighbour outside ``b`` or outside the
    box, grouped by ``_BLOCK``^3 cell. The nearest ``b`` voxel to a voxel
    outside ``b`` is always one of them, because one step from it towards
    that voxel leaves ``b``."""

    def __init__(self, b: Mask):
        self.spacing = np.asarray(b.spacing.as_tuple())
        near = bbox_of(b, margin=1)
        local = b.data[near.slices()]
        voxels = np.array(near.lo) + np.argwhere(
            local & ~ndimage.binary_erosion(local, Connectivity.FACE6.structure()))
        cell = np.ravel_multi_index((voxels // _BLOCK).T, tuple(voxels.max(axis=0) // _BLOCK + 1))
        order = np.argsort(cell, kind="stable")
        self.voxels, cell = voxels[order], cell[order]
        self.starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        self.sizes = np.diff(np.r_[self.starts, len(cell)])
        self.first = self.voxels[self.starts]
        self.lo = np.minimum.reduceat(self.voxels, self.starts)
        self.hi = np.maximum.reduceat(self.voxels, self.starts)

    def gap(self, lo, hi) -> np.ndarray:
        """Smallest distance from each voxel box ``[lo[i], hi[i]]`` (rows) to
        each cell's box (columns)."""
        g = np.maximum(np.maximum(self.lo - hi[:, None], lo[:, None] - self.hi), 0) * self.spacing
        return np.sqrt((g * g).sum(axis=2))

    def bound(self, lo, hi) -> np.ndarray:
        """An upper bound on the distance from any voxel of each box to the
        shell: the box's farthest corner from the first voxel of a cell,
        taken at the best cell."""
        far = np.maximum(np.abs(self.first - lo[:, None]), np.abs(hi[:, None] - self.first)) * self.spacing
        return np.sqrt((far * far).sum(axis=2).min(axis=1))

    def members(self, cells):
        """The shell voxels of the cells indexed by ``cells``, in order, and
        for each the position in ``cells`` it came from."""
        n = self.sizes[cells]
        return (np.repeat(self.starts[cells] - np.cumsum(n) + n, n) + np.arange(n.sum()),
                np.repeat(np.arange(len(cells)), n))

    def nearest(self, points, members) -> np.ndarray:
        """Distance from each voxel of ``points`` to its nearest shell voxel
        among ``members``."""
        p = points * self.spacing
        best = np.full(len(p), np.inf)
        step = max(1, _CHUNK // len(p))
        for i in range(0, len(members), step):
            m = (self.voxels[members[i:i + step]] * self.spacing).T
            d2 = np.square(p[:, 0, None] - m[0])
            for axis in (1, 2):
                t = p[:, axis, None] - m[axis]
                d2 += np.square(t, out=t)
            np.minimum(best, d2.min(axis=1), out=best)
        return np.sqrt(best)


def _block_search(out: np.ndarray, shell: _Shell):
    """Every voxel of ``out`` whose distance to the shell is within
    ``_REL_TOL`` of the largest, as ``(voxels, distances)``; None once the
    cost guard prefers one distance transform of the box.

    ``out`` is tiled into ``_BLOCK``^3 blocks, each with an upper bound on
    its distances (``_Shell.bound``); the blocks are searched exactly, against
    the shell cells within that bound, in decreasing bound order (Taha &
    Hanbury, TPAMI 2015) until the next bound falls below what has been found.
    """
    # tile the (z, y, x) view, in memory order, so that the copy into tiles
    # streams; [2, 1, 0] maps its coordinates back to (x, y, z)
    view = out.T
    n = -(-np.array(view.shape) // _BLOCK)
    padded = np.zeros(tuple(n * _BLOCK), bool)
    padded[tuple(map(slice, view.shape))] = view
    tiles = (padded.reshape(n[0], _BLOCK, n[1], _BLOCK, n[2], _BLOCK)
             .transpose(0, 2, 4, 1, 3, 5).reshape(-1, _BLOCK ** 3))
    counts = np.count_nonzero(tiles, axis=1)
    blocks = np.flatnonzero(counts)
    budget = out.size * _PAIRS_PER_EDT_VOXEL - len(blocks) * len(shell.starts) * _PAIRS_PER_BOUND
    if budget < 0:
        return None
    origins = np.column_stack(np.unravel_index(blocks, n))[:, [2, 1, 0]] * _BLOCK
    cells = np.argwhere(np.ones((_BLOCK,) * 3, bool))[:, [2, 1, 0]]
    bound, near = [], []
    step = max(1, _CHUNK // len(shell.starts))
    for i in range(0, len(blocks), step):
        lo, hi = origins[i:i + step], origins[i:i + step] + _BLOCK - 1
        bound.append(shell.bound(lo, hi))
        near.append(shell.gap(lo, hi) <= bound[-1][:, None] * (1 + _REL_TOL))
    bound, near = np.concatenate(bound), np.concatenate(near)
    order = np.argsort(-bound, kind="stable")
    blocks, origins, bound, near = blocks[order], origins[order], bound[order], near[order]
    queued = np.concatenate(([0], np.cumsum(counts[blocks] * (near @ shell.sizes))))

    voxels, dists = [], []
    best, i = 0.0, 0
    while True:
        voxels.append(origins[i] + cells[np.flatnonzero(tiles[blocks[i]])])
        dists.append(shell.nearest(voxels[-1], shell.members(np.flatnonzero(near[i]))[0]))
        best = max(best, float(dists[-1].max()))
        i += 1
        end = int(np.searchsorted(-bound, -best * (1 - _REL_TOL), side="right"))
        if end <= i:
            break
        if queued[end] - queued[i] > budget:
            return None
    voxels, dists = np.concatenate(voxels), np.concatenate(dists)
    keep = dists >= best * (1 - _REL_TOL)
    return voxels[keep], dists[keep]


def _edt_value_max(shell: _Shell, voxels, dists) -> float | None:
    """Largest distance-transform value over the candidate ``voxels``, or
    None when an ulp tie could set it.

    ``ndimage.distance_transform_edt`` reports ``sqrt(sum((off_i * s_i)**2))``
    for the integer offset ``off`` to the feature voxel it picked, summing
    the axes in order. That feature lies within ``_REL_TOL`` of the nearest
    distance, so the value is settled when every shell voxel that close gives
    the same float. Otherwise (an ulp tie) only the distance transform can
    tell which float it reports.
    """
    best, tie = 0.0, 0.0
    step = max(1, _CHUNK // len(shell.starts))
    for i in range(0, len(voxels), step):
        w, reach = voxels[i:i + step], dists[i:i + step] * (1 + _REL_TOL)
        owner, cell = np.nonzero(shell.gap(w, w) <= reach[:, None])
        member, which = shell.members(cell)
        owner = owner[which]
        off = (shell.voxels[member] - w[owner]) * shell.spacing
        sq = off * off
        value = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
        starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        lo = np.minimum.reduceat(value, starts)
        hi = np.maximum.reduceat(np.where(value <= reach[owner], value, -np.inf), starts)
        best = max(best, float(lo[lo == hi].max(initial=0.0)))
        tie = max(tie, float(hi[lo != hi].max(initial=0.0)))
    return None if tie > best else best


def topology_report(pred: Mask, gt: Mask,
                    connectivity: Connectivity = Connectivity.VERTEX26) -> dict[str, int]:
    """Component-overlap proxy counts, see the module docstring, keyed by
    their ``MetricsReport`` field names in field order.

    The counts depend on the partition into components only. Each mask is
    labeled inside its own foreground box. Every overlap voxel lies in both
    boxes, so the overlap is found inside the truth's box and read in the
    prediction's label crop, offset by the difference of the two corners.
    """
    same_geometry(pred, gt)
    lp, sizes_p, box_p = connected_components(pred, connectivity)
    lg, sizes_g, box_g = connected_components(gt, connectivity)
    kp, kg = len(sizes_p) - 1, len(sizes_g) - 1
    both = np.nonzero(pred.data[box_g.slices()] & gt.data[box_g.slices()])
    at_g = lg[both]
    at_p = lp[tuple(i + g - p for i, g, p in zip(both, box_g.lo, box_p.lo))]
    pairs = np.unique(at_p.astype(np.int64) * (kg + 1) + at_g)
    pred_hit = np.unique(pairs // (kg + 1))
    gt_hit = np.unique(pairs % (kg + 1))
    return {"outliers": kp - len(pred_hit),
            "missed_components": kg - len(gt_hit),
            "false_communicating": int(len(pairs) - len(pred_hit)),
            "false_non_communicating": int(len(pairs) - len(gt_hit))}


def evaluate(pred: Mask, gt: Mask,
             connectivity: Connectivity = Connectivity.VERTEX26) -> MetricsReport:
    """Full metric set for one (prediction, ground truth) pair.

    Requires both masks non-empty (the Hausdorff distance is undefined
    otherwise)."""
    forward = hausdorff(pred, gt, "directed")
    backward = hausdorff(gt, pred, "directed")
    return MetricsReport(
        dsc=dice(pred, gt),
        hd_mm=max(forward, backward),
        hd_directed_pred_to_gt=forward,
        hd_directed_gt_to_pred=backward,
        rvd=rvd(pred, gt),
        **topology_report(pred, gt, connectivity),
    )
