"""Overlap, distance and topology metrics for a (prediction, ground truth) pair.

Distances are Euclidean in mm between voxel centers with anisotropic spacing
honored. The Hausdorff distance is evaluated over all foreground voxel
centers (no surface extraction) through an exact distance transform.

The topology counts are automated connected-component proxies for visual
error tallies: spurious prediction components (outliers), ground-truth
components with no prediction (missed), one prediction bridging several
ground-truth structures (false communicating) and one ground-truth structure
fragmented across several predictions (false non-communicating).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from .core import Connectivity, Mask, Spacing, connected_components, same_geometry
from .errors import DegenerateInputError


@dataclass(frozen=True)
class TopologyCounts:
    outliers: int
    missed_components: int
    false_communicating: int
    false_non_communicating: int


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


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Per-voxel mm distance to the nearest foreground voxel center (0 on foreground)."""

    data: np.ndarray
    spacing: Spacing

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


def dice(pred: Mask, gt: Mask) -> float:
    """Overlap coefficient 2|X n Y| / (|X| + |Y|); 1.0 when both masks are
    empty, 0.0 when exactly one is."""
    same_geometry(pred, gt)
    np_, ng = pred.count(), gt.count()
    if np_ == 0 and ng == 0:
        return 1.0
    inter = int((pred.data & gt.data).sum())
    return 2.0 * inter / (np_ + ng)


def rvd(pred: Mask, gt: Mask) -> float:
    """Absolute volume difference relative to the ground-truth volume."""
    same_geometry(pred, gt)
    ng = gt.count()
    if ng == 0:
        raise DegenerateInputError("relative volume difference is undefined for an empty ground truth")
    return abs(pred.count() - ng) / ng


def distance_transform(mask: Mask) -> DistanceField:
    """Exact Euclidean distance (mm) from every voxel center to the nearest
    foreground voxel center."""
    if not mask.data.any():
        raise DegenerateInputError("distance to an empty mask is undefined")
    dist = ndimage.distance_transform_edt(~mask.data, sampling=mask.spacing.as_tuple())
    return DistanceField(np.ascontiguousarray(dist), mask.spacing)


def hausdorff(pred: Mask, gt: Mask, mode: str = "symmetric") -> float:
    """Largest boundary error in mm.

    ``directed`` gives max over prediction voxels of the distance to the
    nearest ground-truth voxel; ``symmetric`` is the max of both directions.
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
    dist_to_b = distance_transform(b).data
    return float(dist_to_b[a.data].max())


def topology_report(pred: Mask, gt: Mask,
                    connectivity: Connectivity = Connectivity.VERTEX26) -> TopologyCounts:
    """Component-overlap proxy counts, see the module docstring."""
    same_geometry(pred, gt)
    lp = connected_components(pred, connectivity)
    lg = connected_components(gt, connectivity)
    kp, kg = lp.num_components, lg.num_components

    both = pred.data & gt.data
    pairs = np.unique(lp.data[both].astype(np.int64) * (kg + 1) + lg.data[both])
    pred_hit = np.unique(pairs // (kg + 1))
    gt_hit = np.unique(pairs % (kg + 1))
    return TopologyCounts(
        outliers=kp - len(pred_hit),
        missed_components=kg - len(gt_hit),
        false_communicating=int(len(pairs) - len(pred_hit)),
        false_non_communicating=int(len(pairs) - len(gt_hit)),
    )


def evaluate(pred: Mask, gt: Mask,
             connectivity: Connectivity = Connectivity.VERTEX26) -> MetricsReport:
    """Full metric set for one (prediction, ground truth) pair.

    Requires both masks non-empty (the Hausdorff distance is undefined
    otherwise)."""
    forward = hausdorff(pred, gt, "directed")
    backward = hausdorff(gt, pred, "directed")
    topo = topology_report(pred, gt, connectivity)
    return MetricsReport(
        dsc=dice(pred, gt),
        hd_mm=max(forward, backward),
        hd_directed_pred_to_gt=forward,
        hd_directed_gt_to_pred=backward,
        rvd=rvd(pred, gt),
        **asdict(topo),
    )
