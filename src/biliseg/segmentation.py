"""Segmentation methods: dual thresholding, seeded flood fill, adaptive
region growing, plus component-filtering post-processing.

All methods are pure functions of (volume, config) and deterministic. Flood
fill and region growing share one growth engine whose result is the unique
maximal set reachable from the seed through voxels satisfying the method's
acceptance predicate: the seed's connected component under the method's
steps, found by one connected-component labeling call, so it does not depend
on any traversal order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import (BBox, Connectivity, Mask, Volume, bbox_of, connected_components, in_bounds,
                   require_in_bounds)
from .errors import ConfigError, DegenerateInputError

SeedPoint = tuple[int, int, int]


# ---------------------------------------------------------------------------
# configs

@dataclass(frozen=True)
class ThresholdConfig:
    """Band threshold: keep intensities strictly above t_min and at most t_max.

    ``per_slice_overrides`` replaces the (t_min, t_max) pair on individual
    slices, mirroring acquisitions whose usable band drifts slice to slice.
    """

    t_min: float
    t_max: float
    per_slice_overrides: dict[int, tuple[float, float]] | None = None

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ConfigError(f"need t_min < t_max, got ({self.t_min}, {self.t_max})")
        if self.per_slice_overrides:
            for z, (lo, hi) in self.per_slice_overrides.items():
                if not lo < hi:
                    raise ConfigError(f"override for slice {z} needs t_min < t_max, got ({lo}, {hi})")


@dataclass(frozen=True)
class FloodFillConfig:
    """Seeded fill of the connected region within ``tolerance`` of the seed intensity."""

    seed: SeedPoint
    tolerance: float
    connectivity: Connectivity = Connectivity.FACE6

    def __post_init__(self):
        if self.tolerance < 0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")
        object.__setattr__(self, "connectivity", Connectivity(self.connectivity))


@dataclass(frozen=True)
class RegionGrowConfig:
    """Single-seed adaptive growth.

    A candidate voxel is accepted when its intensity reaches the local
    adaptive threshold computed on its slice (``window`` x ``window``
    neighborhood, sensitivity ``k``, scale ``R``). Growth spreads in-slice
    under ``in_slice_connectivity``; with ``propagate_slices`` every accepted
    voxel also seeds the same (x, y) position on the adjacent slices, so one
    seed can cover the whole stack.
    """

    seed: SeedPoint
    k: float = 0.3
    R: float = 100.0
    window: int = 3
    in_slice_connectivity: Connectivity = Connectivity.EDGE4
    propagate_slices: bool = True

    def __post_init__(self):
        if not 0.0 < self.k < 1.0:
            raise ConfigError(f"k must be in (0, 1), got {self.k}")
        if self.R <= 0:
            raise ConfigError(f"R must be > 0, got {self.R}")
        if self.window < 3 or self.window % 2 == 0:
            raise ConfigError(f"window must be an odd integer >= 3, got {self.window}")
        conn = Connectivity(self.in_slice_connectivity)
        if not conn.in_slice:
            raise ConfigError(f"in-slice connectivity must be EDGE4 or VERTEX8, got {conn.name}")
        object.__setattr__(self, "in_slice_connectivity", conn)


@dataclass(frozen=True)
class KeepLargest:
    """Keep only the largest connected component."""


@dataclass(frozen=True)
class KeepSeeded:
    """Keep components containing at least one of the given seeds."""

    seeds: tuple[SeedPoint, ...]

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("keep_seeded needs at least one seed")


@dataclass(frozen=True)
class MinSize:
    """Drop components with fewer than ``voxels`` members."""

    voxels: int

    def __post_init__(self):
        if self.voxels < 1:
            raise ConfigError(f"minimum component size must be >= 1, got {self.voxels}")


PostprocessPolicy = KeepLargest | KeepSeeded | MinSize


# ---------------------------------------------------------------------------
# methods

def dual_threshold(volume: Volume, cfg: ThresholdConfig) -> Mask:
    """Voxel is foreground iff t_min < intensity <= t_max (per-slice pairs
    where an override exists)."""
    data = volume.data
    out = (data > cfg.t_min) & (data <= cfg.t_max)
    if cfg.per_slice_overrides:
        nz = volume.dims[2]
        for z, (lo, hi) in sorted(cfg.per_slice_overrides.items()):
            if not 0 <= z < nz:
                raise ConfigError(f"per-slice override references slice {z}, volume has {nz} slices")
            out[:, :, z] = (data[:, :, z] > lo) & (data[:, :, z] <= hi)
    return Mask(out, volume.spacing)


def grow_from_seed(allowed: np.ndarray, seed: SeedPoint, structure: np.ndarray) -> np.ndarray:
    """Voxels reachable from ``seed`` through ``allowed`` voxels, one step of
    the 3x3x3 ``structure`` at a time. The seed is always included.

    ``structure`` is a ``Connectivity.structure()``, region growing's with
    the +-z cells set when it propagates across slices. Such an element is
    symmetric under negation, so reachability is symmetric and the reachable
    set is exactly the seed's connected component of ``allowed | {seed}``; it
    comes from one ``scipy.ndimage.label`` call and depends on no traversal
    order.
    """
    region = np.array(allowed, dtype=bool)
    region[seed] = True
    labels, _ = ndimage.label(region, structure=structure)
    return labels == labels[seed]


def flood_fill(volume: Volume, cfg: FloodFillConfig) -> Mask:
    """Maximal connected region around the seed whose members stay within
    ``tolerance`` of the seed intensity."""
    seed = require_in_bounds(cfg.seed, volume.dims)
    seed_value = float(volume.data[seed])
    # one float64 temporary; the same arithmetic as astype(float64) - seed_value
    diff = np.subtract(volume.data, seed_value, dtype=np.float64)
    allowed = np.abs(diff, out=diff) <= cfg.tolerance
    reached = grow_from_seed(allowed, seed, cfg.connectivity.structure())
    return Mask(reached, volume.spacing)


def sauvola_threshold_field(slice_values: np.ndarray, k: float, R: float, window: int) -> np.ndarray:
    """Adaptive threshold at every pixel of a 2D slice.

    T = m * (1 + k * (s / R - 1)) with m, s the mean and population standard
    deviation over the ``window`` x ``window`` window centered on the pixel.
    Window sums come from summed-area tables; border windows are clipped, and
    each pixel's mean/std covers exactly the in-bounds part of its window.
    """
    a = np.asarray(slice_values, dtype=np.float64)
    nx, ny = a.shape
    h = min(window // 2, max(nx, ny))  # any wider window covers the whole slice alike
    S = np.zeros((nx + 1, ny + 1))
    S2 = np.zeros((nx + 1, ny + 1))
    S[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
    S2[1:, 1:] = (a * a).cumsum(axis=0).cumsum(axis=1)

    x0 = np.clip(np.arange(nx) - h, 0, nx)
    x1 = np.clip(np.arange(nx) + h + 1, 0, nx)
    y0 = np.clip(np.arange(ny) - h, 0, ny)
    y1 = np.clip(np.arange(ny) + h + 1, 0, ny)

    def rect(table):
        hi, lo = table.take(x1, axis=0), table.take(x0, axis=0)
        return hi.take(y1, axis=1) - lo.take(y1, axis=1) - hi.take(y0, axis=1) + lo.take(y0, axis=1)

    count = (x1 - x0)[:, None] * (y1 - y0)[None, :]
    m = rect(S) / count
    var = np.maximum(rect(S2) / count - m * m, 0.0)
    s = np.sqrt(var)
    return m * (1.0 + k * (s / R - 1.0))


def region_grow(volume: Volume, cfg: RegionGrowConfig) -> Mask:
    """Single-seed adaptive region growing over a stack of slices.

    Expects intensities normalized to [0, 255] (run the percentile stretch
    first); the default scale R = 100 presumes that range. The seed is always
    part of the result even if it misses its own threshold, so a user-chosen
    seed never yields an empty mask.
    """
    seed = require_in_bounds(cfg.seed, volume.dims)
    data = volume.data
    if float(data.min()) < 0.0 or float(data.max()) > 255.0:
        raise ConfigError("region growing expects intensities in [0, 255]; normalize first")

    allowed = np.empty(volume.dims, dtype=bool)
    for z in range(volume.dims[2]):
        field_z = sauvola_threshold_field(data[:, :, z], cfg.k, cfg.R, cfg.window)
        allowed[:, :, z] = data[:, :, z].astype(np.float64) >= field_z

    structure = cfg.in_slice_connectivity.structure()
    structure[1, 1, [0, 2]] = cfg.propagate_slices
    reached = grow_from_seed(allowed, seed, structure)
    return Mask(reached, volume.spacing)


def postprocess(mask: Mask, policies) -> Mask:
    """Apply component-filtering policies in order to the mask's 26-connected
    components. The result is always a subset of the input mask, in the
    input's memory layout.

    Every policy keeps or drops whole components, so one labeling of the
    foreground box and a shrinking ``keep`` vector give the mask that
    relabeling after each policy would. The largest survivor is the first kept
    label of maximal size, which breaks ties on the x-fastest first voxel. A
    seed outside the foreground box lies on the background.

    A flood-fill or region-growing mask needs no labeling: each growth step
    lies in the 3x3x3 cube, so the mask is one VERTEX26 component, and
    ``postprocess_grown`` hands the same policy body its box as the labels.
    """
    if not policies:
        return mask
    return _apply_policies(mask, policies, *connected_components(mask))


def postprocess_grown(mask: Mask, policies) -> Mask:
    """``postprocess(mask, policies)`` for a nonempty mask that is a single
    VERTEX26 component, without labeling it.

    Every ``flood_fill`` and ``region_grow`` result is such a mask, before or
    after ``embed_mask``: ``grow_from_seed`` returns the seed's component
    under a 3x3x3 element, each of whose steps is a VERTEX26 step, and the
    seed always belongs to it. The VERTEX26 labeling of its box is then the
    box itself viewed as 0/1 labels.
    """
    if not policies:
        return mask
    box = bbox_of(mask)
    labels = mask.data[box.slices()].view(np.uint8)
    n = np.count_nonzero(labels)
    return _apply_policies(mask, policies, labels, np.array([labels.size - n, n]), box)


def _apply_policies(mask: Mask, policies, labels: np.ndarray, sizes: np.ndarray, box: BBox) -> Mask:
    """The policy rules on one labeling ``(labels, sizes, box)`` of ``mask``,
    as ``connected_components`` returns it."""
    keep = np.arange(len(sizes)) > 0  # every component, not the background
    for policy in policies:
        if isinstance(policy, KeepLargest):
            keep &= np.arange(len(keep)) == np.argmax(np.where(keep, sizes, -1))
        elif isinstance(policy, MinSize):
            keep &= sizes >= policy.voxels
        elif isinstance(policy, KeepSeeded):
            local = [np.subtract(require_in_bounds(s, mask.dims), box.lo) for s in policy.seeds]
            hit = [int(labels[tuple(p)]) for p in local if in_bounds(p, labels.shape)]
            hit = [label for label in hit if keep[label]]
            if not hit:
                raise DegenerateInputError("no seed lies inside a foreground component")
            keep[:] = False
            keep[hit] = True
        else:
            raise ConfigError(f"unknown post-processing policy {policy!r}")
    out = np.zeros_like(mask.data)
    # fancy indexing gathers through the integer labels; np.take would copy them to intp
    out[box.slices()] = keep[labels]
    return Mask(out, mask.spacing)
