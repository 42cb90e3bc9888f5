"""Segmentation methods: dual thresholding, seeded flood fill, adaptive
region growing, plus component-filtering post-processing.

All methods are pure functions of (volume, config) and deterministic. Flood
fill and region growing share one growth engine whose result is the unique
maximal set reachable from the seed through voxels satisfying the method's
acceptance predicate: the seed's connected component under the method's
steps, found by one connected-component labeling call, so it does not depend
on any traversal order. Each step lies in the 3x3x3 cube, so the result is
one VERTEX26 component: a ``GrownMask``, which ``postprocess`` need not label.
``postprocess`` returns a lone surviving component as a ``GrownMask`` too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import (Connectivity, GrownMask, Mask, Volume, connected_components, embed_mask,
                   in_bounds, require_in_bounds)
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


# ---------------------------------------------------------------------------
# methods

def dual_threshold(volume: Volume, cfg: ThresholdConfig) -> Mask:
    """Voxel is foreground iff t_min < intensity <= t_max (per-slice pairs
    where an override exists).

    Each bound is cast to the float32 data's type. A bound beyond float32's
    range casts to +-inf, which compares against finite data exactly as the
    float64 bound would, so the cast's overflow warning is silenced.
    """
    data = volume.data
    with np.errstate(over="ignore"):
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
    region = np.array(allowed, dtype=bool, order="F")
    region[seed] = True
    labels, _ = ndimage.label(region.T, structure=structure.T)
    return labels.T == labels.T[seed]


def flood_fill(volume: Volume, cfg: FloodFillConfig) -> GrownMask:
    """Maximal connected region around the seed whose members stay within
    ``tolerance`` of the seed intensity."""
    seed = require_in_bounds(cfg.seed, volume.dims)
    seed_value = float(volume.data[seed])
    # one float64 temporary; the same arithmetic as astype(float64) - seed_value
    diff = np.subtract(volume.data, seed_value, dtype=np.float64)
    allowed = np.abs(diff, out=diff) <= cfg.tolerance
    reached = grow_from_seed(allowed, seed, cfg.connectivity.structure())
    return GrownMask(reached, volume.spacing)


def sauvola_threshold_field(slice_values: np.ndarray, k: float, R: float, window: int) -> np.ndarray:
    """Adaptive threshold at every pixel of a 2D slice.

    T = m * (1 + k * (s / R - 1)) with m, s the mean and population standard
    deviation over the ``window`` x ``window`` window centered on the pixel.
    Window sums come from summed-area tables; border windows are clipped, and
    each pixel's mean/std covers exactly the in-bounds part of its window.
    m, s and T are computed as written above, over a C-ordered float64 copy
    of the slice, whatever its layout, and the result is C-ordered.
    ``region_grow`` calls it once per slice, so no float64 copy of the grid
    is made.
    """
    a = np.array(slice_values, dtype=np.float64, order="C")
    nx, ny = a.shape
    h = min(window // 2, max(nx, ny))  # any wider window covers the whole slice alike
    w = 2 * h + 1
    # the summed-area table, edge-padded by h on every side: its zero first
    # row and column fill the top and left pads, its last row and column are
    # repeated into the bottom and right ones, so each clipped window corner
    # is a shifted view of it
    t = np.zeros((nx + w, ny + w))
    inner = t[h + 1:h + 1 + nx, h + 1:h + 1 + ny]

    def window_sums(values):
        np.cumsum(values, axis=0, out=inner)
        np.cumsum(inner, axis=1, out=inner)
        t[h + 1:h + 1 + nx, h + 1 + ny:] = inner[:, -1:]
        t[h + 1 + nx:] = t[h + nx]
        return t[w:, w:] - t[:-w, w:] - t[w:, :-w] + t[:-w, :-w]

    spans = [np.minimum(np.arange(n) + h + 1, n) - np.maximum(np.arange(n) - h, 0) for n in (nx, ny)]
    count = np.outer(*spans)
    m = window_sums(a) / count
    s = np.sqrt(np.maximum(window_sums(a * a) / count - m * m, 0.0))
    with np.errstate(over="ignore"):  # a subnormal R: s / R, and so the threshold, can be inf
        return m * (1 + k * (s / R - 1))


def region_grow(volume: Volume, cfg: RegionGrowConfig) -> GrownMask:
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

    allowed = np.empty_like(data, dtype=bool)  # x-fastest like the data, so each slice is contiguous
    for z in range(volume.dims[2]):
        field_z = sauvola_threshold_field(data[:, :, z], cfg.k, cfg.R, cfg.window)
        np.greater_equal(data[:, :, z], field_z, out=allowed[:, :, z])

    structure = cfg.in_slice_connectivity.structure()
    structure[1, 1, [0, 2]] = cfg.propagate_slices
    reached = grow_from_seed(allowed, seed, structure)
    return GrownMask(reached, volume.spacing)


def postprocess(mask: Mask, policies) -> Mask:
    """Apply component-filtering policies in order to the mask's 26-connected
    components. The result is always a subset of the input mask; when no
    policy drops a component it is the input itself, so a ``GrownMask``
    stays one. When exactly one component survives, the result is that one
    VERTEX26 component, ``labels == kept``, returned as a ``GrownMask`` so
    that ``evaluate`` need not label it; zero or several survivors give a
    plain ``Mask``.

    Every policy keeps or drops whole components, so one labeling of the
    foreground box and a shrinking ``keep`` vector give the mask that
    relabeling after each policy would. The largest survivor is the first kept
    label of maximal size, which breaks ties on the x-fastest first voxel. A
    seed outside the foreground box lies on the background.
    """
    if not policies:
        return mask
    labels, sizes, box = connected_components(mask)
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
    if keep[1:].all():  # every component stays: the input is the result, of its own type
        return mask
    kept = np.flatnonzero(keep)
    if len(kept) == 1:  # one VERTEX26 component
        return embed_mask(GrownMask(labels == int(kept[0]), mask.spacing), box, mask.dims)
    # fancy indexing gathers through the integer labels; np.take would copy them to intp
    return embed_mask(Mask(keep[labels], mask.spacing), box, mask.dims)
