"""Contrast normalization and dynamic cropping applied before segmentation."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import BBox, Mask, Volume, bbox_of, connected_components
from .errors import ConfigError, DegenerateInputError, GeometryError


@dataclass(frozen=True)
class PreprocessParams:
    """Percentile stretch bounds plus the optional crop stage.

    The crop keeps the largest 26-connected component of voxels at or above
    the ``crop_percentile`` intensity, expanded by ``crop_margin`` voxels.
    """

    p_low: float = 1.0
    p_high: float = 99.0
    crop_enabled: bool = False
    crop_percentile: float = 90.0
    crop_margin: int = 5

    def __post_init__(self):
        for name in ("p_low", "p_high", "crop_percentile"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not isinstance(self.crop_margin, numbers.Integral):
            raise ConfigError(f"crop_margin must be an integer, got {self.crop_margin!r}")
        if not 0.0 <= self.p_low < self.p_high <= 100.0:
            raise ConfigError(f"need 0 <= p_low < p_high <= 100, got ({self.p_low}, {self.p_high})")
        if not 0.0 <= self.crop_percentile <= 100.0:
            raise ConfigError(f"crop_percentile must be in [0, 100], got {self.crop_percentile}")
        if self.crop_margin < 0:
            raise ConfigError(f"crop_margin must be >= 0, got {self.crop_margin}")


def _percentiles(data: np.ndarray, qs) -> np.ndarray:
    """``np.percentile(data.astype(np.float64), qs)``, bit for bit, from one
    in-place sort of a float32 copy instead of a float64 copy of the grid.

    The order statistics of float32 data are float32 values. Between them
    numpy's linear method interpolates in float64: virtual index
    ``v = (n - 1) * (q / 100)``, order statistics ``floor(v)`` and the next,
    ``g = v - floor(v)``, and ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)``
    where ``g >= 0.5``. At ``v >= n - 1`` numpy takes the last statistic
    twice, indexed as -1, so its ``g`` is ``v + 1``; that ``g`` decides the
    sign of a zero result, so it is kept here. One sort puts every order
    statistic in place, and is faster than a partition at several of them.
    Only where the data holds both +0.0 and -0.0 can the sign of a zero
    result differ: the two compare equal, so neither numpy's partition nor
    this sort fixes their order.
    """
    flat = np.array(data, dtype=np.float32).ravel(order="K")  # a view of the copy
    flat.sort()
    n = flat.size
    values = []
    for q in qs:
        v = (n - 1) * (q / 100)
        i = min(math.floor(v), n - 1)
        a, b = float(flat[i]), float(flat[min(i + 1, n - 1)])
        g = v + 1 if v >= n - 1 else v - i
        values.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return np.array(values)


def percentile_stretch(volume: Volume, params: PreprocessParams | None = None) -> Volume:
    """Affine-map intensities onto [0, 255], clamping below/above the
    ``p_low``/``p_high`` percentiles (linear interpolation of order
    statistics). Volumes with no spread map to all zeros.

    The percentiles come from one in-place sort of a float32 copy. The map
    runs in float64 on one z-slab at a time, so no float64 copy of the grid
    is made.
    """
    params = params or PreprocessParams()
    data = volume.data
    lo, hi = _percentiles(data, (params.p_low, params.p_high))
    if hi <= lo:
        return Volume(np.zeros_like(data, dtype=np.float32), volume.spacing)
    out = np.empty_like(data, dtype=np.float32)
    for src, dst in zip(data.T, out.T):
        t = src.astype(np.float64)
        t -= lo
        t /= hi - lo
        np.clip(t, 0.0, 1.0, out=t)
        t *= 255.0
        dst[...] = t
    return Volume(out, volume.spacing)


def dynamic_crop(volume: Volume, params: PreprocessParams) -> tuple[Volume, BBox]:
    """Crop to the box around the largest bright component.

    Returns the cropped sub-volume and the box, which maps masks produced
    inside the crop back to full-grid coordinates (see ``embed_mask``).
    """
    data = volume.data
    if float(data.min()) == float(data.max()):
        raise DegenerateInputError("constant volume has no croppable structure")
    threshold = _percentiles(data, (params.crop_percentile,))[0]
    bright = Mask(data >= threshold, volume.spacing)
    labels, sizes, inner = connected_components(bright)
    largest = Mask(labels == np.argmax(sizes[1:]) + 1, volume.spacing)
    box = bbox_of(embed_mask(largest, inner, volume.dims), params.crop_margin)
    return Volume(data[box.slices()], volume.spacing), box


def embed_mask(mask: Mask, box: BBox, full_dims: tuple[int, int, int]) -> Mask:
    """Place a mask produced inside ``box`` back onto the full grid, as the
    same mask type."""
    if mask.dims != box.shape():
        raise GeometryError(f"mask dims {mask.dims} do not match box shape {box.shape()}")
    if any(h >= n for h, n in zip(box.hi, full_dims)):
        raise GeometryError(f"box {box} does not fit into grid dims {full_dims}")
    full = np.zeros(full_dims, dtype=bool, order="F")
    full[box.slices()] = mask.data
    return type(mask)(full, mask.spacing)
