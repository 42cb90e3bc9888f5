"""Contrast normalization and dynamic cropping applied before segmentation."""
from __future__ import annotations

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


def percentile_stretch(volume: Volume, params: PreprocessParams | None = None) -> Volume:
    """Affine-map intensities onto [0, 255], clamping below/above the
    ``p_low``/``p_high`` percentiles (linear interpolation of order
    statistics). Volumes with no spread map to all zeros.
    """
    params = params or PreprocessParams()
    data = volume.data.astype(np.float64)
    lo, hi = np.percentile(data, (params.p_low, params.p_high))
    if hi <= lo:
        return Volume(np.zeros(volume.dims, dtype=np.float32), volume.spacing)
    out = np.clip((data - lo) / (hi - lo), 0.0, 1.0) * 255.0
    return Volume(out.astype(np.float32), volume.spacing)


def dynamic_crop(volume: Volume, params: PreprocessParams) -> tuple[Volume, BBox]:
    """Crop to the box around the largest bright component.

    Returns the cropped sub-volume and the box, which maps masks produced
    inside the crop back to full-grid coordinates (see ``embed_mask``).
    """
    params = params or PreprocessParams()
    data = volume.data
    if float(data.min()) == float(data.max()):
        raise DegenerateInputError("constant volume has no croppable structure")
    threshold = np.percentile(data.astype(np.float64), params.crop_percentile)
    bright = Mask(data >= threshold, volume.spacing)
    labels, sizes, inner = connected_components(bright)
    largest = Mask(labels == np.argmax(sizes[1:]) + 1, volume.spacing)
    box = bbox_of(embed_mask(largest, inner, volume.dims), params.crop_margin)
    return Volume(data[box.slices()], volume.spacing), box


def embed_mask(mask: Mask, box: BBox, full_dims: tuple[int, int, int]) -> Mask:
    """Place a mask produced inside ``box`` back onto the full grid."""
    if mask.dims != box.shape():
        raise GeometryError(f"mask dims {mask.dims} do not match box shape {box.shape()}")
    if any(h >= n for h, n in zip(box.hi, full_dims)):
        raise GeometryError(f"box {box} does not fit into grid dims {full_dims}")
    full = np.zeros(full_dims, dtype=bool)
    full[box.slices()] = mask.data
    return Mask(full, mask.spacing)
