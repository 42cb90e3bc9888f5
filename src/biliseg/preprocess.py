"""Contrast normalization and dynamic cropping applied before segmentation.

``stretch_and_crop`` is the stage that ``segment`` and ``preprocess`` run:
``percentile_stretch``, then ``dynamic_crop`` when the crop is on. With the
crop on it sorts the raw values once. The stretch's lo/hi and the crop's
percentile both come from that sort, the bright set is decided on the raw
grid, and only the crop box is stretched. The stretch is monotone, so this
gives the bytes, box and errors of the two stages run one after the other.
"""
from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import BBox, Mask, Volume, bbox_of
from .errors import ConfigError, DegenerateInputError
from .segmentation import KeepLargest, postprocess


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


def _sorted_values(data) -> np.ndarray:
    """The grid's values as one float32 vector, sorted in place."""
    flat = np.array(data, dtype=np.float32).ravel(order="K")  # a view of the copy
    flat.sort()
    return flat


def _same(values: np.ndarray) -> np.ndarray:
    return values


def _percentiles(flat: np.ndarray, qs, f=_same) -> np.ndarray:
    """``np.percentile(f(grid).astype(np.float64), qs)``, bit for bit, where
    ``flat`` is the grid's values sorted (``_sorted_values``) and ``f`` maps
    float32 vectors elementwise, monotone non-decreasing: the order
    statistics of ``f(grid)`` are ``f`` of those of the grid, so only the ones
    read are mapped, and no float64 copy of the grid is made.

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
    n = flat.size
    values = []
    for q in qs:
        v = (n - 1) * (q / 100)
        i = min(math.floor(v), n - 1)
        a, b = (float(x) for x in f(flat[[i, min(i + 1, n - 1)]]))
        g = v + 1 if v >= n - 1 else v - i
        values.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return np.array(values)


def _stretch(src: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``clip((src - lo) / (hi - lo), 0, 1) * 255`` in float64, rounded once
    to float32; all zeros when ``hi <= lo``.

    Every step is a correctly rounded IEEE operation, a clip or a cast, so
    the map is monotone non-decreasing and gives a value the same bits
    wherever it meets it: in a z-slab of the grid or as an order statistic.
    """
    if hi <= lo:
        return np.zeros(src.shape, np.float32)
    return (np.clip((src.astype(np.float64) - lo) / (hi - lo), 0.0, 1.0) * 255.0).astype(np.float32)


def _stretched_grid(data: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``_stretch`` of a grid, x-fastest, computed one z-slab at a time and
    written into the float32 output, so that no float64 copy of the grid is
    made."""
    out = np.empty(data.shape, np.float32, order="F")
    for src, dst in zip(data.T, out.T):
        dst[...] = _stretch(src, lo, hi)
    return out


def percentile_stretch(volume: Volume, params: PreprocessParams | None = None) -> Volume:
    """Affine-map intensities onto [0, 255], clamping below/above the
    ``p_low``/``p_high`` percentiles (linear interpolation of order
    statistics). Volumes with no spread map to all zeros.

    The percentiles come from one in-place sort of a float32 copy, freed
    before the output is made. The map runs in float64 on one z-slab at a
    time, so no float64 copy of the grid is made.
    """
    params = params or PreprocessParams()
    lo, hi = _percentiles(_sorted_values(volume.data), (params.p_low, params.p_high))
    return Volume(_stretched_grid(volume.data, lo, hi), volume.spacing)


def _bright_cut(flat: np.ndarray, f, q: float) -> np.float32:
    """The least grid value ``c`` with ``f(c)`` at or above the ``q``
    percentile of ``f(grid)``, from the grid's sorted values ``flat``, so
    that the crop's bright set ``f(grid) >= percentile`` is ``grid >= c``.
    ``f`` is monotone non-decreasing, so the values that reach the percentile
    are a suffix of ``flat``, found by bisection. The interpolated percentile
    never exceeds ``f(flat[-1])``, so that suffix is never empty. A constant
    ``f(grid)`` raises ``DegenerateInputError``.
    """
    ends = f(flat[[0, -1]])
    if ends[0] == ends[1]:
        raise DegenerateInputError("constant volume has no croppable structure")
    threshold = _percentiles(flat, (q,), f)[0]
    j = bisect.bisect_left(range(flat.size), True, key=lambda k: f(flat[k:k + 1])[0] >= threshold)
    return flat[j]


def _bright_box(volume: Volume, cut: np.float32, margin: int) -> BBox:
    """The box, grown by ``margin``, of the largest 26-connected component
    of ``volume >= cut``: the one ``KeepLargest`` keeps."""
    bright = Mask(volume.data >= cut, volume.spacing)
    return bbox_of(postprocess(bright, [KeepLargest()]), margin)


def dynamic_crop(volume: Volume, params: PreprocessParams) -> tuple[Volume, BBox]:
    """Crop to the box around the largest bright component, the one
    ``KeepLargest`` keeps.

    Returns the cropped sub-volume and the box, which maps masks produced
    inside the crop back to full-grid coordinates (see ``core.embed_mask``).
    """
    box = _bright_box(volume, _bright_cut(_sorted_values(volume.data), _same, params.crop_percentile),
                      params.crop_margin)
    return Volume(volume.data[box.slices()], volume.spacing), box


def stretch_and_crop(volume: Volume, params: PreprocessParams) -> tuple[Volume, BBox | None]:
    """``percentile_stretch``, then ``dynamic_crop`` when ``crop_enabled``:
    the working volume and the crop box, or ``None`` without a crop.

    With the crop on, one sort of the raw values gives the stretch's lo/hi
    and, through the stretch's own map, the crop's percentile. The stretch is
    monotone, so the bright set of the stretched grid is an up-set of raw
    values, decided on the raw grid, and the crop of the stretched grid is
    the stretch of the raw crop: only the box is stretched. Data bytes,
    layout, box and errors are those of the two stages in turn.
    """
    if not params.crop_enabled:
        return percentile_stretch(volume, params), None
    flat = _sorted_values(volume.data)
    lo, hi = _percentiles(flat, (params.p_low, params.p_high))
    cut = _bright_cut(flat, lambda values: _stretch(values, lo, hi), params.crop_percentile)
    del flat  # the crop's labeling comes next
    box = _bright_box(volume, cut, params.crop_margin)
    return Volume(_stretched_grid(volume.data[box.slices()], lo, hi), volume.spacing), box
