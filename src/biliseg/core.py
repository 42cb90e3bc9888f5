"""Grid geometry: scalar volumes, binary masks, connectivity, component labeling.

Conventions used throughout the package:

* grids are indexed ``(ix, iy, iz)`` with dims ``(nx, ny, nz)``,
* the linear (file) order runs x fastest, then y, then z,
* voxel centers sit on a regular anisotropic lattice, voxel ``(ix, iy, iz)``
  is at ``(ix*dx, iy*dy, iz*dz)`` millimetres,
* a neighborhood is the 3x3x3 element ``Connectivity.structure()`` takes
  from ``scipy.ndimage.generate_binary_structure``; labeling and the seeded
  growth engine both take that element,
* component labels cover the foreground box only and number the components
  in the x-fastest order of their first voxel (``connected_components``).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy import ndimage

from .errors import BoundsError, ConfigError, DegenerateInputError, GeometryError


@dataclass(frozen=True)
class Spacing:
    """Physical voxel size in mm along x, y, z. Anisotropy (dz != dx) is allowed."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self):
        for name in ("dx", "dy", "dz"):
            v = float(getattr(self, name))
            if not (np.isfinite(v) and v > 0):
                raise GeometryError(f"spacing {name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)


class Connectivity(IntEnum):
    """Neighborhood definitions.

    EDGE4 and VERTEX8 are in-slice (2D) neighborhoods: they never couple
    voxels across slices. FACE6, EDGE18 and VERTEX26 are volumetric.
    """

    EDGE4 = 4
    FACE6 = 6
    VERTEX8 = 8
    EDGE18 = 18
    VERTEX26 = 26

    @property
    def in_slice(self) -> bool:
        return self in (Connectivity.EDGE4, Connectivity.VERTEX8)

    def structure(self) -> np.ndarray:
        """3x3x3 boolean structuring element, center included (for
        scipy.ndimage.label): ``generate_binary_structure`` of rank 1 (4, 6),
        2 (8, 18) or 3 (26), with the z = 0 and z = 2 planes cleared for the
        in-slice members. A fresh array on every call."""
        s = ndimage.generate_binary_structure(3, {4: 1, 6: 1, 8: 2, 18: 2, 26: 3}[self])
        if self.in_slice:
            s[:, :, [0, 2]] = False
        return s


def _prepare_grid(data, dtype) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise GeometryError(f"expected a 3D grid, got shape {arr.shape}")
    if any(n < 1 for n in arr.shape):
        raise GeometryError(f"every grid dimension must be >= 1, got {arr.shape}")
    arr = arr.astype(dtype) if arr.dtype != dtype else arr.view()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Volume:
    """3D scalar image. Intensities are finite float32, shape (nx, ny, nz)."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        arr = _prepare_grid(self.data, np.float32)
        if not np.isfinite(arr).all():
            raise GeometryError("volume intensities must be finite (no NaN/Inf)")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class Mask:
    """3D binary grid sharing the geometry of the volume it was derived from."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        object.__setattr__(self, "data", _prepare_grid(self.data, bool))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def count(self) -> int:
        """Number of foreground voxels."""
        return int(self.data.sum())


@dataclass(frozen=True)
class BBox:
    """Axis-aligned voxel box, both corners inclusive."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"degenerate box: lo {self.lo} exceeds hi {self.hi}")

    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(l, h + 1) for l, h in zip(self.lo, self.hi))

    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))


def in_bounds(index, dims) -> bool:
    return all(0 <= i < n for i, n in zip(index, dims))


def require_in_bounds(index, dims) -> tuple[int, int, int]:
    index = tuple(int(i) for i in index)
    if len(index) != 3 or not in_bounds(index, dims):
        raise BoundsError(f"index {index} outside grid dims {tuple(dims)}")
    return index


def same_geometry(a, b) -> None:
    """Raise GeometryError unless a and b share dims and spacing."""
    if a.dims != b.dims:
        raise GeometryError(f"grid dims differ: {a.dims} vs {b.dims}")
    if a.spacing != b.spacing:
        raise GeometryError(f"voxel spacing differs: {a.spacing} vs {b.spacing}")


def connected_components(mask: Mask, connectivity: Connectivity = Connectivity.VERTEX26
                         ) -> tuple[np.ndarray, np.ndarray, BBox]:
    """``(labels, sizes, box)``: the connected foreground components, labeled
    inside the foreground box.

    Two foreground voxels share a label iff a foreground path under
    ``connectivity`` joins them. ``box`` is ``bbox_of(mask)``, or the whole
    grid when the mask is empty, and ``labels`` covers ``box`` only: 0 on the
    background, components 1..k in the x-fastest order of their first voxel.
    Cropping to the box changes neither the components nor that order.
    ``sizes[i]`` is the voxel count of label ``i``; ``sizes[0]`` counts the
    background inside the box.
    """
    box = bbox_of(mask) if mask.data.any() else BBox((0, 0, 0), tuple(n - 1 for n in mask.dims))
    # C order over the (z, y, x) transpose is the x-fastest order
    raw, _ = ndimage.label(mask.data[box.slices()].T, structure=connectivity.structure().T)
    return raw.T, np.bincount(raw.ravel()), box


def bbox_of(mask: Mask, margin: int = 0) -> BBox:
    """Smallest box containing all foreground, expanded by ``margin`` voxels
    and clamped to the grid."""
    if margin < 0:
        raise ConfigError(f"margin must be >= 0, got {margin}")
    if not mask.data.any():
        raise DegenerateInputError("cannot compute the bounding box of an empty mask")
    lo, hi = [], []
    for axis in range(3):
        other = tuple(a for a in range(3) if a != axis)
        occupied = np.flatnonzero(mask.data.any(axis=other))
        lo.append(max(int(occupied[0]) - margin, 0))
        hi.append(min(int(occupied[-1]) + margin, mask.dims[axis] - 1))
    return BBox(tuple(lo), tuple(hi))
