"""Grid geometry: scalar volumes, binary masks, connectivity, component labeling.

Conventions used throughout the package:

* grids are indexed ``(ix, iy, iz)`` with dims ``(nx, ny, nz)``,
* the linear (file) order runs x fastest, then y, then z, and every
  ``Volume`` and ``Mask`` stores its data in that order (F-contiguous), so
  ``data.T`` is a C-contiguous ``(z, y, x)`` view; code that needs the
  memory order works on that view and never asks for strides,
* voxel centers sit on a regular anisotropic lattice, voxel ``(ix, iy, iz)``
  is at ``(ix*dx, iy*dy, iz*dz)`` millimetres,
* a neighborhood is the 3x3x3 element ``Connectivity.structure()`` takes
  from ``scipy.ndimage.generate_binary_structure``; labeling and the seeded
  growth engine both take that element,
* component labels cover the foreground box only and number the components
  in the x-fastest order of their first voxel (``connected_components``); a
  grown mask under VERTEX26, and one FACE6 component under EDGE18 or
  VERTEX26, are one component and their own labeling.
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
    arr = np.require(arr, dtype, "F").view()  # a copy only when the type or layout differs
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
        return int(np.count_nonzero(self.data))


@dataclass(frozen=True, eq=False)
class GrownMask(Mask):
    """A mask that is one nonempty VERTEX26 component, as the seeded methods
    grow it and as ``postprocess`` returns a lone surviving component:
    ``connected_components`` labels it without a labeling pass."""


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

    A mask that is one component needs no labeling: its labels are its box
    viewed as uint8. That holds for a ``GrownMask`` under VERTEX26, and for
    any mask under EDGE18 or VERTEX26 that is one FACE6 component, since
    FACE6 steps are steps of both. ``_one_face6_component`` decides the
    latter; every other mask is labeled under ``connectivity``.
    """
    if not mask.data.any():
        return (np.zeros(mask.dims, dtype=np.int32), np.array([mask.data.size]),
                BBox((0, 0, 0), tuple(n - 1 for n in mask.dims)))
    box = bbox_of(mask)
    crop = mask.data[box.slices()]
    if ((isinstance(mask, GrownMask) and connectivity == Connectivity.VERTEX26)
            or (connectivity in (Connectivity.EDGE18, Connectivity.VERTEX26) and _one_face6_component(crop))):
        labels = crop.view(np.uint8)
        n = np.count_nonzero(labels)
        return labels, np.array([labels.size - n, n]), box
    # C order over the (z, y, x) transpose is the x-fastest order
    raw, _ = ndimage.label(crop.T, structure=connectivity.structure().T)
    return raw.T, np.bincount(raw.ravel()), box


# voxels per slab of the isolated-voxel scan, about one plane of a 128x128x48 grid,
# so a noisy mask is rejected after a small fraction of its box
_SLAB_VOXELS = 1 << 14


def _one_face6_component(crop: np.ndarray) -> bool:
    """Whether the foreground of ``crop``, a nonempty mask's foreground box,
    is one FACE6 component.

    A foreground voxel with no FACE6 neighbour is a component of its own, so
    a box that holds more than that voxel holds several. The scan for such a
    voxel runs in z-slabs and stops at the first slab that has one, so most
    noisy masks are rejected without a labeling pass. Only a mask without
    one gets a FACE6 labeling.
    """
    if crop.size == 1:
        return True
    a = crop.T
    n = a.shape[0]
    step = max(1, _SLAB_VOXELS // (a.shape[1] * a.shape[2]))
    for i in range(0, n, step):
        j = min(i + step, n)
        slab = a[i:j]
        near = np.zeros_like(slab)  # some FACE6 neighbour is foreground
        near[1:] |= slab[:-1]
        near[:-1] |= slab[1:]
        near[:, 1:] |= slab[:, :-1]
        near[:, :-1] |= slab[:, 1:]
        near[:, :, 1:] |= slab[:, :, :-1]
        near[:, :, :-1] |= slab[:, :, 1:]
        if i > 0:
            near[0] |= a[i - 1]
        if j < n:
            near[-1] |= a[j]
        if (slab > near).any():  # a foreground voxel without a foreground neighbour
            return False
    _, count = ndimage.label(a, structure=Connectivity.FACE6.structure())
    return count == 1


def bbox_of(mask: Mask, margin: int = 0) -> BBox:
    """Smallest box containing all foreground, expanded by ``margin`` voxels
    and clamped to the grid.

    The grid is read in about two passes: one projection along z gives the
    (x, y) plane, whose ranges come from that small plane, and one reduction
    over each z-slice gives the z range.
    """
    if margin < 0:
        raise ConfigError(f"margin must be >= 0, got {margin}")
    a = mask.data.T
    plane = a.any(axis=0)
    if not plane.any():
        raise DegenerateInputError("cannot compute the bounding box of an empty mask")
    lo, hi = [0] * 3, [0] * 3
    for axis, occupied in zip((2, 1, 0), (a.any(axis=(1, 2)), plane.any(axis=1), plane.any(axis=0))):
        occupied = np.flatnonzero(occupied)
        lo[axis] = max(int(occupied[0]) - margin, 0)
        hi[axis] = min(int(occupied[-1]) + margin, mask.dims[axis] - 1)
    return BBox(tuple(lo), tuple(hi))
