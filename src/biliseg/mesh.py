"""Voxel surface extraction and binary STL export.

The surface of a mask is the set of foreground voxel faces adjacent to
background or to the grid boundary. Each exposed face becomes one quad
(two triangles) with an outward axis-aligned normal; vertex coordinates
are in mm (voxel centers at index * spacing, faces at half-spacing offsets).
Faces are found on the foreground box padded by one voxel of background,
which stands in for the neighbors off the grid, and indexed in the grid.
A mesh is the array of 50 B STL records the file holds: it is filled in
place and written with no byte copy.
"""
from __future__ import annotations

import numpy as np

from .core import Mask, bbox_of
from .errors import DegenerateInputError, FormatError, GeometryError
from ._util import atomic_write

STL_HEADER = b"biliseg voxel surface"
TRIANGLE_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])
# (b, c) signs of a face's corners, in the order of a +axis face
_QUAD_CORNERS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])
# faces per vertex fill: bounds the float64 temporary at 8192 x 2 x 3 x 3 values (1.2 MB)
_FILL_FACES = 8192


def extract_surface_mesh(mask: Mask) -> np.ndarray:
    """Quad surface of a mask as a ``TRIANGLE_RECORD`` array, two triangles
    per exposed voxel face.

    Triangles are grouped by face direction (x+, x-, y+, y-, z+, z-), each
    group holding the first triangle of every quad and then the second, and
    the quads in C index order of their voxels. Corners are summed in float64
    and rounded once to float32. A grid whose far corner rounds to float32
    infinity raises ``GeometryError``.
    """
    if not mask.data.any():
        raise DegenerateInputError("cannot extract a surface from an empty mask")
    spacing = np.array(mask.spacing.as_tuple())
    half = spacing / 2.0
    with np.errstate(over="ignore"):  # the largest coordinate on each axis, as STL stores it
        far = ((np.array(mask.dims) - 1) * spacing + half).astype(np.float32)
    if np.isinf(far).any():
        raise GeometryError(f"spacing {mask.spacing.as_tuple()}: vertices pass STL's float32 range")

    # the roll wraps only into the ring of background around the box
    box = bbox_of(mask)
    padded = np.pad(mask.data[box.slices()], 1)
    blocks = [(axis, sign, np.subtract(box.lo, 1) + np.argwhere(padded & ~np.roll(padded, -sign, axis)))
              for axis in range(3) for sign in (1, -1)]
    mesh = np.zeros(2 * sum(len(idx) for *_, idx in blocks), dtype=TRIANGLE_RECORD)
    start = 0
    for axis, sign, idx in blocks:
        cols = [(axis + 1) % 3, (axis + 2) % 3][::sign]  # right-handed companions; swapped on a - face
        # quad corners counter-clockwise seen from outside, corner 0 at (-1, -1)
        quad = np.empty((4, 3))
        quad[:, axis] = sign * half[axis]
        quad[:, cols] = _QUAD_CORNERS * half[cols]
        stop = start + 2 * len(idx)
        halves = mesh["vertices"][start:stop].reshape(2, len(idx), 3, 3)  # a view: splits axis 0
        corners = quad[[(0, 1, 2), (0, 2, 3)]][:, None]
        for c in range(0, len(idx), _FILL_FACES):  # a broadcast add straight into the records is slower
            halves[:, c:c + _FILL_FACES] = (idx[c:c + _FILL_FACES] * spacing)[:, None, :] + corners
        mesh["normal"][start:stop, axis] = sign
        start = stop
    return mesh


def write_stl(mesh: np.ndarray, path) -> None:
    """Write a binary little-endian STL (80-byte header, uint32 count, 50 bytes/triangle)."""
    records = np.ascontiguousarray(mesh, dtype=TRIANGLE_RECORD)
    atomic_write(path, STL_HEADER.ljust(80, b"\x00"), np.array(len(records), "<u4"), records)


def read_stl(path) -> np.ndarray:
    """Read a binary STL back into a read-only ``TRIANGLE_RECORD`` array (round-trip helper)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 84:
        raise FormatError(f"truncated header: {len(raw)} bytes, need 84 (byte offset 0)")
    count = int(np.frombuffer(raw, dtype="<u4", count=1, offset=80)[0])
    if len(raw) < 84 + count * TRIANGLE_RECORD.itemsize:
        raise FormatError(f"truncated triangles: {len(raw) - 84} payload bytes, need "
                          f"{count * TRIANGLE_RECORD.itemsize} for {count} triangles (byte offset 84)")
    return np.frombuffer(raw, dtype=TRIANGLE_RECORD, count=count, offset=84)
