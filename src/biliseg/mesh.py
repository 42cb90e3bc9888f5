"""Voxel surface extraction and binary STL export.

The surface of a mask is the set of foreground voxel faces adjacent to
background or to the grid boundary. Each exposed face becomes one quad
(two triangles) with an outward axis-aligned normal; vertex coordinates
are in mm (voxel centers at index * spacing, faces at half-spacing offsets).
A mesh is the array of 50 B STL records the file holds: it is filled in
place and written with no byte copy.
"""
from __future__ import annotations

import numpy as np

from .core import Mask
from .errors import DegenerateInputError, FormatError
from ._util import atomic_write

STL_HEADER = b"biliseg voxel surface"
TRIANGLE_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])
# (b, c) signs of a face's corners, in the order of a +axis face
_QUAD_CORNERS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])


def _exposed(mask: np.ndarray, axis: int, sign: int) -> np.ndarray:
    """Foreground voxels whose (axis, sign) neighbor is background or off-grid."""
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    if sign > 0:
        dst[axis], src[axis] = slice(None, -1), slice(1, None)
    else:
        dst[axis], src[axis] = slice(1, None), slice(None, -1)
    exposed = mask.copy(order="K")
    exposed[tuple(dst)] &= ~mask[tuple(src)]
    return exposed


def extract_surface_mesh(mask: Mask) -> np.ndarray:
    """Quad surface of a mask as a ``TRIANGLE_RECORD`` array, two triangles
    per exposed voxel face.

    Triangles are grouped by face direction (x+, x-, y+, y-, z+, z-), each
    group holding the first triangle of every quad and then the second.
    Corners are summed in float64 and rounded once to float32.
    """
    if not mask.data.any():
        raise DegenerateInputError("cannot extract a surface from an empty mask")
    spacing = np.array(mask.spacing.as_tuple())
    half = spacing / 2.0

    blocks = [(axis, sign, np.argwhere(_exposed(mask.data, axis, sign)))
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
        np.add((idx * spacing)[:, None, :], quad[[(0, 1, 2), (0, 2, 3)]][:, None], out=halves)
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
