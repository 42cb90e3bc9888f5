"""Voxel surface extraction and binary STL export.

The surface of a mask is the set of foreground voxel faces adjacent to
background or to the grid boundary. Each exposed face becomes one quad
(two triangles) with an outward axis-aligned normal; vertex coordinates
are in mm (voxel centers at index * spacing, faces at half-spacing offsets).
The mesh is filled in place (96 B per triangle in float64); ``write_stl``
adds one 50 B record per triangle and writes that array with no byte copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mask
from .errors import DegenerateInputError
from ._util import atomic_write

STL_HEADER = b"biliseg voxel surface"
TRIANGLE_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])
# (b, c) signs of a face's corners, in the order of a +axis face
_QUAD_CORNERS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Triangle soup: vertices (n, 3, 3) mm, unit normals (n, 3)."""

    vertices: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3, 3)
        n = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        if len(v) != len(n):
            raise ValueError("vertex and normal counts differ")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normals", n)

    def __len__(self) -> int:
        return len(self.vertices)


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


def extract_surface_mesh(mask: Mask) -> TriangleMesh:
    """Quad surface of a mask, two triangles per exposed voxel face.

    Triangles are grouped by face direction (x+, x-, y+, y-, z+, z-), each
    group holding the first triangle of every quad and then the second.
    """
    if not mask.data.any():
        raise DegenerateInputError("cannot extract a surface from an empty mask")
    spacing = np.array(mask.spacing.as_tuple())
    half = spacing / 2.0

    blocks = [(axis, sign, np.argwhere(_exposed(mask.data, axis, sign)))
              for axis in range(3) for sign in (1, -1)]
    vertices = np.empty((2 * sum(len(idx) for *_, idx in blocks), 3, 3))
    normals = np.zeros(vertices.shape[:2])
    start = 0
    for axis, sign, idx in blocks:
        cols = [(axis + 1) % 3, (axis + 2) % 3][::sign]  # right-handed companions; swapped on a - face
        # quad corners counter-clockwise seen from outside, corner 0 at (-1, -1)
        quad = np.empty((4, 3))
        quad[:, axis] = sign * half[axis]
        quad[:, cols] = _QUAD_CORNERS * half[cols]
        stop = start + 2 * len(idx)
        halves = vertices[start:stop].reshape(2, len(idx), 3, 3)
        np.add((idx * spacing)[:, None, :], quad[[(0, 1, 2), (0, 2, 3)]][:, None], out=halves)
        normals[start:stop, axis] = sign
        start = stop
    return TriangleMesh(vertices, normals)


def write_stl(mesh: TriangleMesh, path) -> None:
    """Write a binary little-endian STL (80-byte header, uint32 count, 50 bytes/triangle)."""
    records = np.zeros(len(mesh), dtype=TRIANGLE_RECORD)
    records["normal"] = mesh.normals
    records["vertices"] = mesh.vertices
    atomic_write(path, STL_HEADER.ljust(80, b"\x00"), np.array(len(mesh), "<u4"), records)


def read_stl(path) -> TriangleMesh:
    """Read a binary STL back into a TriangleMesh (round-trip helper)."""
    with open(path, "rb") as f:
        raw = f.read()
    count = int(np.frombuffer(raw[80:84], dtype="<u4")[0])
    records = np.frombuffer(raw[84:], dtype=TRIANGLE_RECORD, count=count)
    return TriangleMesh(records["vertices"].astype(np.float64), records["normal"].astype(np.float64))
