"""Voxel surface extraction and binary STL export.

The surface of a mask is the set of foreground voxel faces adjacent to
background or to the grid boundary. Each exposed face becomes one quad
(two triangles) with an outward axis-aligned normal; vertex coordinates
are in mm (voxel centers at index * spacing, faces at half-spacing offsets).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Mask
from .errors import DegenerateInputError
from ._util import atomic_write_bytes

STL_HEADER = b"biliseg voxel surface"
TRIANGLE_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])


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
    """Quad surface of a mask, two triangles per exposed voxel face."""
    if not mask.data.any():
        raise DegenerateInputError("cannot extract a surface from an empty mask")
    half = np.array(mask.spacing.as_tuple()) / 2.0
    spacing = np.array(mask.spacing.as_tuple())

    tris = []
    norms = []
    for axis in range(3):
        b, c = (axis + 1) % 3, (axis + 2) % 3  # right-handed companion axes
        for sign in (1, -1):
            idx = np.argwhere(_exposed(mask.data, axis, sign))
            if idx.size == 0:
                continue
            centers = idx * spacing
            # quad corners ordered counter-clockwise seen from outside
            quad = np.zeros((4, 3))
            quad[:, axis] = sign * half[axis]
            bc = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
            if sign < 0:
                bc = bc[::-1]
                bc = bc[-1:] + bc[:-1]  # keep corner 0 at (-1, -1)
            for i, (sb, sc) in enumerate(bc):
                quad[i, b] = sb * half[b]
                quad[i, c] = sc * half[c]
            corners = centers[:, None, :] + quad[None, :, :]
            tris.append(corners[:, (0, 1, 2), :])
            tris.append(corners[:, (0, 2, 3), :])
            normal = np.zeros(3)
            normal[axis] = float(sign)
            norms.append(np.tile(normal, (2 * len(idx), 1)))
    vertices = np.concatenate(tris, axis=0)
    normals = np.concatenate(norms, axis=0)
    return TriangleMesh(vertices, normals)


def write_stl(mesh: TriangleMesh, path) -> None:
    """Write a binary little-endian STL (80-byte header, uint32 count, 50 bytes/triangle)."""
    records = np.zeros(len(mesh), dtype=TRIANGLE_RECORD)
    records["normal"] = mesh.normals
    records["vertices"] = mesh.vertices
    blob = STL_HEADER.ljust(80, b"\x00") + np.uint32(len(mesh)).tobytes() + records.tobytes()
    atomic_write_bytes(path, blob)


def read_stl(path) -> TriangleMesh:
    """Read a binary STL back into a TriangleMesh (round-trip helper)."""
    with open(path, "rb") as f:
        raw = f.read()
    count = int(np.frombuffer(raw[80:84], dtype="<u4")[0])
    records = np.frombuffer(raw[84:], dtype=TRIANGLE_RECORD, count=count)
    return TriangleMesh(records["vertices"].astype(np.float64), records["normal"].astype(np.float64))
