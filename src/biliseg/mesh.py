"""Voxel surface extraction and binary STL export.

The surface of a mask is the set of foreground voxel faces adjacent to
background or to the grid boundary. Each exposed face becomes one quad
(two triangles) with an outward axis-aligned normal; vertex coordinates
are in mm (voxel centers at index * spacing, faces at half-spacing offsets).
Faces are found on the foreground box padded by one voxel of background,
which stands in for the neighbors off the grid, and indexed in the grid.
One generator builds the 50 B STL records a file holds, in chunks of
``_FILL_FACES`` faces from those indices: ``stream_stl`` writes each chunk
as it is built, so no whole mesh is held, and ``extract_surface_mesh``
fills the same chunks into one array.
"""
from __future__ import annotations

import itertools

import numpy as np

from .core import Mask, bbox_of
from .errors import DegenerateInputError, FormatError, GeometryError
from ._util import atomic_write

STL_HEADER = b"biliseg voxel surface"
TRIANGLE_RECORD = np.dtype([("normal", "<f4", (3,)), ("vertices", "<f4", (3, 3)), ("attr", "<u2")])
# (b, c) signs of a face's corners, in the order of a +axis face
_QUAD_CORNERS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])
# faces per chunk: bounds the float64 temporary at 8192 x 3 x 3 values (0.6 MB)
# and the chunk at 8192 records (0.4 MB)
_FILL_FACES = 8192


def _surface(mask: Mask):
    """The triangle count of a mask's surface and a generator of its
    ``TRIANGLE_RECORD`` chunks.

    The checks and the face indices run here, before the first chunk is
    asked for; the indices give the count.
    """
    if not mask.data.any():
        raise DegenerateInputError("cannot extract a surface from an empty mask")
    spacing = np.array(mask.spacing.as_tuple())
    with np.errstate(over="ignore"):  # the largest coordinate on each axis, as STL stores it
        far = ((np.array(mask.dims) - 1) * spacing + spacing / 2.0).astype(np.float32)
    if np.isinf(far).any():
        raise GeometryError(f"spacing {mask.spacing.as_tuple()}: vertices pass STL's float32 range")

    # the roll wraps only into the ring of background around the box
    box = bbox_of(mask)
    padded = np.pad(mask.data[box.slices()], 1)
    blocks = [(axis, sign, np.subtract(box.lo, 1) + np.argwhere(padded & ~np.roll(padded, -sign, axis)))
              for axis in range(3) for sign in (1, -1)]
    return 2 * sum(len(idx) for *_, idx in blocks), _chunks(blocks, spacing)


def _chunks(blocks, spacing):
    half = spacing / 2.0
    for axis, sign, idx in blocks:
        cols = [(axis + 1) % 3, (axis + 2) % 3][::sign]  # right-handed companions; swapped on a - face
        # quad corners counter-clockwise seen from outside, corner 0 at (-1, -1)
        quad = np.empty((4, 3))
        quad[:, axis] = sign * half[axis]
        quad[:, cols] = _QUAD_CORNERS * half[cols]
        for corners in quad[[(0, 1, 2), (0, 2, 3)]]:  # the first triangle of every quad, then the second
            for c in range(0, len(idx), _FILL_FACES):
                faces = idx[c:c + _FILL_FACES]
                chunk = np.zeros(len(faces), dtype=TRIANGLE_RECORD)
                # a broadcast add straight into the records is slower
                chunk["vertices"] = (faces * spacing)[:, None, :] + corners
                chunk["normal"][:, axis] = sign
                yield chunk


def extract_surface_mesh(mask: Mask) -> np.ndarray:
    """Quad surface of a mask as a ``TRIANGLE_RECORD`` array, two triangles
    per exposed voxel face.

    Triangles are grouped by face direction (x+, x-, y+, y-, z+, z-), each
    group holding the first triangle of every quad and then the second, and
    the quads in C index order of their voxels. Corners are summed in float64
    and rounded once to float32. An empty mask raises
    ``DegenerateInputError``, and a grid whose far corner rounds to float32
    infinity ``GeometryError``.
    """
    count, chunks = _surface(mask)
    mesh = np.empty(count, dtype=TRIANGLE_RECORD)
    records = mesh.view(np.void)  # 50 B blocks: a field-by-field copy took 1.25-1.4x as long
    start = 0
    for chunk in chunks:
        records[start:start + len(chunk)] = chunk.view(np.void)
        start += len(chunk)
    return mesh


def stream_stl(mask: Mask, path) -> int:
    """Write the surface of a mask as ``write_stl(extract_surface_mesh(mask),
    path)`` does, each chunk as it is built; returns the triangle count.

    The errors ``extract_surface_mesh`` raises are raised before any file
    is opened.
    """
    count, chunks = _surface(mask)
    _write_records(path, count, chunks)
    return count


def write_stl(mesh: np.ndarray, path) -> None:
    """Write a binary little-endian STL (80-byte header, uint32 count, 50 bytes/triangle)."""
    records = np.ascontiguousarray(mesh, dtype=TRIANGLE_RECORD)
    _write_records(path, len(records), [records])


def _write_records(path, count: int, chunks) -> None:
    atomic_write(path, itertools.chain([STL_HEADER.ljust(80, b"\x00"), np.array(count, "<u4")], chunks))


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
