"""Shared test helpers: independent file-format, neighborhood, labeling,
threshold and surface-mesh oracles."""
from __future__ import annotations

import struct
from itertools import product

import numpy as np
from scipy import ndimage


def raw_nifti_bytes(array_xyz: np.ndarray, pixdim, datatype_code: int, *,
                    endian: str = "<", scl=(0.0, 0.0), magic: bytes = b"n+1\x00",
                    vox_offset: int = 352, dim0: int = 3, bitpix: int | None = None) -> bytes:
    """Build a single-file NIfTI-1 byte string with struct.pack, independently
    of the package writer. Data is laid out x fastest."""
    bitpix_map = {2: 8, 4: 16, 512: 16, 16: 32}
    np_map = {2: np.uint8, 4: np.int16, 512: np.uint16, 16: np.float32}
    nx, ny, nz = array_xyz.shape
    bitpix = bitpix if bitpix is not None else bitpix_map[datatype_code]

    hdr = bytearray(348)
    struct.pack_into(endian + "i", hdr, 0, 348)
    struct.pack_into(endian + "8h", hdr, 40, dim0, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(endian + "h", hdr, 70, datatype_code)
    struct.pack_into(endian + "h", hdr, 72, bitpix)
    struct.pack_into(endian + "8f", hdr, 76, 1.0, pixdim[0], pixdim[1], pixdim[2], 0, 0, 0, 0)
    struct.pack_into(endian + "f", hdr, 108, float(vox_offset))
    struct.pack_into(endian + "f", hdr, 112, float(scl[0]))
    struct.pack_into(endian + "f", hdr, 116, float(scl[1]))
    hdr[344:348] = magic

    payload = array_xyz.astype(np.dtype(np_map[datatype_code]).newbyteorder(endian))
    body = payload.ravel(order="F").tobytes()
    return bytes(hdr) + b"\x00" * (vox_offset - 348) + body


def neighbor_offsets(conn) -> list[tuple[int, int, int]]:
    """The unit (dx, dy, dz) steps of a ``Connectivity``, by the rule its name
    states: 4 and 8 stay in the slice (edge, then edge or vertex neighbors),
    6, 18 and 26 step across at most one, two or three axes."""
    offs = []
    for d in product((-1, 0, 1), repeat=3):
        if d == (0, 0, 0):
            continue
        ax, ay, az = (abs(c) for c in d)
        keep = {
            4: az == 0 and ax + ay == 1,
            6: ax + ay + az == 1,
            8: az == 0,
            18: ax + ay + az <= 2,
            26: True,
        }[int(conn)]
        if keep:
            offs.append(d)
    return offs


def sauvola_threshold(slice_values, x: int, y: int, k: float = 0.3, R: float = 100.0,
                      window: int = 3) -> float:
    """Reference adaptive threshold at one pixel of a 2D slice, from the window
    itself: T = m * (1 + k * (s / R - 1)) with m, s the mean and population
    standard deviation over the window centered at (x, y), clipped to the
    slice bounds."""
    a = np.asarray(slice_values, dtype=np.float64)
    nx, ny = a.shape
    h = window // 2
    w = a[max(0, x - h):min(nx, x + h + 1), max(0, y - h):min(ny, y + h + 1)]
    return float(w.mean()) * (1.0 + k * (float(w.std()) / R - 1.0))


def union_find_components(mask: np.ndarray, offsets) -> list[frozenset]:
    """Brute-force connected components of a boolean grid via union-find."""
    coords = [tuple(p) for p in np.argwhere(mask)]
    index = {p: i for i, p in enumerate(coords)}
    parent = list(range(len(coords)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in coords:
        for off in offsets:
            q = (p[0] + off[0], p[1] + off[1], p[2] + off[2])
            j = index.get(q)
            if j is not None:
                ri, rj = find(index[p]), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, set] = {}
    for p, i in index.items():
        groups.setdefault(find(i), set()).add(p)
    return [frozenset(g) for g in groups.values()]


def ordered_components(mask: np.ndarray, connectivity) -> tuple[np.ndarray, int]:
    """Reference ordered labeling ``(labels, k)``: components numbered by
    decreasing size, ties broken on the smallest x-fastest linear index of a
    member voxel, found by sorting every foreground voxel."""
    raw, k = ndimage.label(mask, structure=connectivity.structure())
    if k == 0:
        return np.zeros(mask.shape, dtype=np.int32), 0
    flat = raw.ravel(order="F")  # F-order ravel == x-fastest linear index
    sizes = np.bincount(flat, minlength=k + 1)[1:]
    fg_pos = np.flatnonzero(flat)
    uniq, first_pos = np.unique(flat[fg_pos], return_index=True)
    first_linear = np.empty(k, dtype=np.int64)
    first_linear[uniq - 1] = fg_pos[first_pos]
    order = np.lexsort((first_linear, -sizes))
    relabel = np.zeros(k + 1, dtype=np.int32)
    relabel[order + 1] = np.arange(1, k + 1, dtype=np.int32)
    return relabel[raw], int(k)


def flood_fill_bfs(data: np.ndarray, seed, tolerance: float, offsets) -> set:
    """Reference flood fill: plain queue-based breadth-first search."""
    from collections import deque

    dims = data.shape
    seed = tuple(seed)
    seed_value = float(data[seed])
    seen = {seed}
    queue = deque([seed])
    while queue:
        p = queue.popleft()
        for off in offsets:
            q = (p[0] + off[0], p[1] + off[1], p[2] + off[2])
            if not all(0 <= c < n for c, n in zip(q, dims)):
                continue
            if q in seen:
                continue
            if abs(float(data[q]) - seed_value) <= tolerance:
                seen.add(q)
                queue.append(q)
    return seen


def reachable_bfs(allowed: np.ndarray, seed, offsets) -> set:
    """Reference reachability: breadth-first search from ``seed`` through
    ``allowed`` voxels, stepping by ``offsets``. The seed is always reached."""
    from collections import deque

    dims = allowed.shape
    seed = tuple(int(c) for c in seed)
    seen = {seed}
    queue = deque([seed])
    while queue:
        p = queue.popleft()
        for off in offsets:
            q = (p[0] + off[0], p[1] + off[1], p[2] + off[2])
            if all(0 <= c < n for c, n in zip(q, dims)) and q not in seen and allowed[q]:
                seen.add(q)
                queue.append(q)
    return seen


def hausdorff_brute(a: np.ndarray, b: np.ndarray, spacing) -> tuple[float, float, float]:
    """All-pairs max-min distances: (directed a->b, directed b->a, symmetric)."""
    sp = np.asarray(spacing, dtype=np.float64)
    pa = np.argwhere(a) * sp
    pb = np.argwhere(b) * sp
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    ab = float(np.sqrt(d2.min(axis=1)).max())
    ba = float(np.sqrt(d2.min(axis=0)).max())
    return ab, ba, max(ab, ba)


def directed_hd_edt(a: np.ndarray, b: np.ndarray, spacing) -> float:
    """Directed Hausdorff distance a->b read off one full-grid Euclidean
    distance transform of b: the maximum of the transform over a's voxels."""
    return float(ndimage.distance_transform_edt(~b, sampling=spacing)[a].max())


def surface_faces_walk(mask: np.ndarray, spacing) -> tuple[np.ndarray, np.ndarray]:
    """Reference voxel surface ``(vertices (n, 3, 3), normals (n, 3))`` in
    float64 mm, one face at a time. Blocks come in the order x+, x-, y+, y-,
    z+, z-; a block visits its exposed faces voxel by voxel in lexicographic
    (ix, iy, iz) order and lists every quad's first triangle, then every
    quad's second. A +axis face has the companion axes b = axis + 1 and
    c = axis + 2 (mod 3), swapped on a -axis face, and its corners (b, c) =
    (-, -), (+, -), (+, +), (-, +) lie half a spacing from the voxel center;
    its triangles are corners (0, 1, 2) and (0, 2, 3), counter-clockwise seen
    from outside."""
    dims = mask.shape
    sp = [float(s) for s in spacing]
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    verts, normals = [], []
    for axis in range(3):
        for sign in (1, -1):
            b, c = (axis + 1) % 3, (axis + 2) % 3
            if sign < 0:
                b, c = c, b
            quads = []
            for p in product(*(range(n) for n in dims)):
                q = list(p)
                q[axis] += sign
                if not mask[p] or (0 <= q[axis] < dims[axis] and mask[tuple(q)]):
                    continue
                quad = []
                for sb, sc in corners:
                    v = [p[k] * sp[k] for k in range(3)]
                    v[axis] += sign * (sp[axis] / 2.0)
                    v[b] += sb * (sp[b] / 2.0)
                    v[c] += sc * (sp[c] / 2.0)
                    quad.append(v)
                quads.append(quad)
            normal = [0.0, 0.0, 0.0]
            normal[axis] = float(sign)
            for tri in ((0, 1, 2), (0, 2, 3)):
                for quad in quads:
                    verts.append([quad[i] for i in tri])
                    normals.append(normal)
    return (np.array(verts, dtype=np.float64).reshape(-1, 3, 3),
            np.array(normals, dtype=np.float64).reshape(-1, 3))


def place_in_grid(rng: np.random.Generator, mask: np.ndarray, dims) -> np.ndarray:
    """``mask`` at a random offset inside an empty grid of ``dims``. A grid
    larger along every axis makes the foreground box a strict sub-box."""
    out = np.zeros(dims, dtype=bool)
    lo = [int(rng.integers(0, n - m + 1)) for n, m in zip(dims, mask.shape)]
    out[tuple(slice(l, l + m) for l, m in zip(lo, mask.shape))] = mask
    return out


def random_mask(rng: np.random.Generator, dims, p: float = 0.35, nonempty: bool = True) -> np.ndarray:
    while True:
        m = rng.random(dims) < p
        if not nonempty or m.any():
            return m
