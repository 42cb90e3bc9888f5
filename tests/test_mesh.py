import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biliseg.mesh
from biliseg import (DegenerateInputError, FormatError, GeometryError, Mask, Spacing,
                     extract_surface_mesh, write_nifti, write_stl)
from biliseg.cli import main
from biliseg.mesh import STL_HEADER, TRIANGLE_RECORD, read_stl, stream_stl
from conftest import random_mask, surface_faces_walk

SP = Spacing(1.0, 1.0, 1.0)


def count_exposed_faces(mask: np.ndarray) -> int:
    """Independent exposed-face count by looping over voxels and directions."""
    dims = mask.shape
    total = 0
    for p in map(tuple, np.argwhere(mask)):
        for axis in range(3):
            for sign in (-1, 1):
                q = list(p)
                q[axis] += sign
                if not (0 <= q[axis] < dims[axis]) or not mask[tuple(q)]:
                    total += 1
    return total


def exposed_area(mask: np.ndarray, spacing) -> float:
    dx, dy, dz = spacing
    face_area = {0: dy * dz, 1: dx * dz, 2: dx * dy}
    dims = mask.shape
    total = 0.0
    for p in map(tuple, np.argwhere(mask)):
        for axis in range(3):
            for sign in (-1, 1):
                q = list(p)
                q[axis] += sign
                if not (0 <= q[axis] < dims[axis]) or not mask[tuple(q)]:
                    total += face_area[axis]
    return total


def triangle_area(tri: np.ndarray) -> float:
    return 0.5 * float(np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])))


class TestExtraction:
    def test_single_voxel_cube(self):
        m = np.zeros((3, 3, 3), bool)
        m[1, 1, 1] = True
        mesh = extract_surface_mesh(Mask(m, SP))
        assert len(mesh) == 12

    def test_two_voxel_bar(self):
        m = np.zeros((4, 3, 3), bool)
        m[1, 1, 1] = m[2, 1, 1] = True
        assert len(extract_surface_mesh(Mask(m, SP))) == 20

    def test_diagonal_voxels_share_no_face(self):
        m = np.zeros((3, 3, 3), bool)
        m[0, 0, 0] = m[1, 1, 1] = True
        assert len(extract_surface_mesh(Mask(m, SP))) == 24

    def test_empty_mask_rejected(self):
        with pytest.raises(DegenerateInputError):
            extract_surface_mesh(Mask(np.zeros((2, 2, 2), bool), SP))

    def test_far_corner_beyond_float32_rejected(self):
        # on one voxel the largest coordinate is half a voxel and fits float32;
        # on 4 x 4 x 3 voxels it is 3.5 voxels and does not
        big = Spacing(3e38, 3e38, 3e38)
        mesh = extract_surface_mesh(Mask(np.ones((1, 1, 1), bool), big))
        assert np.isfinite(mesh["vertices"]).all()
        with pytest.raises(GeometryError, match="float32"):
            extract_surface_mesh(Mask(np.ones((4, 4, 3), bool), big))

    def test_winding_matches_normals(self):
        rng = np.random.default_rng(6)
        vertices, normals = surface_faces_walk(random_mask(rng, (4, 4, 4)), (1.0, 0.5, 2.0))
        cross = np.cross(vertices[:, 1] - vertices[:, 0], vertices[:, 2] - vertices[:, 0])
        cross /= np.linalg.norm(cross, axis=1, keepdims=True)
        assert np.allclose(cross, normals)

    def test_triangle_count_and_area_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spacing = Spacing(*(float(s) for s in rng.uniform(0.5, 2.0, 3)))
            data = random_mask(rng, tuple(int(d) for d in rng.integers(2, 6, 3)))
            mesh = extract_surface_mesh(Mask(data, spacing))
            faces = count_exposed_faces(data)
            assert len(mesh) == 2 * faces
            assert len(mesh) % 2 == 0
            vertices, _ = surface_faces_walk(data, spacing.as_tuple())
            mesh_area = sum(triangle_area(t) for t in vertices)
            assert mesh_area == pytest.approx(exposed_area(data, spacing.as_tuple()), rel=1e-9)

    def test_vertices_in_mm(self):
        m = np.zeros((2, 2, 2), bool)
        m[0, 0, 0] = True
        vertices, _ = surface_faces_walk(m, (2.0, 1.0, 4.0))
        # cube around the voxel center at the origin, half extents = spacing/2
        lo = vertices.reshape(-1, 3).min(axis=0)
        hi = vertices.reshape(-1, 3).max(axis=0)
        assert np.allclose(lo, (-1.0, -0.5, -2.0))
        assert np.allclose(hi, (1.0, 0.5, 2.0))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_face_walk_rounded_once(self, data):
        dims = tuple(data.draw(st.integers(1, 6)) for _ in range(3))
        bits = data.draw(st.lists(st.booleans(), min_size=int(np.prod(dims)),
                                  max_size=int(np.prod(dims))))
        mask = np.array(bits, dtype=bool).reshape(dims, order=data.draw(st.sampled_from("CF")))
        mask[tuple(data.draw(st.integers(0, n - 1)) for n in dims)] = True
        spacing = tuple(data.draw(st.floats(0.05, 20.0)) for _ in range(3))
        # also at a drawn offset inside a larger empty grid, so that the
        # foreground box lies away from every grid face
        before, after = ([data.draw(st.integers(1, 3)) for _ in range(3)] for _ in range(2))
        placed = np.pad(mask, list(zip(before, after)))
        for grid in (mask, np.ascontiguousarray(placed), np.asfortranarray(placed)):
            vertices, normals = surface_faces_walk(grid, spacing)
            expected = np.zeros(len(vertices), dtype=TRIANGLE_RECORD)
            expected["vertices"] = vertices
            expected["normal"] = normals
            mesh = extract_surface_mesh(Mask(grid, Spacing(*spacing)))
            assert mesh.dtype == TRIANGLE_RECORD
            assert mesh.tobytes() == expected.tobytes()


class TestStl:
    def test_byte_layout(self, tmp_path):
        m = np.zeros((3, 3, 3), bool)
        m[1, 1, 1] = True
        mesh = extract_surface_mesh(Mask(m, SP))
        path = tmp_path / "cube.stl"
        write_stl(mesh, path)
        blob = path.read_bytes()
        count = struct.unpack_from("<I", blob, 80)[0]
        assert count == 12
        assert len(blob) == 84 + 50 * count
        # attribute byte count is zero on every record
        for i in range(count):
            assert struct.unpack_from("<H", blob, 84 + 50 * i + 48)[0] == 0

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        mesh = extract_surface_mesh(Mask(random_mask(rng, (4, 3, 5)), Spacing(1, 1, 1.5)))
        path = tmp_path / "m.stl"
        write_stl(mesh, path)
        assert np.array_equal(read_stl(path), mesh)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        mask = Mask(random_mask(rng, (5, 5, 5)), SP)
        a, b = tmp_path / "a.stl", tmp_path / "b.stl"
        write_stl(extract_surface_mesh(mask), a)
        write_stl(extract_surface_mesh(mask), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("blob", [
        b"\x00" * 40,
        b"\x00" * 80 + struct.pack("<I", 5) + b"\x00" * 60,  # 5 triangles need 250 bytes
    ], ids=["short-header", "short-payload"])
    def test_truncated_file_is_format_error(self, tmp_path, blob):
        path = tmp_path / "t.stl"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_stl(path)


class TestStream:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_streamed_bytes_equal_written_mesh(self, tmp_path_factory, data):
        dims = tuple(data.draw(st.integers(1, 5)) for _ in range(3))
        bits = data.draw(st.lists(st.booleans(), min_size=int(np.prod(dims)),
                                  max_size=int(np.prod(dims))))
        grid = np.array(bits, dtype=bool).reshape(dims, order=data.draw(st.sampled_from("CF")))
        grid[tuple(data.draw(st.integers(0, n - 1)) for n in dims)] = True
        mask = Mask(grid, Spacing(*(data.draw(st.floats(0.05, 20.0)) for _ in range(3))))
        vertices, normals = surface_faces_walk(grid, mask.spacing.as_tuple())
        expected = np.zeros(len(vertices), dtype=TRIANGLE_RECORD)
        expected["vertices"] = vertices
        expected["normal"] = normals
        blob = STL_HEADER.ljust(80, b"\x00") + struct.pack("<I", len(expected)) + expected.tobytes()
        d = tmp_path_factory.mktemp("stream")
        # chunks of one to five faces put a boundary inside every direction block
        with mock.patch.object(biliseg.mesh, "_FILL_FACES", data.draw(st.integers(1, 5))):
            assert stream_stl(mask, d / "streamed.stl") == len(expected)
            write_stl(extract_surface_mesh(mask), d / "written.stl")
        assert (d / "streamed.stl").read_bytes() == blob
        assert (d / "written.stl").read_bytes() == blob

    def test_mesh_peak_memory_is_per_chunk(self, tmp_path):
        # isolated voxels: 6 faces each, 162,000 triangles (an 8.1 MB file)
        grid = np.indices((30, 30, 30)).sum(axis=0) % 2 == 0
        write_nifti(Mask(grid, SP), tmp_path / "m.nii")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["mesh", "--in", str(tmp_path / "m.nii"), "--out", str(tmp_path / "m.stl")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        triangles = 12 * int(grid.sum())
        assert len(read_stl(tmp_path / "m.stl")) == triangles
        # a whole mesh alone is 50 B per triangle; the face indices are 12
        assert peak < 25 * triangles
