import numpy as np
import pytest
from scipy import ndimage

from biliseg import core
from biliseg import (BBox, ConfigError, Connectivity, DegenerateInputError, GeometryError, Mask,
                     Spacing, Volume, bbox_of, connected_components)
from conftest import (face6_blob, neighbor_offsets, ordered_components, place_in_grid, random_mask,
                      union_find_components)

SP = Spacing(1.0, 1.0, 1.0)


def mask_of(coords, dims, spacing=SP):
    m = np.zeros(dims, dtype=bool)
    for c in coords:
        m[c] = True
    return Mask(m, spacing)


class TestSpacing:
    def test_values_kept(self):
        s = Spacing(1.094, 1.094, 1.5)
        assert s.as_tuple() == (1.094, 1.094, 1.5)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, float("nan")), (1, 1, float("inf"))])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(GeometryError):
            Spacing(*bad)


class TestVolume:
    def test_rejects_nan(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = np.nan
        with pytest.raises(GeometryError):
            Volume(data, SP)

    def test_rejects_wrong_rank(self):
        with pytest.raises(GeometryError):
            Volume(np.zeros((2, 2)), SP)

    @pytest.mark.parametrize("cls", [Volume, Mask])
    def test_rejects_a_zero_length_axis(self, cls):
        with pytest.raises(GeometryError, match=">= 1"):
            cls(np.zeros((2, 0, 2)), SP)

    def test_data_is_read_only(self):
        v = Volume(np.zeros((2, 2, 2)), SP)
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_every_grid_is_x_fastest_and_read_only(self):
        values = np.random.default_rng(5).normal(0, 3, (5, 4, 3))
        strided = np.zeros((10, 8, 6), np.float32)[::2, ::-2, 1::2]
        strided[...] = values
        for data in (values.astype(np.float32), np.asfortranarray(values, np.float32), strided, values):
            for cls, want in ((Volume, values.astype(np.float32)), (Mask, values.astype(bool))):
                grid = cls(data, SP).data
                assert grid.flags.f_contiguous and not grid.flags.c_contiguous
                assert not grid.flags.writeable and data.flags.writeable
                assert grid.dtype == want.dtype and np.array_equal(grid, want)


def full_labels(labels, box, dims) -> np.ndarray:
    """The box labels of ``connected_components`` placed on the whole grid."""
    full = np.zeros(dims, dtype=labels.dtype)
    full[box.slices()] = labels
    return full


def assert_matches_oracles(c_order, conn, offsets):
    """``connected_components`` of ``c_order``, C-ordered, F-ordered and as a
    strided view, against the union-find and ordered-labeling oracles."""
    expected = union_find_components(c_order, offsets)
    want, k = ordered_components(c_order, conn)
    strided = np.zeros(tuple(2 * n for n in c_order.shape), bool)[::2, ::-2, ::2]
    strided[...] = c_order
    for data in (c_order, np.asfortranarray(c_order), strided):
        mask = Mask(data, SP)
        labels, sizes, box = connected_components(mask, conn)
        assert box == (bbox_of(mask) if data.any() else BBox((0, 0, 0), tuple(n - 1 for n in data.shape)))
        assert len(sizes) - 1 == len(expected) == k
        assert np.array_equal(sizes, np.bincount(labels.ravel(), minlength=k + 1))
        full = full_labels(labels, box, data.shape)
        groups: dict[int, set] = {}
        for p in map(tuple, np.argwhere(data)):
            groups.setdefault(int(full[p]), set()).add(p)
        assert 0 not in groups
        assert set(map(frozenset, groups.values())) == set(expected)
        assert not full[~data].any()
        # numbered by first voxel in x-fastest order
        flat = full.ravel(order="F")
        assert list(dict.fromkeys(flat[flat > 0].tolist())) == list(range(1, k + 1))
        # so a stable sort by decreasing size gives the ordered labels
        by_size = np.zeros(k + 1, dtype=np.int32)
        by_size[np.argsort(-sizes[1:], kind="stable") + 1] = np.arange(1, k + 1)
        assert np.array_equal(by_size[full], want)
        # a labeling pass, on either route, and an empty mask give int32
        # labels as an x-fastest view
        if labels.dtype != np.uint8:
            assert labels.dtype == np.int32 and labels.flags.f_contiguous


class TestConnectedComponents:
    def test_empty_mask(self):
        labels, sizes, box = connected_components(Mask(np.zeros((3, 3, 3), bool), SP))
        assert len(sizes) - 1 == 0
        assert box == BBox((0, 0, 0), (2, 2, 2))
        assert not labels.any()

    def test_corner_touch(self):
        m = mask_of([(0, 0, 0), (1, 1, 1)], (3, 3, 3))
        assert len(connected_components(m, Connectivity.FACE6)[1]) - 1 == 2
        assert len(connected_components(m, Connectivity.VERTEX26)[1]) - 1 == 1

    def test_edge_touch(self):
        m = mask_of([(0, 0, 0), (1, 1, 0)], (3, 3, 3))
        assert len(connected_components(m, Connectivity.FACE6)[1]) - 1 == 2
        assert len(connected_components(m, Connectivity.EDGE18)[1]) - 1 == 1

    def test_full_grid(self):
        m = Mask(np.ones((4, 5, 3), bool), SP)
        labels, sizes, box = connected_components(m)
        assert box == BBox((0, 0, 0), (3, 4, 2))
        assert (labels == 1).all()
        assert list(sizes) == [0, 4 * 5 * 3]

    def test_tie_broken_by_first_linear_index(self):
        # two single-voxel components; x-fastest order decides labels
        m = mask_of([(3, 0, 0), (0, 1, 0)], (4, 4, 1))
        labels, _, box = connected_components(m, Connectivity.FACE6)
        full = full_labels(labels, box, m.dims)
        assert full[3, 0, 0] == 1  # linear index 3 < 4
        assert full[0, 1, 0] == 2

    def test_count_monotone_in_connectivity(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = Mask(random_mask(rng, (6, 6, 3), p=0.4, nonempty=False), SP)
            c26 = len(connected_components(m, Connectivity.VERTEX26)[1])
            c18 = len(connected_components(m, Connectivity.EDGE18)[1])
            c6 = len(connected_components(m, Connectivity.FACE6)[1])
            assert c26 <= c18 <= c6

    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_matches_union_find_oracle(self, conn):
        rng = np.random.default_rng(int(conn))
        offsets = neighbor_offsets(conn)
        grids = [np.zeros((9, 9, 5), bool)]
        for _ in range(200):
            drawn = random_mask(rng, (6, 6, 3), p=rng.uniform(0.15, 0.6), nonempty=False)
            # the drawn grid, which its foreground nearly always spans, and the
            # same mask as a strict sub-box of a larger empty grid
            grids += [drawn, place_in_grid(rng, drawn, (9, 9, 5))]
        # one FACE6 component each, which EDGE18 and VERTEX26 label without a pass
        for _ in range(30):
            blob = face6_blob(rng, (6, 6, 3), int(rng.integers(1, 60)))
            grids += [blob, place_in_grid(rng, blob, (9, 9, 5))]
        # 2-voxel bars: every voxel has a FACE6 neighbour, yet FACE6 finds two
        # components; touching along an edge, EDGE18 and VERTEX26 find one,
        # a voxel apart, two
        touching, apart = np.zeros((2, 2, 2), bool), np.zeros((2, 3, 3), bool)
        touching[:, 0, 0] = touching[:, 1, 1] = True
        apart[:, 0, 0] = apart[:, 2, 2] = True
        grids += [touching, place_in_grid(rng, touching, (9, 9, 5)), apart, place_in_grid(rng, apart, (9, 9, 5))]
        for c_order in grids:
            assert_matches_oracles(c_order, conn, offsets)

    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_sparse_masks_match_the_oracles(self, conn):
        # foreground boxes with well over _SPARSE_RATIO voxels per foreground
        # voxel, which are labeled from their voxel lists
        rng = np.random.default_rng(100 + int(conn))
        offsets = neighbor_offsets(conn)
        grids = []
        for _ in range(30):
            grid = random_mask(rng, tuple(int(n) for n in rng.integers(14, 24, 3)), p=rng.uniform(0.002, 0.015))
            grid[0, 0, 0] = grid[-1, -1, -1] = True  # the box is the grid
            grids += [grid, place_in_grid(rng, grid, tuple(n + 3 for n in grid.shape))]
        # voxels that are neighbours in linear order only: x = nx-1 and x = 0
        # of the next row (and of the same row), y = ny-1 and y = 0 of the
        # next plane (and of the same plane), with the corners spanning the grid
        wraps = np.zeros((10, 9, 8), bool)
        for p in [(0, 0, 0), (9, 8, 7), (9, 3, 4), (0, 4, 4), (0, 6, 4), (9, 6, 4), (9, 2, 1), (0, 4, 1),
                  (4, 8, 2), (4, 0, 3), (6, 0, 6), (6, 8, 6), (2, 8, 5), (3, 0, 6)]:
            wraps[p] = True
        # voxels without a neighbour, so no pairs at all
        isolated = np.zeros((19, 19, 19), bool)
        isolated[::6, ::6, ::6] = True
        # one long path: rows g apart in y joined at alternate x ends, planes
        # g apart in z joined at alternate corners
        g = 10
        serpentine = np.zeros((40, 4 * g + 1, 4 * g + 1), bool)
        for z in range(0, 4 * g + 1, g):
            serpentine[:, ::g, z] = True
            for y in range(0, 4 * g, g):
                serpentine[39 if y // g % 2 == 0 else 0, y:y + g + 1, z] = True
            if z < 4 * g:
                x, y = (39, 4 * g) if z // g % 2 == 0 else (0, 0)
                serpentine[x, y, z:z + g + 1] = True
        # random walks of VERTEX26 steps: components of many voxels, in no
        # particular x-fastest order, where union-find builds deep trees
        steps = np.array(neighbor_offsets(Connectivity.VERTEX26))
        for _ in range(3):
            walk, here = np.zeros((36, 36, 36), bool), np.array([18, 18, 18])
            for step in steps[rng.integers(len(steps), size=1500)]:
                here = np.clip(here + step, 0, 35)
                walk[tuple(here)] = True
            walk[0, 0, 0] = walk[-1, -1, -1] = True
            grids.append(walk)
        grids += [wraps, isolated, serpentine]
        for grid in grids:
            assert np.count_nonzero(grid) * core._SPARSE_RATIO < grid[bbox_of(Mask(grid, SP)).slices()].size
            assert_matches_oracles(grid, conn, offsets)
        assert connected_components(Mask(wraps, SP), conn)[1].tolist() == [wraps.size - 14] + [1] * 14
        if not conn.in_slice:
            n = int(serpentine.sum())
            assert connected_components(Mask(serpentine, SP), conn)[1].tolist() == [serpentine.size - n, n]

    def test_sparse_labeling_without_pairs(self):
        # one voxel, and voxels with no neighbour, inside a larger box
        for coords in ([(3, 4, 5)], [(0, 0, 0), (2, 2, 2), (9, 0, 0), (0, 9, 9), (5, 5, 0)]):
            crop = mask_of(coords, (10, 10, 10)).data
            for conn in Connectivity:
                raw, k = ndimage.label(crop.T, structure=conn.structure().T)
                labels, sizes = core._label_sparse(crop, conn)
                assert k == len(coords)
                assert labels.dtype == np.int32 and labels.flags.f_contiguous
                assert np.array_equal(labels, raw.T) and np.array_equal(sizes, np.bincount(raw.ravel()))

    def test_one_labeling_per_mask(self, monkeypatch):
        # the neighbour count of each structure ndimage.label is called with
        calls = []
        label = ndimage.label

        def spy(data, structure):
            calls.append(int(np.count_nonzero(structure)) - 1)
            return label(data, structure=structure)

        monkeypatch.setattr(ndimage, "label", spy)
        # a noisy band has voxels without a FACE6 neighbour: straight to VERTEX26
        band = np.random.default_rng(3).random((24, 20, 8))
        _, sizes, _ = connected_components(Mask((band > 0.4) & (band < 0.7), SP))
        assert calls == [26] and len(sizes) > 2
        # a sparse mask of many components is labeled from its voxel list
        calls.clear()
        _, sizes, _ = connected_components(Mask(np.random.default_rng(5).random((40, 40, 20)) < 0.01, SP))
        assert calls == [] and len(sizes) > 2
        # one FACE6 component: one FACE6 labeling proves it, no VERTEX26 pass.
        # A full 128x128 plane pierced by a spur: the spur's end voxels have
        # their one FACE6 neighbour in the plane before or after theirs, which
        # the scan may hold in another slab
        comb = np.zeros((5, 128, 128), bool)
        comb[2] = comb[:, 5, 7] = True
        blob = face6_blob(np.random.default_rng(4), (12, 10, 6), 200)
        for data in (comb, np.asfortranarray(comb.T), blob):
            calls.clear()
            mask = Mask(data, SP)
            labels, sizes, box = connected_components(mask)
            assert calls == [6]
            assert list(sizes) == [labels.size - mask.count(), mask.count()]
            assert labels.dtype == np.uint8 and np.array_equal(labels, data[box.slices()])


class TestBBox:
    def test_single_voxel_no_margin(self):
        m = mask_of([(3, 4, 5)], (10, 10, 10))
        box = bbox_of(m)
        assert box.lo == (3, 4, 5) and box.hi == (3, 4, 5)

    def test_margin_arithmetic(self):
        m = mask_of([(3, 4, 5)], (10, 10, 10))
        box = bbox_of(m, margin=2)
        assert box.lo == (1, 2, 3) and box.hi == (5, 6, 7)

    def test_margin_clamped_at_corner(self):
        m = mask_of([(0, 0, 0)], (4, 4, 4))
        box = bbox_of(m, margin=5)
        assert box.lo == (0, 0, 0) and box.hi == (3, 3, 3)

    def test_empty_mask_rejected(self):
        with pytest.raises(DegenerateInputError):
            bbox_of(Mask(np.zeros((3, 3, 3), bool), SP))

    def test_lo_past_hi_rejected(self):
        with pytest.raises(GeometryError, match="degenerate box"):
            BBox((0, 3, 0), (2, 2, 2))

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError):
            bbox_of(mask_of([(1, 1, 1)], (3, 3, 3)), margin=-1)

    @pytest.mark.parametrize("layout", ["C", "F", "sliced", "reversed", "step-2"])
    def test_matches_argwhere_oracle(self, layout):
        rng = np.random.default_rng(11)
        views = {"C": lambda g: g, "F": np.asfortranarray, "sliced": lambda g: g[1:-2, 2:, :-1],
                 "reversed": lambda g: g[::-1, :, ::-1], "step-2": lambda g: g[::2, 1::2, ::-2]}
        grids = [random_mask(rng, (9, 8, 7), p=p) for p in (0.002, 0.02, 0.3)]
        for corner in np.ndindex(2, 2, 2):  # single voxels at the grid corners
            grid = np.zeros((9, 8, 7), bool)
            grid[tuple(c * (n - 1) for c, n in zip(corner, grid.shape))] = True
            grids.append(grid)
        for grid in grids:
            data = views[layout](grid)
            if not data.any():
                continue
            points = np.argwhere(data)
            for margin in (0, 1, 20):
                box = bbox_of(Mask(data, SP), margin=margin)
                assert box.lo == tuple(int(v) for v in np.maximum(points.min(axis=0) - margin, 0))
                assert box.hi == tuple(int(v) for v in np.minimum(points.max(axis=0) + margin,
                                                                  np.array(data.shape) - 1))
        with pytest.raises(DegenerateInputError):
            bbox_of(Mask(views[layout](np.zeros((9, 8, 7), bool)), SP))
        with pytest.raises(ConfigError):
            bbox_of(Mask(views[layout](grids[-1]), SP), margin=-1)

    def test_slices_cover_foreground(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data = random_mask(rng, (8, 7, 5), p=0.2)
            m = Mask(data, SP)
            box = bbox_of(m, margin=int(rng.integers(0, 3)))
            assert data[box.slices()].sum() == data.sum()


class TestConnectivityStructure:
    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_structure_is_centrosymmetric(self, conn):
        s = conn.structure()
        assert s[1, 1, 1]
        assert (s == s[::-1, ::-1, ::-1]).all()

    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_structure_matches_the_named_steps(self, conn):
        expected = np.zeros((3, 3, 3), dtype=bool)
        expected[1, 1, 1] = True
        for d in neighbor_offsets(conn):
            expected[tuple(np.add(d, 1))] = True
        s = conn.structure()
        assert s.dtype == bool and s.shape == (3, 3, 3)
        assert np.array_equal(s, expected)

    def test_offset_counts_match_names(self):
        for conn in Connectivity:
            assert conn.structure().sum() - 1 == int(conn)

    def test_in_slice_offsets_have_no_z(self):
        for conn in (Connectivity.EDGE4, Connectivity.VERTEX8):
            assert not conn.structure()[:, :, [0, 2]].any()
