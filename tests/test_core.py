import numpy as np
import pytest

from biliseg import (BoundsError, ConfigError, Connectivity, DegenerateInputError,
                     GeometryError, Mask, Spacing, Volume, bbox_of, connected_components,
                     index_from_linear, linear_index, voxel_to_world)
from biliseg.core import label_components
from conftest import ordered_components, random_mask, union_find_components

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

    def test_data_is_read_only(self):
        v = Volume(np.zeros((2, 2, 2)), SP)
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0


class TestVoxelToWorld:
    def test_origin(self):
        assert voxel_to_world((0, 0, 0), Spacing(1.094, 1.094, 1.5)) == (0.0, 0.0, 0.0)

    def test_in_plane_step(self):
        x, y, z = voxel_to_world((1, 0, 0), Spacing(1.094, 1.094, 1.5))
        assert (x, y, z) == (1.094, 0.0, 0.0)

    def test_through_plane_step(self):
        assert voxel_to_world((0, 0, 2), Spacing(0.664, 0.664, 2.0)) == (0.0, 0.0, 4.0)

    def test_out_of_bounds(self):
        with pytest.raises(BoundsError):
            voxel_to_world((5, 0, 0), SP, dims=(4, 4, 4))
        with pytest.raises(BoundsError):
            voxel_to_world((-1, 0, 0), SP)


class TestLinearIndex:
    def test_round_trip_exhaustive(self):
        dims = (4, 3, 5)
        seen = set()
        for ix in range(4):
            for iy in range(3):
                for iz in range(5):
                    lin = linear_index((ix, iy, iz), dims)
                    assert index_from_linear(lin, dims) == (ix, iy, iz)
                    seen.add(lin)
        assert seen == set(range(4 * 3 * 5))

    def test_x_fastest(self):
        dims = (4, 3, 5)
        assert linear_index((1, 0, 0), dims) == 1
        assert linear_index((0, 1, 0), dims) == 4
        assert linear_index((0, 0, 1), dims) == 12


class TestConnectedComponents:
    def test_empty_mask(self):
        labels = connected_components(Mask(np.zeros((3, 3, 3), bool), SP))
        assert labels.num_components == 0
        assert not labels.data.any()

    def test_corner_touch(self):
        m = mask_of([(0, 0, 0), (1, 1, 1)], (3, 3, 3))
        assert connected_components(m, Connectivity.FACE6).num_components == 2
        assert connected_components(m, Connectivity.VERTEX26).num_components == 1

    def test_edge_touch(self):
        m = mask_of([(0, 0, 0), (1, 1, 0)], (3, 3, 3))
        assert connected_components(m, Connectivity.FACE6).num_components == 2
        assert connected_components(m, Connectivity.EDGE18).num_components == 1

    def test_full_grid(self):
        m = Mask(np.ones((4, 5, 3), bool), SP)
        labels = connected_components(m)
        assert labels.num_components == 1
        assert (labels.data == 1).all()
        assert labels.component_sizes()[0] == 4 * 5 * 3

    def test_labels_ordered_by_size(self):
        m = np.zeros((12, 4, 1), bool)
        m[0:5, 0, 0] = True   # size 5
        m[7:9, 0, 0] = True   # size 2
        m[11, 0, 0] = True    # size 1
        labels = connected_components(Mask(m, SP), Connectivity.FACE6)
        assert labels.num_components == 3
        sizes = labels.component_sizes()
        assert list(sizes) == [5, 2, 1]
        assert labels.data[0, 0, 0] == 1
        assert labels.data[7, 0, 0] == 2
        assert labels.data[11, 0, 0] == 3

    def test_tie_broken_by_first_linear_index(self):
        # two single-voxel components; x-fastest order decides labels
        m = mask_of([(3, 0, 0), (0, 1, 0)], (4, 4, 1))
        labels = connected_components(Mask(m.data, SP), Connectivity.FACE6)
        assert labels.data[3, 0, 0] == 1  # linear index 3 < 4
        assert labels.data[0, 1, 0] == 2

    def test_count_monotone_in_connectivity(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = Mask(random_mask(rng, (6, 6, 3), p=0.4, nonempty=False), SP)
            c26 = connected_components(m, Connectivity.VERTEX26).num_components
            c18 = connected_components(m, Connectivity.EDGE18).num_components
            c6 = connected_components(m, Connectivity.FACE6).num_components
            assert c26 <= c18 <= c6

    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_matches_union_find_oracle(self, conn):
        rng = np.random.default_rng(int(conn))
        offsets = [tuple(o) for o in conn.offsets()]
        for _ in range(200):
            c_order = random_mask(rng, (6, 6, 3), p=rng.uniform(0.15, 0.6), nonempty=False)
            expected = union_find_components(c_order, offsets)
            want, k = ordered_components(c_order, conn)
            for data in (c_order, np.asfortranarray(c_order)):
                labels = connected_components(Mask(data, SP), conn)
                assert labels.num_components == len(expected) == k
                groups: dict[int, set] = {}
                for p in map(tuple, np.argwhere(data)):
                    groups.setdefault(int(labels.data[p]), set()).add(p)
                assert 0 not in groups
                assert set(map(frozenset, groups.values())) == set(expected)
                # same partition, and the same label on each component
                assert np.array_equal(labels.data, want)
                # raw numbering: by first voxel in x-fastest order, same partition
                raw, sizes = label_components(Mask(data, SP), conn)
                flat = raw.ravel(order="F")
                assert list(dict.fromkeys(flat[flat > 0].tolist())) == list(range(1, k + 1))
                assert np.array_equal(sizes, np.bincount(flat, minlength=k + 1))
                assert len(set(zip(raw[data].tolist(), want[data].tolist()))) == k
                assert not raw[~data].any()


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

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError):
            bbox_of(mask_of([(1, 1, 1)], (3, 3, 3)), margin=-1)

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

    def test_offset_counts_match_names(self):
        for conn in Connectivity:
            assert len(conn.offsets()) == int(conn)

    def test_in_slice_offsets_have_no_z(self):
        for conn in (Connectivity.EDGE4, Connectivity.VERTEX8):
            assert (conn.offsets()[:, 2] == 0).all()


class TestLinearIndexBounds:
    def test_linear_index_out_of_bounds(self):
        with pytest.raises(BoundsError):
            linear_index((4, 0, 0), (4, 3, 5))

    def test_index_from_linear_out_of_bounds(self):
        with pytest.raises(BoundsError):
            index_from_linear(60, (4, 3, 5))
        with pytest.raises(BoundsError):
            index_from_linear(-1, (4, 3, 5))
