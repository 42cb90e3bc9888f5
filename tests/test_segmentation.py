import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from biliseg import (BoundsError, ConfigError, Connectivity, DegenerateInputError,
                     FloodFillConfig, KeepLargest, KeepSeeded, Mask, MinSize, PreprocessParams,
                     RegionGrowConfig, Spacing, ThresholdConfig, Volume, dual_threshold,
                     dynamic_crop, flood_fill, percentile_stretch, postprocess, region_grow,
                     sauvola_threshold_field)
from biliseg.phantom import PhantomParams, TubeSegment, rasterize_tree, render_intensities
from biliseg.core import BBox, GrownMask, connected_components, embed_mask
from biliseg.metrics import topology_report
from biliseg.segmentation import grow_from_seed
from conftest import (flood_fill_bfs, neighbor_offsets, ordered_components, reachable_bfs,
                      sauvola_threshold)

SP = Spacing(1.0, 1.0, 1.0)


def vol(data, spacing=SP):
    return Volume(np.asarray(data, np.float32), spacing)


class TestDualThreshold:
    def test_band_semantics(self):
        v = vol(np.array([40.0, 50.0, 60.0, 60.5]).reshape(4, 1, 1))
        m = dual_threshold(v, ThresholdConfig(40.0, 60.0))
        # strict lower bound, inclusive upper bound
        assert m.data[:, 0, 0].tolist() == [False, True, True, False]

    def test_matches_per_voxel_band_check(self):
        rng = np.random.default_rng(20)
        # intensities drawn from a small integer set so thresholds hit values exactly
        for _ in range(50):
            data = rng.integers(0, 12, (8, 8, 2)).astype(np.float32) * 10.0
            t_min, t_max = sorted(rng.choice(np.arange(0, 121, 10.0), 2, replace=False))
            v = vol(data)
            m = dual_threshold(v, ThresholdConfig(float(t_min), float(t_max)))
            for ix in range(8):
                for iy in range(8):
                    for iz in range(2):
                        f = data[ix, iy, iz]
                        assert m.data[ix, iy, iz] == (t_min < f <= t_max)

    def test_per_slice_override(self):
        data = np.full((2, 2, 3), 50.0, np.float32)
        cfg = ThresholdConfig(40.0, 60.0, per_slice_overrides={1: (55.0, 70.0)})
        m = dual_threshold(vol(data), cfg)
        assert m.data[:, :, 0].all() and m.data[:, :, 2].all()
        assert not m.data[:, :, 1].any()  # 50 <= 55 on the overridden slice

    def test_bound_past_float32_range(self):
        # each bound casts to +-inf against the float32 data, silently, and
        # selects what the float64 bound would
        data = np.array([-3.0e38, -1.0, 5.0, 6.0, 3.0e38], np.float32).reshape(5, 1, 1)
        for t_min, t_max, overrides in ((5.0, 1.7976931348623157e308, None), (-1e39, 5.0, None),
                                        (-2.0, 0.0, {0: (5.0, 1e300)})):
            m = dual_threshold(vol(data), ThresholdConfig(t_min, t_max, per_slice_overrides=overrides))
            lo, hi = overrides[0] if overrides else (t_min, t_max)
            assert m.data[:, 0, 0].tolist() == [lo < float(f) <= hi for f in data[:, 0, 0]]

    def test_override_out_of_range_slice(self):
        cfg = ThresholdConfig(40.0, 60.0, per_slice_overrides={7: (41.0, 61.0)})
        with pytest.raises(ConfigError):
            dual_threshold(vol(np.zeros((2, 2, 3))), cfg)

    def test_overrides_are_a_copy_in_ascending_slice_order(self):
        overrides = {3: (10.0, 20.0), 1: (5.0, 6.0)}
        cfg = ThresholdConfig(0.0, 255.0, overrides)
        overrides[5] = (9.0, 1.0)  # an invalid pair the frozen config must not see
        assert list(cfg.per_slice_overrides.items()) == [(1, (5.0, 6.0)), (3, (10.0, 20.0))]
        assert ThresholdConfig(0.0, 255.0, None).per_slice_overrides == {}

    def test_invalid_band(self):
        with pytest.raises(ConfigError):
            ThresholdConfig(60.0, 40.0)
        with pytest.raises(ConfigError):
            ThresholdConfig(0.0, 10.0, per_slice_overrides={0: (5.0, 5.0)})


class TestFloodFill:
    def test_unique_seed_tolerance_zero(self):
        data = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
        m = flood_fill(vol(data), FloodFillConfig(seed=(1, 1, 1), tolerance=0.0))
        assert m.count() == 1 and m.data[1, 1, 1]

    def test_saturating_tolerance_fills_grid(self):
        rng = np.random.default_rng(21)
        data = rng.uniform(0, 100, (5, 6, 4)).astype(np.float32)
        m = flood_fill(vol(data), FloodFillConfig(seed=(0, 0, 0), tolerance=200.0))
        assert m.count() == 5 * 6 * 4

    def test_seed_out_of_bounds(self):
        with pytest.raises(BoundsError):
            flood_fill(vol(np.zeros((4, 4, 4))), FloodFillConfig(seed=(4, 0, 0), tolerance=1.0))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            FloodFillConfig(seed=(0, 0, 0), tolerance=-1.0)

    @pytest.mark.parametrize("dims", [(16, 16, 1), (8, 8, 4)])
    @pytest.mark.parametrize("conn", list(Connectivity))
    def test_matches_bfs_oracle(self, dims, conn):
        rng = np.random.default_rng(hash((dims, int(conn))) % 2**32)
        offsets = neighbor_offsets(conn)
        for _ in range(50):
            data = rng.integers(0, 8, dims).astype(np.float32) * 10.0
            seed = tuple(int(rng.integers(0, n)) for n in dims)
            tol = float(rng.choice([0.0, 10.0, 20.0, 35.0]))
            got = flood_fill(vol(data), FloodFillConfig(seed=seed, tolerance=tol, connectivity=conn))
            expected = flood_fill_bfs(data, seed, tol, offsets)
            assert {tuple(p) for p in np.argwhere(got.data)} == expected
            self._assert_invariants(got, data, seed, tol, offsets)

    @staticmethod
    def _assert_invariants(mask, data, seed, tol, offsets):
        dims = data.shape
        sv = float(data[seed])
        # (a) seed belongs
        assert mask.data[seed]
        # (b) connected under the fill connectivity
        from conftest import union_find_components
        groups = union_find_components(mask.data, offsets)
        assert len(groups) == 1
        # (c) all members within tolerance of the seed intensity
        assert (np.abs(data[mask.data].astype(np.float64) - sv) <= tol).all()
        # (d) maximality: no unfilled neighbor of the region qualifies
        for p in map(tuple, np.argwhere(mask.data)):
            for off in offsets:
                q = tuple(p[i] + off[i] for i in range(3))
                if all(0 <= c < n for c, n in zip(q, dims)) and not mask.data[q]:
                    assert abs(float(data[q]) - sv) > tol

    def test_in_slice_connectivity_restricts_to_one_slice(self):
        data = np.zeros((4, 4, 3), np.float32)
        m = flood_fill(vol(data), FloodFillConfig(seed=(1, 1, 1), tolerance=5.0,
                                                  connectivity=Connectivity.EDGE4))
        assert m.data[:, :, 1].all()
        assert not m.data[:, :, 0].any() and not m.data[:, :, 2].any()


Z_STEPS = [(0, 0, 1), (0, 0, -1)]


@st.composite
def growth_cases(draw):
    """A small allowed map (1-voxel dimensions included), a seed that lies
    inside or outside it, and one connectivity's structure with or without
    the +-z cells set, with the steps that structure stands for."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    bits = draw(st.lists(st.booleans(), min_size=int(np.prod(dims)), max_size=int(np.prod(dims))))
    allowed = np.array(bits, dtype=bool).reshape(dims)
    seed = tuple(draw(st.integers(0, n - 1)) for n in dims)
    allowed[seed] = draw(st.booleans())
    conn = draw(st.sampled_from(list(Connectivity)))
    structure, offsets = conn.structure(), neighbor_offsets(conn)
    if draw(st.booleans()):
        structure[1, 1, [0, 2]] = True
        offsets = offsets + Z_STEPS
    return allowed, seed, structure, offsets


class TestGrowFromSeed:
    @settings(max_examples=300, deadline=None)
    @given(growth_cases())
    def test_matches_bfs_reachability(self, case):
        allowed, seed, structure, offsets = case
        want = reachable_bfs(allowed, seed, offsets)
        for order in "CF":  # a fresh C- or F-ordered map, which the engine takes over
            given = allowed.copy(order=order)
            got = grow_from_seed(given, seed, structure)
            assert got is given
            assert {tuple(p) for p in np.argwhere(got)} == want


class TestSauvola:
    def test_uniform_window_exact(self):
        s = np.full((5, 5), 100.0)
        t = sauvola_threshold_field(s, k=0.3, R=100.0, window=3)[2, 2]
        assert t == 100.0 * (1.0 - 0.3)

    def test_single_bright_center(self):
        s = np.zeros((3, 3))
        s[1, 1] = 255.0
        t = sauvola_threshold_field(s, k=0.3, R=100.0, window=3)[1, 1]
        m = 255.0 / 9.0
        var = (8 * m ** 2 + (255.0 - m) ** 2) / 9.0
        expected = m * (1.0 + 0.3 * (np.sqrt(var) / 100.0 - 1.0))
        assert t == pytest.approx(expected, abs=1e-6)

    def test_k_zero_returns_window_mean(self):
        rng = np.random.default_rng(22)
        s = rng.uniform(0, 255, (7, 7))
        t = sauvola_threshold_field(s, k=0.0, R=100.0, window=3)[3, 3]
        assert t == pytest.approx(float(s[2:5, 2:5].mean()), rel=1e-12)

    def test_border_window_clipped(self):
        s = np.arange(16, dtype=np.float64).reshape(4, 4)
        t = sauvola_threshold_field(s, k=0.3, R=100.0, window=3)[0, 0]
        w = s[0:2, 0:2]
        expected = w.mean() * (1.0 + 0.3 * (w.std() / 100.0 - 1.0))
        assert t == pytest.approx(expected, rel=1e-12)

    def test_field_matches_scalar_everywhere(self):
        rng = np.random.default_rng(23)
        for window in (3, 5):
            s = rng.uniform(0, 255, (9, 6))
            field = sauvola_threshold_field(s, 0.3, 100.0, window)
            for x in range(9):
                for y in range(6):
                    assert field[x, y] == pytest.approx(
                        sauvola_threshold(s, x, y, 0.3, 100.0, window), abs=1e-9)

    def test_window_beyond_the_slice_covers_it_whole(self):
        s = np.random.default_rng(5).uniform(0, 255, (9, 6))
        whole = sauvola_threshold_field(s, 0.3, 100.0, 19)
        for window in (10**6 + 1, 2**63 + 1, 10**30 + 1):
            assert (sauvola_threshold_field(s, 0.3, 100.0, window) == whole).all()
        assert whole[4, 2] == pytest.approx(sauvola_threshold(s, 4, 2, 0.3, 100.0, 10**30 + 1), abs=1e-9)

    def test_field_has_the_slice_layout(self):
        # region growing compares each x-fastest slice against its field, so
        # the field of such a slice must be x-fastest too
        grid = np.asfortranarray(np.random.default_rng(8).uniform(0, 255, (9, 7, 3)))
        field = sauvola_threshold_field(grid[:, :, 1], 0.3, 100.0, 5)
        assert field.shape == (9, 7) and field.flags.f_contiguous

    def test_field_bytes_are_pinned(self):
        # the oracles above are approximate; this hash guards every last bit of
        # the field over C and F layouts, 1-px sides, a strided float32 slice,
        # few-level values and a window wider than every slice
        rng = np.random.default_rng(16)
        slices = [rng.uniform(0, 255, (13, 8)),
                  np.asfortranarray(rng.uniform(0, 255, (7, 11))),
                  rng.uniform(0, 255, (1, 9)),
                  rng.uniform(0, 255, (6, 1)),
                  rng.integers(0, 4, (10, 10)) * 60.0,
                  rng.uniform(0, 255, (9, 7, 3)).astype(np.float32)[:, :, 1]]
        digest = hashlib.sha256()
        for s in slices:
            for window, k, R in ((3, 0.3, 100.0), (5, 0.2, 128.0), (9, 0.5, 64.0), (41, 0.3, 100.0)):
                digest.update(sauvola_threshold_field(s, k, R, window).tobytes())
        assert digest.hexdigest() == "ee37753d20c6e7bc62abbcd566a7e49b15ecf1b3008220bd90b431460732ebde"

    def test_overflowing_field_bytes_are_pinned(self):
        # a subnormal R makes s / R inf in some windows only: the same slice
        # kinds, with non-negative values over twenty decades, so that no
        # threshold is 0 * inf
        rng = np.random.default_rng(16)

        def values(shape):
            return rng.uniform(0, 255, shape) * 10.0 ** -rng.integers(0, 20, shape)

        slices = [values((13, 8)),
                  np.asfortranarray(values((7, 11))),
                  values((1, 9)),
                  values((6, 1)),
                  rng.integers(0, 4, (10, 10)) * 10.0 ** -rng.integers(0, 20, (10, 10)),
                  values((9, 7, 3)).astype(np.float32)[:, :, 1]]
        digest = hashlib.sha256()
        inf = size = 0
        for s in slices:
            for window, k, R in ((3, 0.3, 5e-324), (5, 0.2, 1e-310), (9, 0.5, 2.2e-308), (41, 0.3, 1e-310)):
                field = sauvola_threshold_field(s, k, R, window)
                inf += int(np.isinf(field).sum())
                size += field.size
                digest.update(field.tobytes())
        assert 0 < inf < size  # both finite and inf thresholds
        assert digest.hexdigest() == "c694800e34ece8a294ca4f19478759df785e27fdeea5e814ee79dc1f40d20e37"


def straight_tube_case(dims=(24, 24, 8), spacing=Spacing(1, 1, 1.5), radius=3.0,
                       fg=200.0, bg=10.0):
    cx = (dims[0] - 1) / 2.0 * spacing.dx
    cy = (dims[1] - 1) / 2.0 * spacing.dy
    z_top = dims[2] * spacing.dz + 2.0
    tree = (TubeSegment((cx, cy, -2.0), (cx, cy, z_top), radius, -1),)
    truth = rasterize_tree(tree, dims, spacing)
    params = PhantomParams(dims=dims, spacing=spacing, root=(cx, cy, -2.0),
                           root_direction=(0, 0, 1), segment_length=z_top + 2.0,
                           radius_root=radius, fg_mean=fg, bg_mean=bg,
                           noise_std=0.0, rng_seed=1)
    volume = render_intensities(truth, params)
    seed = (dims[0] // 2, dims[1] // 2, dims[2] // 2)
    assert truth.data[seed]
    return volume, truth, seed


class TestRegionGrow:
    def test_saturated_volume_fills_grid(self):
        v = vol(np.full((6, 6, 3), 255.0))
        m = region_grow(v, RegionGrowConfig(seed=(2, 2, 1)))
        assert m.count() == 6 * 6 * 3

    def test_tube_recovered_across_slices(self):
        volume, truth, seed = straight_tube_case()
        m = region_grow(volume, RegionGrowConfig(seed=seed))
        assert (m.data == truth.data).all()
        for z in range(truth.dims[2]):
            assert m.data[:, :, z].any()

    def test_propagation_switch_confines_to_seed_slice(self):
        volume, truth, seed = straight_tube_case()
        m = region_grow(volume, RegionGrowConfig(seed=seed, propagate_slices=False))
        off_slice = m.data.copy()
        off_slice[:, :, seed[2]] = False
        assert not off_slice.any()
        assert (m.data[:, :, seed[2]] == truth.data[:, :, seed[2]]).all()

    def test_seed_always_included(self):
        # checkerboard: dark cells sit below their local threshold, yet the
        # dark seed must be in the mask
        x, y = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        board = np.where((x + y) % 2 == 0, 0.0, 255.0)[:, :, None].astype(np.float32)
        v = vol(board)
        seed = (2, 2, 0)
        assert board[seed] == 0.0
        m = region_grow(v, RegionGrowConfig(seed=seed, propagate_slices=False))
        assert m.data[seed]
        # growth continues through the bright neighbors only
        assert m.data[1, 2, 0] and m.data[3, 2, 0] and m.data[2, 1, 0] and m.data[2, 3, 0]
        assert not m.data[0, 0, 0]

    def test_requires_normalized_range(self):
        v = vol(np.full((4, 4, 2), 300.0))
        with pytest.raises(ConfigError):
            region_grow(v, RegionGrowConfig(seed=(0, 0, 0)))

    def test_deterministic(self):
        volume, _, seed = straight_tube_case()
        a = region_grow(volume, RegionGrowConfig(seed=seed))
        b = region_grow(volume, RegionGrowConfig(seed=seed))
        assert (a.data == b.data).all()

    def test_matches_slicewise_fixpoint_reference(self):
        rng = np.random.default_rng(24)
        runs = [(_smooth_random_volume, Connectivity.EDGE4), (_smooth_random_volume, Connectivity.VERTEX8),
                (_speckled_volume, Connectivity.EDGE4), (_speckled_volume, Connectivity.VERTEX8)]
        for make_volume, conn in runs:
            for case in range(6):
                data = make_volume(rng, (10, 9, 5))
                seed = tuple(int(rng.integers(0, n)) for n in data.shape)
                propagate = case % 2 == 0
                cfg = RegionGrowConfig(seed=seed, in_slice_connectivity=conn,
                                       propagate_slices=propagate)
                got = region_grow(vol(data), cfg)
                want = _region_grow_reference(data, seed, 0.3, 100.0, 3, propagate, conn)
                assert (got.data == want).all()

    def test_same_mask_bytes_in_every_layout(self):
        # C, F (as read_nifti gives) and cropped (as dynamic_crop gives)
        # inputs grow the same mask, stored x-fastest
        rng = np.random.default_rng(27)
        data = rng.uniform(0, 60, (14, 11, 6)).astype(np.float32)
        data[4:10, 3:8, 1:5] += 150.0  # a bright block for the crop to find
        stretched = percentile_stretch(Volume(np.asfortranarray(data), SP))
        cropped, _ = dynamic_crop(stretched, PreprocessParams(crop_percentile=80.0, crop_margin=1))
        assert cropped.data.flags.f_contiguous and cropped.dims != stretched.dims
        for volume in (stretched, cropped):
            seed = np.unravel_index(np.argmax(volume.data), volume.dims)
            for grow, cfg in ((region_grow, RegionGrowConfig(seed=seed)),
                              (region_grow, RegionGrowConfig(seed=seed, in_slice_connectivity=Connectivity.VERTEX8,
                                                             propagate_slices=False)),
                              (flood_fill, FloodFillConfig(seed=seed, tolerance=60.0)),
                              (flood_fill, FloodFillConfig(seed=seed, tolerance=60.0,
                                                           connectivity=Connectivity.VERTEX26))):
                want = grow(Volume(np.ascontiguousarray(volume.data), SP), cfg).data
                assert want.flags.f_contiguous
                got = grow(volume, cfg).data
                assert got.flags.f_contiguous
                assert got.tobytes() == want.tobytes(), (grow, cfg)
                assert 1 < np.count_nonzero(got) < got.size, (grow, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RegionGrowConfig(seed=(0, 0, 0), k=0.0, R=100.0, window=3)
        with pytest.raises(ConfigError):
            RegionGrowConfig(seed=(0, 0, 0), R=0.0)
        with pytest.raises(ConfigError):
            RegionGrowConfig(seed=(0, 0, 0), window=4)
        with pytest.raises(ConfigError):
            RegionGrowConfig(seed=(0, 0, 0), in_slice_connectivity=Connectivity.FACE6)


def _smooth_random_volume(rng, dims):
    """Blobby test volume in [0, 255]: random bright boxes on a dark floor."""
    data = np.full(dims, 20.0)
    for _ in range(3):
        x, y, z = (int(rng.integers(0, d)) for d in dims)
        dx, dy, dz = (int(rng.integers(2, 5)) for _ in range(3))
        data[x:x + dx, y:y + dy, z:z + dz] = float(rng.uniform(150, 250))
    return data.astype(np.float32)


def _speckled_volume(rng, dims):
    """Isolated bright pixels on a dark floor, so diagonal steps decide what
    joins up (every intensity clears or misses its threshold by a wide margin)."""
    return np.where(rng.random(dims) < 0.35, 200.0, 20.0).astype(np.float32)


def _shift2d(arr, ox, oy):
    out = np.zeros_like(arr)
    src_x = slice(max(0, -ox), arr.shape[0] - max(0, ox))
    src_y = slice(max(0, -oy), arr.shape[1] - max(0, oy))
    dst_x = slice(max(0, ox), arr.shape[0] - max(0, -ox))
    dst_y = slice(max(0, oy), arr.shape[1] - max(0, -oy))
    out[dst_x, dst_y] = arr[src_x, src_y]
    return out


def _region_grow_reference(data, seed, k, R, window, propagate, conn=Connectivity.EDGE4):
    """Literal slice-by-slice fixpoint: grow each slice to convergence, then
    hand accepted voxels to the adjacent slices; repeat until nothing changes.
    Acceptance thresholds are recomputed per pixel with plain numpy calls.
    ``conn`` (EDGE4 or VERTEX8) picks the in-slice steps."""
    nx, ny, nz = data.shape
    h = window // 2
    acc = np.zeros(data.shape, bool)
    for z in range(nz):
        sl = data[:, :, z].astype(np.float64)
        for x in range(nx):
            for y in range(ny):
                w = sl[max(0, x - h):min(nx, x + h + 1), max(0, y - h):min(ny, y + h + 1)]
                t = w.mean() * (1.0 + k * (w.std() / R - 1.0))
                acc[x, y, z] = sl[x, y] >= t
    mask = np.zeros(data.shape, bool)
    mask[seed] = True
    offsets2d = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)
                 if (ox, oy) != (0, 0) and (conn == Connectivity.VERTEX8 or ox == 0 or oy == 0)]
    changed = True
    while changed:
        changed = False
        for z in reversed(range(nz)):  # deliberately a different order
            while True:
                cur = mask[:, :, z]
                dil = np.zeros_like(cur)
                for ox, oy in offsets2d:
                    dil |= _shift2d(cur, ox, oy)
                new = dil & acc[:, :, z] & ~cur
                if not new.any():
                    break
                mask[:, :, z] |= new
                changed = True
        if propagate:
            for z in range(nz):
                for dz in (-1, 1):
                    zn = z + dz
                    if 0 <= zn < nz:
                        new = mask[:, :, z] & acc[:, :, zn] & ~mask[:, :, zn]
                        if new.any():
                            mask[:, :, zn] |= new
                            changed = True
    return mask


def postprocess_reference(data, policies, connectivity) -> np.ndarray:
    """Each policy in turn on the ordered labels of what the policies before
    it left: label 1 is the largest component."""
    for policy in policies:
        labels, k = ordered_components(data, connectivity)
        if isinstance(policy, KeepLargest):
            data = labels == 1
        elif isinstance(policy, MinSize):
            sizes = np.bincount(labels.ravel(), minlength=k + 1)
            data = np.isin(labels, np.flatnonzero(sizes[1:] >= policy.voxels) + 1)
        else:
            hit = {int(labels[seed]) for seed in policy.seeds} - {0}
            if not hit:
                raise DegenerateInputError("no seed lies inside a foreground component")
            data = np.isin(labels, list(hit))
    return data


class TestPostprocess:
    def make_components(self):
        # sizes 100, 5, 3 in one 12x12x3 grid
        m = np.zeros((12, 12, 3), bool)
        m[0:10, 0:10, 0] = True                  # 100 voxels
        m[0:5, 0, 2] = True                      # 5 voxels
        m[8:11, 11, 2] = True                    # 3 voxels
        return Mask(m, SP)

    def test_keep_largest(self):
        out = postprocess(self.make_components(), [KeepLargest()])
        assert out.count() == 100
        assert out.data[:, :, 0].sum() == 100

    def test_min_size(self):
        out = postprocess(self.make_components(), [MinSize(4)])
        assert out.count() == 105

    def test_keep_seeded(self):
        out = postprocess(self.make_components(), [KeepSeeded(seeds=((0, 0, 2),))])
        assert out.count() == 5

    def test_keep_seeded_background_rejected(self):
        # a background seed inside the foreground box, and one outside it (x = 11)
        for seed in ((5, 5, 1), (11, 0, 1)):
            with pytest.raises(DegenerateInputError):
                postprocess(self.make_components(), [KeepSeeded(seeds=(seed,))])

    def test_policies_compose_in_order(self):
        out = postprocess(self.make_components(), [MinSize(4), KeepLargest()])
        assert out.count() == 100

    def test_result_is_subset(self):
        rng = np.random.default_rng(25)
        for policy in ([KeepLargest()], [MinSize(3)], [MinSize(2), KeepLargest()]):
            data = rng.random((8, 8, 4)) < 0.3
            if not data.any():
                continue
            m = Mask(data, SP)
            out = postprocess(m, policy)
            assert (out.data <= m.data).all()

    def test_min_size_validation(self):
        with pytest.raises(ConfigError):
            MinSize(0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown post-processing policy"):
            postprocess(self.make_components(), [object()])

    def test_empty_policy_list_is_identity(self):
        m = self.make_components()
        assert (postprocess(m, []).data == m.data).all()

    def test_input_returned_when_no_component_is_dropped(self):
        m = self.make_components()
        assert postprocess(m, [MinSize(3)]) is m
        assert postprocess(m, [MinSize(3), KeepLargest()]) is not m
        volume, _, seed = straight_tube_case()
        grown = region_grow(volume, RegionGrowConfig(seed=seed))
        for policies in ([KeepLargest()], [KeepSeeded(seeds=(seed,))], [MinSize(grown.count())]):
            assert postprocess(grown, policies) is grown  # still a GrownMask, so it needs no labeling

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_lone_survivor_is_a_grown_mask(self, order, monkeypatch):
        band = np.asarray(np.random.default_rng(31).random((16, 14, 10)) < 0.3, order=order)
        labels, k = ordered_components(band, Connectivity.VERTEX26)
        sizes = np.bincount(labels.ravel())
        assert k > 2 and sizes[1] > sizes[2] > sizes[3]
        largest = labels == 1  # the oracle's largest component
        mask = Mask(band, SP)
        seed = tuple(int(i) for i in np.argwhere(largest)[0])
        for policies in ([KeepLargest()], [KeepSeeded(seeds=(seed,))], [MinSize(int(sizes[1]))]):
            out = postprocess(mask, policies)
            assert type(out) is GrownMask, policies
            assert out.data.tobytes() == largest.tobytes() and out.data.flags.f_contiguous
        # several survivors, or none, keep the plain type
        for policies, count in (([MinSize(int(sizes[2]))], sizes[1] + sizes[2]),
                                ([MinSize(int(sizes[1]) + 1)], 0)):
            out = postprocess(mask, policies)
            assert type(out) is Mask and out.count() == count, policies
        # inside topology_report only the truth is labeled, not the survivor
        calls = []
        label = ndimage.label

        def spy(data, structure):
            calls.append(int(np.count_nonzero(data)))
            return label(data, structure=structure)

        survivor = postprocess(mask, [KeepLargest()])
        monkeypatch.setattr(ndimage, "label", spy)
        topology_report(survivor, mask)
        assert calls == [mask.count()]

    def test_min_size_above_every_component_then_keep_largest_is_empty(self):
        out = postprocess(self.make_components(), [MinSize(101), KeepLargest()])
        assert out.count() == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_policies_applied_one_at_a_time(self, data):
        dims = tuple(data.draw(st.integers(1, 6)) for _ in range(3))
        bits = data.draw(st.lists(st.booleans(), min_size=int(np.prod(dims)), max_size=int(np.prod(dims))))
        grid = np.array(bits, dtype=bool).reshape(dims)
        placement = data.draw(st.sampled_from(("as drawn", "in a larger grid", "empty")))
        if placement == "in a larger grid":  # a strict sub-box: seeds can miss the box
            before = [data.draw(st.integers(0, 2)) for _ in range(3)]
            after = [data.draw(st.integers(max(0, 1 - b), 2)) for b in before]
            grid = np.pad(grid, list(zip(before, after)))
            dims = grid.shape
        elif placement == "empty":
            grid = np.zeros(dims, bool)
        if data.draw(st.booleans()):
            grid = np.asfortranarray(grid)
        mask = Mask(grid, SP)
        points = st.tuples(*(st.integers(0, n - 1) for n in dims))
        policies = data.draw(st.lists(
            st.just(KeepLargest()) | st.builds(MinSize, st.integers(1, 6))
            | st.builds(KeepSeeded, st.lists(points, min_size=1, max_size=3).map(tuple)),
            max_size=4))
        try:
            want = postprocess_reference(grid, policies, Connectivity.VERTEX26)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                postprocess(mask, policies)
            return
        out = postprocess(mask, policies).data
        assert np.array_equal(out, want)
        assert out.flags.f_contiguous


@st.composite
def grown_masks(draw):
    """A flood-fill or region-growing mask of a small random volume, as the
    method returns it or embedded from a crop box into a larger grid, and the
    seed in the mask's grid."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
    size = int(np.prod(dims))
    values = draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size))
    volume = vol(np.array(values, dtype=np.float32).reshape(dims))
    seed = tuple(draw(st.integers(0, n - 1)) for n in dims)
    if draw(st.booleans()):
        mask = flood_fill(volume, FloodFillConfig(seed, float(draw(st.integers(0, 255))),
                                                  draw(st.sampled_from(list(Connectivity)))))
    else:
        in_slice = draw(st.sampled_from((Connectivity.EDGE4, Connectivity.VERTEX8)))
        mask = region_grow(volume, RegionGrowConfig(
            seed, k=draw(st.sampled_from((0.1, 0.3, 0.6))), window=draw(st.sampled_from((3, 5))),
            in_slice_connectivity=in_slice, propagate_slices=draw(st.booleans())))
    if draw(st.booleans()):  # embed_mask from a crop box
        lo = tuple(draw(st.integers(0, 2)) for _ in range(3))
        full = tuple(l + n + draw(st.integers(0, 2)) for l, n in zip(lo, dims))
        mask = embed_mask(mask, BBox(lo, tuple(l + n - 1 for l, n in zip(lo, dims))), full)
        seed = tuple(s + l for s, l in zip(seed, lo))
    return mask, seed


class TestPostprocessGrown:
    @settings(max_examples=300, deadline=None)
    @given(grown_masks(), st.data())
    def test_matches_postprocess(self, grown, data):
        mask, seed = grown
        assert isinstance(mask, GrownMask)  # also after embed_mask
        plain = Mask(mask.data, mask.spacing)
        assert len(connected_components(plain)[1]) == 2  # one VERTEX26 component
        n = mask.count()
        points = st.just(seed) | st.tuples(*(st.integers(0, d - 1) for d in mask.dims))
        policies = data.draw(st.lists(
            st.just(KeepLargest()) | st.builds(MinSize, st.integers(max(1, n - 2), n + 2))
            | st.builds(KeepSeeded, st.lists(points, min_size=1, max_size=3).map(tuple)),
            max_size=4))
        try:
            want = postprocess(plain, policies)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                postprocess(mask, policies)
            return
        got = postprocess(mask, policies)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.data.strides == want.data.strides and got.spacing == want.spacing

    @settings(max_examples=200, deadline=None)
    @given(grown_masks())
    def test_labels_match_a_labeling_pass(self, grown):
        mask, _ = grown
        plain = Mask(mask.data, mask.spacing)
        for conn in Connectivity:
            labels, sizes, box = connected_components(mask, conn)
            want_labels, want_sizes, want_box = connected_components(plain, conn)
            assert box == want_box, conn
            assert sizes.tolist() == want_sizes.tolist(), conn
            assert labels.shape == want_labels.shape and (labels == want_labels).all(), conn


class TestDeterminism:
    def test_same_volume_same_config_identical_masks(self):
        rng = np.random.default_rng(26)
        data = rng.uniform(0, 255, (10, 10, 4)).astype(np.float32)
        v = vol(data)
        pairs = [
            lambda: dual_threshold(v, ThresholdConfig(50.0, 200.0)),
            lambda: flood_fill(v, FloodFillConfig(seed=(5, 5, 2), tolerance=40.0)),
            lambda: region_grow(v, RegionGrowConfig(seed=(5, 5, 2))),
        ]
        for run in pairs:
            assert (run().data == run().data).all()
