import math

import numpy as np
import pytest

from biliseg import (ConfigError, Connectivity, DegenerateInputError, Mask,
                     PhantomParams, Spacing, ThresholdConfig, TubeSegment,
                     connected_components, dice, dual_threshold, generate_tree,
                     hausdorff, rasterize_tree, render_intensities)
from biliseg.phantom import MAX_SEGMENTS, MAX_VOXELS
from conftest import traced_peak

SP = Spacing(1.0, 1.0, 1.0)


def params(**overrides):
    base = dict(dims=(24, 24, 12), spacing=SP, root=(12.0, 12.0, 1.0),
                root_direction=(0.0, 0.0, 1.0), segment_length=3.0, radius_root=1.5,
                radius_taper=0.8, branch_probability=0.3, branch_angle=30.0,
                max_depth=3, fg_mean=200.0, bg_mean=10.0, noise_std=0.0, rng_seed=9)
    base.update(overrides)
    return PhantomParams(**base)


class TestParams:
    @pytest.mark.parametrize("kw", [
        {"fg_mean": 10.0, "bg_mean": 10.0},
        {"radius_root": 0.2},
        {"max_depth": -1},
        {"branch_probability": 1.5},
        {"radius_taper": 0.0},
        {"segment_length": 0.0},
        {"root_direction": (0.0, 0.0, 0.0)},
        {"noise_std": -1.0},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            params(**kw)

    def test_size_caps(self):
        # the largest sizes under each cap are accepted, one more is refused
        depth = MAX_SEGMENTS.bit_length() - 1
        params(max_depth=depth)
        params(max_depth=MAX_SEGMENTS - 1, branch_probability=0.0)
        params(dims=(MAX_VOXELS, 1, 1))
        for kw in ({"max_depth": depth + 1}, {"max_depth": MAX_SEGMENTS, "branch_probability": 0.0},
                   {"max_depth": 10**100}, {"dims": (MAX_VOXELS + 1, 1, 1)}, {"dims": (2**40,) * 3}):
            with pytest.raises(ConfigError, match="cap of"):
                params(**kw)


class TestGenerateTree:
    def test_zero_branching_gives_polyline(self):
        tree = generate_tree(params(branch_probability=0.0, max_depth=5))
        assert len(tree) == 6
        # a chain: every segment's parent is the previous one
        assert [s.parent for s in tree] == [-1, 0, 1, 2, 3, 4]
        for prev, cur in zip(tree, tree[1:]):
            assert cur.start == prev.end

    def test_depth_zero_single_segment(self):
        tree = generate_tree(params(max_depth=0))
        assert len(tree) == 1
        seg = tree[0]
        assert seg.parent == -1
        assert seg.radius == 1.5

    def test_always_branching_complete_binary_tree(self):
        tree = generate_tree(params(branch_probability=1.0, max_depth=3))
        assert len(tree) == 1 + 2 + 4 + 8

    def test_child_radius_never_grows(self):
        tree = generate_tree(params(branch_probability=0.7, max_depth=4, rng_seed=3))
        for seg in tree:
            if seg.parent >= 0:
                assert seg.radius <= tree[seg.parent].radius

    def test_segment_length_preserved(self):
        tree = generate_tree(params(branch_probability=0.5, max_depth=3, rng_seed=4))
        for seg in tree:
            length = math.dist(seg.start, seg.end)
            assert length == pytest.approx(3.0, rel=1e-9)

    def test_deterministic_per_seed(self):
        a = generate_tree(params(rng_seed=77))
        b = generate_tree(params(rng_seed=77))
        assert a == b
        c = generate_tree(params(rng_seed=78))
        assert a != c

    def test_zero_angle_zero_branching_is_straight(self):
        tree = generate_tree(params(branch_probability=0.0, branch_angle=0.0, max_depth=4))
        start = np.array(tree[0].start)
        end = np.array(tree[-1].end)
        direction = (end - start) / np.linalg.norm(end - start)
        assert np.allclose(direction, (0, 0, 1))


def point_to_segment_distance(p, a, b):
    """Scalar reference implementation with plain Python math."""
    ax, ay, az = a
    bx, by, bz = b
    px, py, pz = p
    abx, aby, abz = bx - ax, by - ay, bz - az
    denom = abx * abx + aby * aby + abz * abz
    if denom == 0.0:
        qx, qy, qz = ax, ay, az
    else:
        t = ((px - ax) * abx + (py - ay) * aby + (pz - az) * abz) / denom
        t = min(1.0, max(0.0, t))
        qx, qy, qz = ax + t * abx, ay + t * aby, az + t * abz
    return math.sqrt((px - qx) ** 2 + (py - qy) ** 2 + (pz - qz) ** 2)


class TestRasterize:
    def test_matches_per_voxel_oracle(self):
        tree = generate_tree(params(branch_probability=0.6, max_depth=3, rng_seed=5,
                                    dims=(16, 16, 10)))
        dims = (16, 16, 10)
        spacing = Spacing(1.0, 1.2, 1.5)
        mask = rasterize_tree(tree, dims, spacing)
        for ix in range(dims[0]):
            for iy in range(dims[1]):
                for iz in range(dims[2]):
                    p = (ix * 1.0, iy * 1.2, iz * 1.5)
                    d = min(point_to_segment_distance(p, s.start, s.end) / 1.0
                            for s in tree)
                    reachable = any(point_to_segment_distance(p, s.start, s.end) <= s.radius
                                    for s in tree)
                    assert bool(mask.data[ix, iy, iz]) == reachable, (ix, iy, iz, d)

    def test_matches_oracle_on_32_cube(self):
        tree = generate_tree(params(branch_probability=0.5, max_depth=4, rng_seed=6,
                                    dims=(32, 32, 32), root=(16.0, 16.0, 2.0),
                                    segment_length=5.0, radius_root=2.0))
        spacing = Spacing(1.0, 1.0, 1.0)
        mask = rasterize_tree(tree, (32, 32, 32), spacing)
        # vectorized full-grid oracle, no bounding-box shortcuts
        coords = np.argwhere(np.ones((32, 32, 32), bool)).astype(np.float64)
        hit = np.zeros(len(coords), bool)
        for s in tree:
            a, b = np.array(s.start), np.array(s.end)
            ab = b - a
            denom = float(ab @ ab)
            t = np.clip(((coords - a) @ ab) / denom, 0.0, 1.0)
            q = a + t[:, None] * ab
            hit |= np.linalg.norm(coords - q, axis=1) <= s.radius
        assert (mask.data == hit.reshape(32, 32, 32)).all()

    def test_cylinder_voxel_count_sanity(self):
        # axis-aligned tube fully inside the grid: voxel count near pi r^2 L
        r, length = 3.0, 20.0
        tree = (TubeSegment((15.0, 15.0, 5.0), (15.0, 15.0, 25.0), r, -1),)
        mask = rasterize_tree(tree, (31, 31, 31), SP)
        expected = math.pi * r * r * length + (4.0 / 3.0) * math.pi * r ** 3  # caps included
        assert abs(mask.count() - expected) / expected < 0.10

    def test_centers_on_centerline_always_inside(self):
        tree = (TubeSegment((2.0, 3.0, 1.0), (8.0, 3.0, 1.0), 0.5, -1),)
        mask = rasterize_tree(tree, (12, 6, 4), SP)
        for ix in range(2, 9):
            assert mask.data[ix, 3, 1]

    def test_boundary_tie_counts_as_foreground(self):
        tree = (TubeSegment((5.0, 5.0, 1.0), (5.0, 5.0, 1.0), 2.0, -1),)
        mask = rasterize_tree(tree, (11, 11, 3), SP)
        assert mask.data[3, 5, 1] and mask.data[7, 5, 1]  # at distance exactly 2.0

    def test_two_parallel_tubes_two_components(self):
        tree = (
            TubeSegment((5.0, 10.0, 2.0), (5.0, 10.0, 18.0), 2.0, -1),
            TubeSegment((15.0, 10.0, 2.0), (15.0, 10.0, 18.0), 2.0, 0),
        )
        mask = rasterize_tree(tree, (21, 21, 21), SP)
        _, sizes, _ = connected_components(mask, Connectivity.VERTEX26)
        assert len(sizes) - 1 == 2

    @pytest.mark.parametrize("end", [(0.0, 0.0, 0.0), (0.0, 0.0, 5e154)])
    def test_distance_past_a_huge_radius_stays_outside(self, end):
        # distances 0 to 3e154 mm from a 2.5e154 mm radius: both square past the largest float
        tree = (TubeSegment((0.0, 0.0, 0.0), end, 2.5e154, -1),)
        mask = rasterize_tree(tree, (4, 1, 1), Spacing(1e154, 1e154, 1e154))
        assert mask.data.ravel().tolist() == [True, True, True, False]

    def test_tree_outside_grid_rejected(self):
        # the second tube's box holds the grid, but it passes about 7e299 mm
        # from it, a distance whose square is past the largest float
        for tree in ((TubeSegment((100.0, 100.0, 100.0), (120.0, 100.0, 100.0), 2.0, -1),),
                     (TubeSegment((0.0, 1e300, 1.0), (1e300, 0.0, 1.0), 2.0, -1),)):
            with pytest.raises(DegenerateInputError):
                rasterize_tree(tree, (10, 10, 10), SP)

    def test_empty_tree_rejected(self):
        with pytest.raises(DegenerateInputError):
            rasterize_tree((), (10, 10, 10), SP)


def render_one_draw(gt: Mask, p: PhantomParams) -> np.ndarray:
    """The render that drew the whole grid's noise at once: one C-ordered
    float64 ``standard_normal`` draw from noise stream 1, scaled, shifted by
    the class means, clipped and cast to an x-fastest float32 grid."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(p.rng_seed).spawn(2)[1]))
    means = np.where(gt.data, float(p.fg_mean), float(p.bg_mean))
    if p.noise_std > 0:
        with np.errstate(over="ignore"):
            means = rng.standard_normal(gt.dims) * p.noise_std + means
    return np.clip(means, 0.0, 255.0).astype(np.float32, order="F")


class TestRender:
    def test_noiseless_two_values(self):
        p = params(noise_std=0.0)
        truth = rasterize_tree(generate_tree(p), p.dims, p.spacing)
        vol = render_intensities(truth, p)
        values = set(np.unique(vol.data).tolist())
        assert values == {10.0, 200.0}
        assert (vol.data[truth.data] == 200.0).all()
        assert (vol.data[~truth.data] == 10.0).all()

    # blocks of 1 (a slab over the block size), 2, 4 and 5 slabs; 2 and 4
    # leave a shorter last block on the 33 and 67 slab grids
    @pytest.mark.parametrize("dims", [(5, 3, 2), (2, 200, 100), (33, 7, 5), (64, 64, 32),
                                      (67, 64, 32), (80, 64, 64)])
    @pytest.mark.parametrize("noise", [{"noise_std": 8.0}, {"noise_std": 0.0, "bg_mean": -0.0},
                                       {"noise_std": 1e308}], ids=["noise", "noiseless", "overflowing"])
    def test_matches_the_one_draw_render(self, dims, noise):
        p = params(dims=dims, rng_seed=17, **noise)
        truth = Mask(np.random.default_rng(math.prod(dims)).random(dims) < 0.3, SP)
        vol = render_intensities(truth, p)
        assert vol.data.flags.f_contiguous
        assert vol.data.tobytes() == render_one_draw(truth, p).tobytes()

    def test_noiseless_band_threshold_recovers_truth(self):
        p = params(noise_std=0.0)
        truth = rasterize_tree(generate_tree(p), p.dims, p.spacing)
        vol = render_intensities(truth, p)
        pred = dual_threshold(vol, ThresholdConfig((200.0 + 10.0) / 2.0, 255.0))
        assert dice(pred, truth) == 1.0
        assert hausdorff(pred, truth) == 0.0

    def test_bit_identical_for_same_seed(self):
        p = params(noise_std=7.5, rng_seed=123)
        truth = rasterize_tree(generate_tree(p), p.dims, p.spacing)
        a = render_intensities(truth, p)
        b = render_intensities(truth, p)
        assert (a.data == b.data).all()
        c = render_intensities(truth, params(noise_std=7.5, rng_seed=124))
        assert not (a.data == c.data).all()

    def test_clamped_to_display_range(self):
        p = params(noise_std=80.0, rng_seed=2)
        truth = rasterize_tree(generate_tree(p), p.dims, p.spacing)
        vol = render_intensities(truth, p)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 255.0

    def test_overflowing_noise_clamps_to_the_range_ends(self):
        # values past the float range are +-inf; a warning would fail the test
        p = params(noise_std=1e308, rng_seed=4)
        truth = rasterize_tree(generate_tree(p), p.dims, p.spacing)
        vol = render_intensities(truth, p)
        assert set(np.unique(vol.data).tolist()) == {0.0, 255.0}

    def test_peak_memory_is_the_noise_and_the_output(self):
        # the float32 result (1x), then its finiteness check (0.25x) or one
        # block's float64 noise and class means (at most 0.25x); the guard
        # catches a full-grid float64 temporary
        p = params(dims=(64, 64, 32), noise_std=8.0, rng_seed=3)
        truth = Mask(np.asfortranarray(np.random.default_rng(3).random(p.dims) < 0.2), p.spacing)
        assert traced_peak(render_intensities, truth, p) <= 1.5 * 4 * truth.data.size

    def test_noise_changes_values_but_not_geometry(self):
        p = params(noise_std=5.0, rng_seed=31)
        truth = rasterize_tree(generate_tree(p), p.dims, p.spacing)
        vol = render_intensities(truth, p)
        assert vol.dims == truth.dims
        assert float(vol.data[truth.data].mean()) == pytest.approx(200.0, abs=2.0)
        assert float(vol.data[~truth.data].mean()) == pytest.approx(10.0, abs=2.0)
