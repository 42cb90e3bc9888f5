from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage

from biliseg import (Connectivity, DegenerateInputError, FloodFillConfig, GeometryError,
                     KeepLargest, Mask, MinSize, PhantomParams, RegionGrowConfig, Spacing,
                     ThresholdConfig, Volume, bbox_of, connected_components, dice,
                     distance_transform, dual_threshold, evaluate, flood_fill, generate_tree,
                     hausdorff, metrics, percentile_stretch, postprocess, rasterize_tree,
                     region_grow, render_intensities, rvd, topology_report)
from conftest import (directed_hd_edt, edt_calls, hausdorff_brute, ordered_components,
                      place_in_grid, random_mask)

SP = Spacing(1.0, 1.0, 1.0)
# spacings whose squared steps give different floats when summed in another
# order, so that two nearest voxels can tie to the last bit
TIE_SPACINGS = ((1.1, 1.1, 1.1), (0.2, 0.9, 0.3), (0.1, 1 / 3, 1 / 3), (0.9, 0.7, 0.7))


def mask_of(coords, dims, spacing=SP):
    m = np.zeros(dims, bool)
    for c in coords:
        m[c] = True
    return Mask(m, spacing)


def overlap_matrix_counts(pred, gt, conn=Connectivity.VERTEX26):
    """Brute-force proxy counts from an explicit component overlap matrix."""
    lp, kp = ordered_components(pred.data, conn)
    lg, kg = ordered_components(gt.data, conn)
    overlap = np.zeros((kp + 1, kg + 1), dtype=int)
    for p in map(tuple, np.argwhere(pred.data | gt.data)):
        overlap[lp[p], lg[p]] += 1 if (pred.data[p] and gt.data[p]) else 0
    outliers = sum(1 for i in range(1, kp + 1) if overlap[i, 1:].sum() == 0)
    missed = sum(1 for j in range(1, kg + 1) if overlap[1:, j].sum() == 0)
    false_comm = sum(max(0, int((overlap[i, 1:] > 0).sum()) - 1) for i in range(1, kp + 1))
    false_non_comm = sum(max(0, int((overlap[1:, j] > 0).sum()) - 1) for j in range(1, kg + 1))
    return outliers, missed, false_comm, false_non_comm


@st.composite
def mask_pairs(draw):
    """Two non-empty masks on a grid of up to 24 voxels a side (several 8^3
    blocks), each a random scatter or a filled box, one inside the other in
    two draws out of three, in C or Fortran memory order."""
    dims = tuple(draw(st.integers(1, 24)) for _ in range(3))
    spacing = draw(st.sampled_from(TIE_SPACINGS) | st.tuples(*[st.floats(0.1, 3.0)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masks = []
    for _ in range(2):
        if draw(st.booleans()):
            m = rng.random(dims) < draw(st.floats(0.0005, 0.5))
        else:
            lo = [int(rng.integers(0, n)) for n in dims]
            hi = [int(rng.integers(l, n)) + 1 for l, n in zip(lo, dims)]
            m = np.zeros(dims, bool)
            m[tuple(map(slice, lo, hi))] = True
        m.flat[rng.integers(m.size)] = True
        masks.append(m)
    a, b = masks
    relation = draw(st.sampled_from(("free", "a in b", "b in a")))
    if relation == "a in b":
        b = b | a
    elif relation == "b in a":
        a = a | b
    order = draw(st.sampled_from("CF"))
    return np.asarray(a, order=order), np.asarray(b, order=order), Spacing(*spacing)


def floor_ring(b, spacing):
    """The voxels outside ``b`` with a ``b`` voxel one step away along an
    axis whose spacing is the finest."""
    sp = np.asarray(spacing)
    padded = np.pad(b, 1)
    ring = np.zeros(b.shape, bool)
    for axis in np.flatnonzero(sp == sp.min()):
        for shift in (-1, 1):
            ring |= np.roll(padded, shift, axis)[1:-1, 1:-1, 1:-1]
    return ring & ~b


def near_tie(spacing):
    """Whether a second axis's spacing lies within 1e-12 of the finest
    without being the same float."""
    sp = np.asarray(spacing)
    return bool(((sp > sp.min()) & (sp <= sp.min() * (1 + 1e-12))).any())


class TestDice:
    def test_identity(self):
        rng = np.random.default_rng(30)
        m = Mask(random_mask(rng, (6, 6, 3)), SP)
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = mask_of([(0, 0, 0)], (4, 4, 1))
        b = mask_of([(3, 3, 0)], (4, 4, 1))
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        a = mask_of([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)], (4, 4, 1))
        b = mask_of([(2, 0, 0), (3, 0, 0), (0, 1, 0), (1, 1, 0)], (4, 4, 1))
        assert dice(a, b) == 0.5

    def test_empty_conventions(self):
        empty = Mask(np.zeros((3, 3, 3), bool), SP)
        full = mask_of([(1, 1, 1)], (3, 3, 3))
        assert dice(empty, empty) == 1.0
        assert dice(empty, full) == 0.0
        assert dice(full, empty) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            a = Mask(random_mask(rng, (6, 6, 3), nonempty=False), SP)
            b = Mask(random_mask(rng, (6, 6, 3), nonempty=False), SP)
            d = dice(a, b)
            assert dice(b, a) == d
            assert 0.0 <= d <= 1.0
            if a.count() and (d == 1.0) != (a.data == b.data).all():
                pytest.fail("dice == 1 must coincide with equality for non-empty masks")

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryError):
            dice(Mask(np.zeros((3, 3, 3), bool), SP), Mask(np.zeros((3, 3, 2), bool), SP))
        with pytest.raises(GeometryError):
            dice(Mask(np.zeros((3, 3, 3), bool), SP),
                 Mask(np.zeros((3, 3, 3), bool), Spacing(1, 1, 2)))


class TestRvd:
    def test_equal_volumes(self):
        a = mask_of([(0, 0, 0), (1, 0, 0)], (4, 4, 1))
        b = mask_of([(2, 2, 0), (3, 3, 0)], (4, 4, 1))
        assert rvd(a, b) == 0.0

    def test_twenty_percent(self):
        m = np.zeros((12, 10, 1), bool)
        m[:, :, 0] = True
        pred = Mask(m, SP)  # 120 voxels
        g = np.zeros((12, 10, 1), bool)
        g[0:10, :, 0] = True
        gt = Mask(g, SP)  # 100 voxels
        assert rvd(pred, gt) == pytest.approx(0.2)

    def test_total_miss(self):
        empty = Mask(np.zeros((5, 5, 4), bool), SP)
        g = Mask(np.ones((5, 5, 4), bool), SP)
        assert rvd(empty, g) == 1.0

    def test_empty_gt_rejected(self):
        with pytest.raises(DegenerateInputError):
            rvd(Mask(np.ones((2, 2, 2), bool), SP), Mask(np.zeros((2, 2, 2), bool), SP))

    def test_zero_iff_equal_counts_and_tiling_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = random_mask(rng, (5, 5, 2))
            b = random_mask(rng, (5, 5, 2))
            v = rvd(Mask(a, SP), Mask(b, SP))
            assert (v == 0.0) == (a.sum() == b.sum())
            doubled = rvd(Mask(np.concatenate([a, a], axis=2), SP),
                          Mask(np.concatenate([b, b], axis=2), SP))
            assert doubled == pytest.approx(v, rel=1e-12)


class TestDistanceTransform:
    def test_three_four_five(self):
        m = mask_of([(0, 0, 0)], (5, 6, 2))
        field = distance_transform(m)
        assert field[3, 4, 0] == pytest.approx(5.0, abs=1e-12)

    def test_anisotropic_slice_distance(self):
        m = mask_of([(2, 2, 0)], (5, 5, 3), Spacing(1, 1, 2))
        field = distance_transform(m)
        assert field[2, 2, 1] == pytest.approx(2.0, abs=1e-12)

    def test_zero_on_foreground(self):
        rng = np.random.default_rng(33)
        m = Mask(random_mask(rng, (6, 6, 4)), SP)
        field = distance_transform(m)
        assert (field[m.data] == 0.0).all()
        assert np.isfinite(field).all()

    def test_plain_c_contiguous_float64_array(self):
        data = np.asfortranarray(random_mask(np.random.default_rng(35), (6, 5, 4)))
        field = distance_transform(Mask(data, SP))
        assert type(field) is np.ndarray and field.dtype == np.float64
        assert field.shape == data.shape and field.flags.c_contiguous

    def test_empty_mask_rejected(self):
        with pytest.raises(DegenerateInputError):
            distance_transform(Mask(np.zeros((3, 3, 3), bool), SP))

    def test_matches_brute_force_nearest(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            spacing = Spacing(*(float(s) for s in rng.uniform(0.5, 2.5, 3)))
            data = random_mask(rng, (8, 8, 4), p=rng.uniform(0.05, 0.5))
            field = distance_transform(Mask(data, spacing))
            fg = np.argwhere(data) * np.array(spacing.as_tuple())
            grid = np.argwhere(np.ones_like(data)) * np.array(spacing.as_tuple())
            d2 = ((grid[:, None, :] - fg[None, :, :]) ** 2).sum(axis=2)
            expected = np.sqrt(d2.min(axis=1)).reshape(data.shape)
            assert np.abs(field - expected).max() <= 1e-9


class TestHausdorff:
    def test_identity_zero(self):
        rng = np.random.default_rng(35)
        m = Mask(random_mask(rng, (6, 6, 3)), SP)
        assert hausdorff(m, m) == 0.0

    def test_single_pair(self):
        a = mask_of([(0, 0, 0)], (5, 6, 2))
        b = mask_of([(3, 4, 0)], (5, 6, 2))
        assert hausdorff(a, b, "directed") == pytest.approx(5.0, abs=1e-12)
        assert hausdorff(a, b, "symmetric") == pytest.approx(5.0, abs=1e-12)

    def test_empty_rejected(self):
        empty = Mask(np.zeros((3, 3, 3), bool), SP)
        full = mask_of([(0, 0, 0)], (3, 3, 3))
        with pytest.raises(DegenerateInputError):
            hausdorff(empty, full)
        with pytest.raises(DegenerateInputError):
            hausdorff(full, empty)

    def test_unknown_mode(self):
        m = mask_of([(0, 0, 0)], (3, 3, 3))
        with pytest.raises(ValueError):
            hausdorff(m, m, "average")

    def test_matches_brute_force_pairs(self):
        rng = np.random.default_rng(36)
        for _ in range(150):
            spacing = Spacing(*(float(s) for s in rng.uniform(0.5, 2.5, 3)))
            a = random_mask(rng, (8, 8, 4), p=rng.uniform(0.05, 0.5))
            b = random_mask(rng, (8, 8, 4), p=rng.uniform(0.05, 0.5))
            ma, mb = Mask(a, spacing), Mask(b, spacing)
            ab, ba, sym = hausdorff_brute(a, b, spacing.as_tuple())
            assert hausdorff(ma, mb, "directed") == pytest.approx(ab, abs=1e-9)
            assert hausdorff(mb, ma, "directed") == pytest.approx(ba, abs=1e-9)
            assert hausdorff(ma, mb, "symmetric") == pytest.approx(sym, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(mask_pairs())
    def test_equals_the_full_grid_distance_transform(self, pair):
        a, b, spacing = pair
        ma, mb = Mask(a, spacing), Mask(b, spacing)
        assert hausdorff(ma, mb, "directed") == directed_hd_edt(a, b, spacing.as_tuple())
        assert hausdorff(mb, ma, "directed") == directed_hd_edt(b, a, spacing.as_tuple())

    @settings(max_examples=100, deadline=None)
    @given(mask_pairs())
    def test_small_chunks_give_the_same_value(self, pair):
        # every broadcast loop of the search then runs in many slices
        a, b, spacing = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_CHUNK", 5)
            assert hausdorff(Mask(a, spacing), Mask(b, spacing), "directed") == \
                directed_hd_edt(a, b, spacing.as_tuple())

    def test_cost_guard_takes_the_distance_transform_up_front(self, monkeypatch):
        # with no pairs to spend per box voxel the search gives way before it
        # bounds a single block, and one distance transform of the box decides
        rng = np.random.default_rng(44)
        a = random_mask(rng, (9, 7, 5), p=0.3)
        b = random_mask(rng, (9, 7, 5), p=0.3)
        assert (a & ~b).any()
        sp = Spacing(1.0, 0.8, 1.5)
        monkeypatch.setattr(metrics, "_PAIRS_PER_EDT_VOXEL", 0)
        monkeypatch.setattr(metrics._Shell, "bound", lambda *args: pytest.fail("a block was bounded"))
        got = []
        assert len(edt_calls(lambda: got.append(hausdorff(Mask(a, sp), Mask(b, sp), "directed")))) == 1
        assert got == [float(distance_transform(Mask(b, sp))[a].max())]

    @settings(max_examples=150, deadline=None)
    @given(mask_pairs(), st.data())
    def test_shell_bounds_hold_for_every_voxel_of_a_box(self, pair, data):
        # the pruning invariants: no voxel of a box lies farther from b than
        # the box's bound, and the cells within that bound hold the nearest
        # b voxel of each voxel of the box outside b
        _, b, spacing = pair
        shell = metrics._Shell(Mask(b, spacing), bbox_of(Mask(b, spacing), margin=1))
        lo = np.array([data.draw(st.integers(0, n - 1)) for n in b.shape])
        hi = np.array([data.draw(st.integers(l, min(l + 9, n - 1))) for l, n in zip(lo, b.shape)])
        voxels = lo + np.argwhere(np.ones(hi - lo + 1, bool))
        exact = ndimage.distance_transform_edt(~b, sampling=spacing.as_tuple())[tuple(voxels.T)]
        bound = shell.bound(lo[None], hi[None])[0]
        assert bound >= exact.max() * (1 - 1e-12)
        near = np.flatnonzero(shell.gap(lo[None], hi[None])[0] <= bound * (1 + 1e-12))
        found = shell.nearest(voxels, shell.members(near)[0])
        outside = ~b[tuple(voxels.T)]
        assert np.allclose(found[outside], exact[outside], rtol=1e-12, atol=0)

    def test_ulp_tie_takes_the_distance_transform_value(self):
        # the nearest b voxels sit at offsets (-1, -1, -2) and (-1, 2, -1):
        # the same squares summed in another order differ in the last bit,
        # and the transform's own choice of feature decides the value; the
        # nearer voxel (2, 0, 0) widens the search box past b and the tie
        sp = Spacing(1.1, 1.1, 1.1)
        a = mask_of([(1, 1, 2), (2, 0, 0)], (7, 4, 4), sp)
        b = mask_of([(0, 0, 0), (0, 3, 1)], (7, 4, 4), sp)
        tied = set()
        for off in ((-1, -1, -2), (-1, 2, -1)):
            sq = (np.array(off) * 1.1) ** 2
            tied.add(float(np.sqrt(sq[0] + sq[1] + sq[2])))
        assert len(tied) == 2
        got = []
        shapes = edt_calls(lambda: got.append(hausdorff(a, b, "directed")))
        assert shapes == [bbox_of(Mask(a.data | b.data, sp)).shape()]  # one, of the search box
        assert got[0] == directed_hd_edt(a.data, b.data, sp.as_tuple()) == 2.694438717061496
        assert got[0] in tied

    def test_evaluate_skips_the_full_grid_when_pred_inside_truth(self):
        sp = Spacing(1.0, 1.0, 1.5)
        truth = np.zeros((64, 64, 32), bool)
        truth[4:60, 4:60, 2:30] = True
        pred = np.zeros_like(truth)
        pred[6:14, 6:14, 4:10] = True
        pred[10, 6:50, 6] = True
        reports = []
        assert edt_calls(lambda: reports.append(evaluate(Mask(pred, sp), Mask(truth, sp)))) == []
        assert reports[0].hd_directed_pred_to_gt == 0.0
        assert reports[0].hd_directed_gt_to_pred == directed_hd_edt(truth, pred, sp.as_tuple())

    @settings(max_examples=150, deadline=None)
    @given(mask_pairs())
    def test_distance_transforms_stay_inside_the_box(self, pair):
        a, b, spacing = pair
        for x, y in ((a, b), (b, a)):
            shapes = edt_calls(lambda: hausdorff(Mask(x, spacing), Mask(y, spacing), "directed"))
            out = x & ~y
            if not out.any():
                assert shapes == []
                continue
            # at most one, for the cost guard or an ulp tie alike, of the search box
            assert shapes in ([], [bbox_of(Mask(out | y, spacing)).shape()])

    @settings(max_examples=150, deadline=None)
    @given(mask_pairs(), st.data())
    def test_sources_one_finest_step_from_the_target_settle_without_a_search(self, pair, data):
        # every source voxel outside b has a b voxel one step away along a
        # finest axis, so each lies at sqrt(s*s) and neither the shell nor a
        # distance transform is needed; one far source voxel brings the
        # search back
        a, b, spacing = pair
        assume(not near_tie(spacing.as_tuple()))
        ring = floor_ring(b, spacing.as_tuple())
        assume(ring.any())
        source = a & (b | ring)
        source.flat[data.draw(st.sampled_from(np.flatnonzero(ring)))] = True
        s = min(spacing.as_tuple())
        got = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics._Shell, "__init__", lambda *args: pytest.fail("a shell was built"))
            assert edt_calls(lambda: got.append(hausdorff(Mask(source, spacing), Mask(b, spacing),
                                                          "directed"))) == []
        assert got[0] == directed_hd_edt(source, b, spacing.as_tuple()) == float(np.sqrt(s * s))
        far = np.flatnonzero(~b & ~ring)
        assume(far.size)
        source.flat[data.draw(st.sampled_from(far))] = True
        assert hausdorff(Mask(source, spacing), Mask(b, spacing), "directed") == \
            directed_hd_edt(source, b, spacing.as_tuple())

    # a second axis within 1e-12 of the finest (ulp or not) and equal axes
    FLOOR_SPACINGS = ((1.0, 1.0 + 1e-13, 1.5), (1.5, 0.7, float(np.nextafter(0.7, 1.0))),
                      (float(np.nextafter(0.3, 0.0)), 2.0, 0.3), (1.0, 1.0, 1.0), (1.1, 1.1, 1.1),
                      (0.9, 0.9, 1.4))

    @settings(max_examples=150, deadline=None)
    @given(mask_pairs(), st.sampled_from(FLOOR_SPACINGS))
    def test_floor_stands_down_for_a_near_tie_and_holds_for_equal_axes(self, pair, spacing):
        # a step within 1e-12 of the finest but another float lets the
        # transform pick either feature, so nothing is settled early and the
        # shell is built; equal steps give one float, and the floor holds
        a, b, _ = pair
        spacing = Spacing(*spacing)
        built = []
        init = metrics._Shell.__init__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics._Shell, "__init__", lambda self, *args: built.append(init(self, *args)))
            for x, y in ((a, b), (b, a)):
                del built[:]
                assert hausdorff(Mask(x, spacing), Mask(y, spacing), "directed") == \
                    directed_hd_edt(x, y, spacing.as_tuple())
                if near_tie(spacing.as_tuple()):
                    assert len(built) == int((x & ~y).any())

    @settings(max_examples=200, deadline=None)
    @given(mask_pairs())
    def test_doubling_every_spacing_doubles_both_directed_distances(self, pair):
        # IEEE multiplication by 2 is exact short of overflow, so every
        # distance, bound and tolerance of the search scales exactly
        a, b, spacing = pair
        doubled = Spacing(*(2 * v for v in spacing.as_tuple()))
        for x, y in ((a, b), (b, a)):
            assert hausdorff(Mask(x, doubled), Mask(y, doubled), "directed") == \
                2 * hausdorff(Mask(x, spacing), Mask(y, spacing), "directed")

    @settings(max_examples=200, deadline=None)
    @given(mask_pairs(), st.integers(0, 2))
    def test_reversing_one_axis_of_both_masks_keeps_both_directed_distances(self, pair, axis):
        # the blocks, the shell cells and the floor's shifts all change with
        # the reversal; the values may not
        a, b, spacing = pair
        ra, rb = np.flip(a, axis), np.flip(b, axis)
        for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra)):
            assert hausdorff(Mask(rx, spacing), Mask(ry, spacing), "directed") == \
                hausdorff(Mask(x, spacing), Mask(y, spacing), "directed")

    def test_symmetric_is_symmetric(self):
        rng = np.random.default_rng(37)
        a = Mask(random_mask(rng, (7, 5, 3)), SP)
        b = Mask(random_mask(rng, (7, 5, 3)), SP)
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_growing_source_never_decreases_directed(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            a = random_mask(rng, (6, 6, 3), p=0.2)
            b = random_mask(rng, (6, 6, 3), p=0.2)
            base = hausdorff(Mask(a, SP), Mask(b, SP), "directed")
            background = np.argwhere(~a)
            extra = tuple(background[rng.integers(0, len(background))])
            grown = a.copy()
            grown[extra] = True
            assert hausdorff(Mask(grown, SP), Mask(b, SP), "directed") >= base - 1e-12


class TestTopology:
    def test_identical_masks_all_zero(self):
        rng = np.random.default_rng(39)
        m = Mask(random_mask(rng, (8, 8, 3)), SP)
        t = topology_report(m, m)
        assert (t["outliers"], t["missed_components"], t["false_communicating"],
                t["false_non_communicating"]) == (0, 0, 0, 0)

    def test_bridged_structures(self):
        # ground truth: two separate bars; prediction: one bar spanning both
        gt = np.zeros((9, 3, 1), bool)
        gt[0:3, 1, 0] = True
        gt[6:9, 1, 0] = True
        pred = np.zeros((9, 3, 1), bool)
        pred[0:9, 1, 0] = True
        t = topology_report(Mask(pred, SP), Mask(gt, SP))
        assert t["false_communicating"] == 1
        assert t["false_non_communicating"] == 0
        assert t["outliers"] == 0 and t["missed_components"] == 0

    def test_fragmented_structure_with_outlier(self):
        # ground truth: one bar; prediction: the bar with a gap plus a far voxel
        gt = np.zeros((9, 5, 1), bool)
        gt[0:9, 1, 0] = True
        pred = np.zeros((9, 5, 1), bool)
        pred[0:4, 1, 0] = True
        pred[5:9, 1, 0] = True
        pred[4, 4, 0] = True  # spurious, far from the bar
        t = topology_report(Mask(pred, SP), Mask(gt, SP))
        assert t["false_non_communicating"] == 1
        assert t["outliers"] == 1
        assert t["false_communicating"] == 0
        assert t["missed_components"] == 0

    def test_missed_component(self):
        gt = mask_of([(0, 0, 0), (5, 5, 0)], (6, 6, 1))
        pred = mask_of([(0, 0, 0)], (6, 6, 1))
        t = topology_report(pred, gt)
        assert t["missed_components"] == 1 and t["outliers"] == 0

    def test_swap_exchanges_counts(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            a = Mask(random_mask(rng, (8, 8, 2), p=0.3, nonempty=False), SP)
            b = Mask(random_mask(rng, (8, 8, 2), p=0.3, nonempty=False), SP)
            t_ab = topology_report(a, b)
            t_ba = topology_report(b, a)
            assert t_ab["outliers"] == t_ba["missed_components"]
            assert t_ab["missed_components"] == t_ba["outliers"]
            assert t_ab["false_communicating"] == t_ba["false_non_communicating"]
            assert t_ab["false_non_communicating"] == t_ba["false_communicating"]

    def test_matches_overlap_matrix_oracle(self):
        rng = np.random.default_rng(41)
        empty = np.zeros((11, 11, 5), bool)
        pairs = [(empty, empty)]
        for _ in range(40):
            a = random_mask(rng, (8, 8, 3), p=rng.uniform(0.1, 0.4), nonempty=False)
            b = random_mask(rng, (8, 8, 3), p=rng.uniform(0.1, 0.4), nonempty=False)
            # as drawn, then each a strict sub-box of a larger empty grid at
            # its own offset, so the two label crops have different corners
            pairs += [(a, b), (place_in_grid(rng, a, empty.shape), place_in_grid(rng, b, empty.shape)),
                      (empty, place_in_grid(rng, b, empty.shape))]
        # the drawn boxes always overlap and rarely nest, so two pairs add
        # disjoint boxes and one box strictly inside the other (each pair is
        # also read swapped below)
        apart_a, apart_b, outer, inner = (empty.copy() for _ in range(4))
        apart_a[:4, :4, :2] = random_mask(rng, (4, 4, 2))
        apart_b[6:, 6:, 3:] = random_mask(rng, (5, 5, 2))
        outer[...] = random_mask(rng, empty.shape, p=0.3)
        outer[0, 0, 0] = outer[-1, -1, -1] = True
        inner[3:8, 3:8, 1:4] = random_mask(rng, (5, 5, 3), p=0.6)
        pairs += [(apart_a, apart_b), (inner, outer)]
        for a, b in pairs:
            for layout in (np.ascontiguousarray, np.asfortranarray):
                pred, gt = Mask(layout(a), SP), Mask(layout(b), SP)
                for x, y in ((pred, gt), (gt, pred)):
                    t = topology_report(x, y)
                    assert (t["outliers"], t["missed_components"], t["false_communicating"],
                            t["false_non_communicating"]) == overlap_matrix_counts(x, y)


class TestEvaluate:
    def test_fields_consistent(self):
        rng = np.random.default_rng(42)
        a = Mask(random_mask(rng, (8, 8, 4)), SP)
        b = Mask(random_mask(rng, (8, 8, 4)), SP)
        rep = evaluate(a, b)
        assert rep.hd_mm == max(rep.hd_directed_pred_to_gt, rep.hd_directed_gt_to_pred)
        assert rep.dsc == dice(a, b)
        assert rep.rvd == rvd(a, b)
        assert min(rep.outliers, rep.missed_components, rep.false_communicating,
                   rep.false_non_communicating) >= 0
        # the counts come keyed by their report fields, in field order
        topo = topology_report(a, b)
        assert list(topo) == list(rep.__dataclass_fields__)[-4:]
        assert all(getattr(rep, name) == count for name, count in topo.items())

    def test_perfect_prediction(self):
        rng = np.random.default_rng(43)
        m = Mask(random_mask(rng, (6, 6, 3)), SP)
        rep = evaluate(m, m)
        assert (rep.dsc, rep.hd_mm, rep.rvd) == (1.0, 0.0, 0.0)
        assert (rep.outliers, rep.missed_components, rep.false_communicating,
                rep.false_non_communicating) == (0, 0, 0, 0)


def swap_xy(data):
    return data.transpose(1, 0, 2)


def unique_largest(mask):
    """Whether one component of ``mask`` is larger than every other, so that
    ``KeepLargest`` needs no tie-break on the x-fastest first voxel."""
    top = np.sort(connected_components(mask)[1][1:])[-2:]
    return len(top) < 2 or top[0] != top[1]


class TestXYSwap:
    """A metamorphic relation: swapping x and y in the volume, the truth, the
    spacing and the seed swaps every mask and keeps every metric bit for bit.
    It needs no oracle and guards the choices that follow the axis order: the
    one-FACE6 scan in z-slabs, the x-fastest sparse labeling and the blocked
    Hausdorff search."""

    @settings(max_examples=25, deadline=None)
    @given(rng_seed=st.integers(0, 2**16), noise=st.floats(6.0, 40.0),
           dx=st.floats(0.6, 1.4), dy=st.floats(0.6, 1.4))
    def test_swaps_every_mask_and_keeps_every_metric(self, rng_seed, noise, dx, dy):
        dims = (26, 22, 10)
        params = PhantomParams(dims=dims, spacing=Spacing(dx, dy, 1.4),
                               root=(dims[0] * dx / 2, dims[1] * dy / 2, 1.0),
                               root_direction=(0.08, 0.04, 1.0), segment_length=5.0,
                               radius_root=2.0, branch_probability=0.5, branch_angle=30.0,
                               max_depth=3, noise_std=noise, rng_seed=rng_seed)
        truth = rasterize_tree(generate_tree(params), dims, params.spacing)
        volume = percentile_stretch(render_intensities(truth, params))
        seed = tuple(int(c) for c in np.argwhere(truth.data)[truth.count() // 2])
        swapped_spacing = Spacing(dy, dx, 1.4)
        swapped = (Volume(swap_xy(volume.data), swapped_spacing),
                   Mask(swap_xy(truth.data), swapped_spacing), (seed[1], seed[0], seed[2]))
        runs = [(lambda v, s, band=band: dual_threshold(v, ThresholdConfig(band, 255.0)), policy)
                for band in (90.0, 140.0) for policy in (KeepLargest(), MinSize(10))]
        runs += [(lambda v, s, tol=tol, conn=conn: flood_fill(v, FloodFillConfig(s, tol, conn)),
                  KeepLargest())
                 for tol, conn in ((60.0, Connectivity.FACE6), (100.0, Connectivity.VERTEX26))]
        runs += [(lambda v, s: region_grow(v, RegionGrowConfig(seed=s)), KeepLargest())]
        for method, policy in runs:
            raw, raw_swapped = method(volume, seed), method(swapped[0], swapped[2])
            assert np.array_equal(swap_xy(raw.data), raw_swapped.data)
            if isinstance(policy, KeepLargest) and not unique_largest(raw):
                continue
            mask, mask_swapped = postprocess(raw, [policy]), postprocess(raw_swapped, [policy])
            assert np.array_equal(swap_xy(mask.data), mask_swapped.data)
            if mask.count():
                assert repr(astuple(evaluate(mask, truth))) == repr(astuple(evaluate(mask_swapped,
                                                                                     swapped[1])))
