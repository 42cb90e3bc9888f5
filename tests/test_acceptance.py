"""Acceptance suite: one test per gate criterion, each at its stated
tolerance, printing one PASS line on success (run with ``pytest -v`` or
``-s`` to see them)."""
import math
import time

import numpy as np
import pytest

from biliseg import (Connectivity, FloodFillConfig, Mask, PhantomParams,
                     PreprocessParams, RegionGrowConfig, Spacing, ThresholdConfig,
                     Volume, dice, dual_threshold, evaluate, flood_fill,
                     generate_tree, hausdorff, percentile_stretch,
                     rasterize_tree, read_nifti, region_grow, render_intensities,
                     rvd, sauvola_threshold_field, topology_report, write_nifti)
from biliseg.report import format_cell
from conftest import (flood_fill_bfs, hausdorff_brute, neighbor_offsets, random_mask,
                      raw_nifti_bytes, union_find_components)


def test_c01_metric_oracle_equivalence():
    """dice/rvd match exact set arithmetic and hausdorff matches the
    brute-force max-min within 1e-9 mm on >= 200 random 8x8x4 pairs, < 10 s."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_hd = 0.0
    for _ in range(200):
        spacing = Spacing(*(float(s) for s in rng.uniform(0.5, 2.5, 3)))
        a = random_mask(rng, (8, 8, 4), p=rng.uniform(0.05, 0.6))
        b = random_mask(rng, (8, 8, 4), p=rng.uniform(0.05, 0.6))
        ma, mb = Mask(a, spacing), Mask(b, spacing)

        set_a = {tuple(p) for p in np.argwhere(a)}
        set_b = {tuple(p) for p in np.argwhere(b)}
        dice_exact = 2 * len(set_a & set_b) / (len(set_a) + len(set_b))
        rvd_exact = abs(len(set_a) - len(set_b)) / len(set_b)
        assert dice(ma, mb) == dice_exact
        assert rvd(ma, mb) == rvd_exact

        ab, ba, sym = hausdorff_brute(a, b, spacing.as_tuple())
        worst_hd = max(worst_hd,
                       abs(hausdorff(ma, mb, "directed") - ab),
                       abs(hausdorff(mb, ma, "directed") - ba),
                       abs(hausdorff(ma, mb, "symmetric") - sym))
        assert worst_hd <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 01 metric-oracle-equivalence: PASS "
          f"(200 pairs, max HD deviation {worst_hd:.2e} mm, {elapsed:.2f}s)")


def test_c02_band_threshold_exhaustive():
    """Band-threshold output equals the per-voxel rule (strict lower bound,
    inclusive upper bound) on >= 50 random volumes with boundary-valued voxels."""
    rng = np.random.default_rng(102)
    lattice = np.arange(0.0, 130.0, 10.0)
    for _ in range(50):
        data = rng.choice(lattice, size=(8, 8, 3)).astype(np.float32)
        t_min, t_max = sorted(rng.choice(lattice, 2, replace=False))
        # plant exact boundary values so both bounds are exercised
        data[0, 0, 0], data[1, 0, 0] = t_min, t_max
        vol = Volume(data, Spacing(1, 1, 1))
        mask = dual_threshold(vol, ThresholdConfig(float(t_min), float(t_max)))
        for p in np.ndindex(*data.shape):
            f = float(data[p])
            assert bool(mask.data[p]) == (t_min < f <= t_max)
        assert not mask.data[0, 0, 0]   # value == t_min stays background
        assert mask.data[1, 0, 0]       # value == t_max is foreground
    print("\nACCEPTANCE 02 band-threshold-exhaustive: PASS (50 volumes, all voxels)")


def test_c03_flood_fill_oracle():
    """Flood fill equals a queue BFS reference on >= 50 cases per grid shape
    (both connectivities); per run: seed membership, connectedness, tolerance,
    maximality."""
    cases = 0
    for dims in ((16, 16, 1), (8, 8, 4)):
        for conn in (Connectivity.FACE6, Connectivity.VERTEX26):
            rng = np.random.default_rng(hash((dims, int(conn))) % 2**32)
            offsets = neighbor_offsets(conn)
            for _ in range(26):
                data = rng.integers(0, 9, dims).astype(np.float32) * 12.0
                seed = tuple(int(rng.integers(0, n)) for n in dims)
                tol = float(rng.choice([0.0, 12.0, 24.0, 40.0]))
                mask = flood_fill(Volume(data, Spacing(1, 1, 1)),
                                  FloodFillConfig(seed=seed, tolerance=tol, connectivity=conn))
                assert {tuple(p) for p in np.argwhere(mask.data)} == \
                    flood_fill_bfs(data, seed, tol, offsets)
                assert mask.data[seed]
                assert len(union_find_components(mask.data, offsets)) == 1
                sv = float(data[seed])
                assert (np.abs(data[mask.data].astype(np.float64) - sv) <= tol).all()
                for p in map(tuple, np.argwhere(mask.data)):
                    for off in offsets:
                        q = tuple(p[i] + off[i] for i in range(3))
                        if all(0 <= c < n for c, n in zip(q, dims)) and not mask.data[q]:
                            assert abs(float(data[q]) - sv) > tol
                cases += 1
    assert cases >= 2 * 50
    print(f"\nACCEPTANCE 03 flood-fill-oracle: PASS ({cases} cases, both connectivities)")


def test_c04_sauvola_unit_values():
    """Uniform window returns m*(1-k) exactly; the single-bright-center 3x3
    window matches its hand computation within 1e-6; k=0 returns the mean."""
    uniform = np.full((3, 3), 100.0)
    t_uniform = float(sauvola_threshold_field(uniform, k=0.3, R=100.0, window=3)[1, 1])
    assert t_uniform == 100.0 * (1.0 - 0.3)
    assert t_uniform == 70.0

    window = np.zeros((3, 3))
    window[1, 1] = 255.0
    m = 255.0 / 9.0
    s = math.sqrt((8.0 * m ** 2 + (255.0 - m) ** 2) / 9.0)
    hand = m * (1.0 + 0.3 * (s / 100.0 - 1.0))
    got = float(sauvola_threshold_field(window, k=0.3, R=100.0, window=3)[1, 1])
    assert abs(got - hand) <= 1e-6
    assert got == pytest.approx(26.6451286, abs=1e-6)

    rng = np.random.default_rng(104)
    sl = rng.uniform(0, 255, (5, 5))
    assert sauvola_threshold_field(sl, k=0.0, R=100.0, window=3)[2, 2] == pytest.approx(float(sl[1:4, 1:4].mean()),
                                                                     rel=1e-12)
    print(f"\nACCEPTANCE 04 sauvola-unit-values: PASS (uniform {t_uniform}, center {got:.7f})")


def _straight_tube(dims=(32, 32, 10), spacing=Spacing(1.0, 1.0, 1.5), radius=3.5):
    cx = (dims[0] - 1) / 2.0 * spacing.dx
    cy = (dims[1] - 1) / 2.0 * spacing.dy
    top = dims[2] * spacing.dz + 2.0
    params = PhantomParams(dims=dims, spacing=spacing, root=(cx, cy, -2.0),
                           root_direction=(0.0, 0.0, 1.0), segment_length=top + 2.0,
                           radius_root=radius, branch_probability=0.0, branch_angle=0.0,
                           max_depth=0, fg_mean=200.0, bg_mean=10.0, noise_std=0.0,
                           rng_seed=3)
    truth = rasterize_tree(generate_tree(params), dims, spacing)
    volume = render_intensities(truth, params)
    seed = (dims[0] // 2, dims[1] // 2, dims[2] // 2)
    assert truth.data[seed]
    return volume, truth, seed


def test_c05_region_growing_propagation():
    """One seed covers a noiseless bright tube on every slice with
    DSC >= 0.95; disabling propagation confines growth to the seed slice."""
    volume, truth, seed = _straight_tube()
    mask = region_grow(volume, RegionGrowConfig(seed=seed))
    for z in range(truth.dims[2]):
        assert (truth.data[:, :, z] <= mask.data[:, :, z]).all(), f"slice {z} not covered"
    score = dice(mask, truth)
    assert score >= 0.95

    confined = region_grow(volume, RegionGrowConfig(seed=seed, propagate_slices=False))
    off_slice = confined.data.copy()
    off_slice[:, :, seed[2]] = False
    assert not off_slice.any()
    assert confined.data[:, :, seed[2]].any()
    print(f"\nACCEPTANCE 05 region-growing-propagation: PASS (DSC {score:.4f}, "
          f"{truth.dims[2]} slices covered by one seed)")


def test_c06_pipeline_identity():
    """Noiseless branched phantom + oracle band thresholds: DSC == 1.0,
    symmetric HD == 0.0, RVD == 0.0, all topology counts 0."""
    params = PhantomParams(dims=(48, 48, 20), spacing=Spacing(1.0, 1.0, 1.5),
                           root=(24.0, 24.0, 1.0), root_direction=(0.1, 0.05, 1.0),
                           segment_length=8.0, radius_root=2.5, radius_taper=0.85,
                           branch_probability=0.6, branch_angle=30.0, max_depth=3,
                           fg_mean=200.0, bg_mean=10.0, noise_std=0.0, rng_seed=17)
    truth = rasterize_tree(generate_tree(params), params.dims, params.spacing)
    volume = render_intensities(truth, params)
    pred = dual_threshold(volume, ThresholdConfig((200.0 + 10.0) / 2.0, 255.0))
    report = evaluate(pred, truth)
    assert report.dsc == 1.0
    assert report.hd_mm == 0.0
    assert report.rvd == 0.0
    assert (report.outliers, report.missed_components, report.false_communicating,
            report.false_non_communicating) == (0, 0, 0, 0)
    print("\nACCEPTANCE 06 pipeline-identity: PASS (DSC 1.0, HD 0.0 mm, RVD 0.0, topology 0/0/0/0)")


def test_c07_topology_proxies():
    """Constructed merge case gives false_communicating == 1; constructed
    split+outlier case gives false_non_communicating == 1 and outliers == 1;
    an explicit overlap-matrix oracle agrees."""
    sp = Spacing(1, 1, 1)

    gt = np.zeros((9, 3, 1), bool)
    gt[0:3, 1, 0] = True
    gt[6:9, 1, 0] = True
    pred = np.zeros((9, 3, 1), bool)
    pred[0:9, 1, 0] = True
    merge = topology_report(Mask(pred, sp), Mask(gt, sp))
    assert merge["false_communicating"] == 1
    assert merge["false_non_communicating"] == 0

    gt2 = np.zeros((9, 5, 1), bool)
    gt2[0:9, 1, 0] = True
    pred2 = np.zeros((9, 5, 1), bool)
    pred2[0:4, 1, 0] = True
    pred2[5:9, 1, 0] = True
    pred2[4, 4, 0] = True
    split = topology_report(Mask(pred2, sp), Mask(gt2, sp))
    assert split["false_non_communicating"] == 1
    assert split["outliers"] == 1

    from test_metrics import overlap_matrix_counts
    for p, g in ((pred, gt), (pred2, gt2)):
        got = topology_report(Mask(p, sp), Mask(g, sp))
        assert (got["outliers"], got["missed_components"], got["false_communicating"],
                got["false_non_communicating"]) == overlap_matrix_counts(Mask(p, sp), Mask(g, sp))
    print("\nACCEPTANCE 07 topology-proxies: PASS (merge fc=1, split fnc=1 + outlier=1, oracle agrees)")


def test_c08_anova():
    """Groups [1,2]/[3,4]: F == 8 exactly and p == 0.105573 within 1e-4;
    identical groups: F == 0, p == 1; F is location/scale invariant."""
    from biliseg import one_way_anova
    res = one_way_anova([[1, 2], [3, 4]])
    assert res.f_stat == 8.0
    assert abs(res.p_value - 0.105573) <= 1e-4

    same = one_way_anova([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
    assert same.f_stat == 0.0
    assert same.p_value == 1.0

    rng = np.random.default_rng(108)
    groups = [list(rng.normal(mu, 1.5, 7)) for mu in (0.0, 0.8, -0.5)]
    base = one_way_anova(groups)
    shifted = one_way_anova([[x + 42.0 for x in g] for g in groups])
    scaled = one_way_anova([[x * 0.37 for x in g] for g in groups])
    assert shifted.f_stat == pytest.approx(base.f_stat, rel=1e-9)
    assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)
    assert shifted.p_value == pytest.approx(base.p_value, rel=1e-9)
    assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)
    print(f"\nACCEPTANCE 08 anova: PASS (F=8 exact, p={res.p_value:.6f}, invariances hold)")


def test_c09_io(tmp_path):
    """NIfTI decode survives rewrite bit-exactly for every supported datatype;
    STL triangle count is twice the exposed-face count on 20 random masks;
    summary cells render the canonical mean/std format."""
    rng = np.random.default_rng(109)
    for code, dtype, lo, hi in ((2, np.uint8, 0, 255), (4, np.int16, -32768, 32767),
                                (512, np.uint16, 0, 65535), (16, np.float32, -500.0, 500.0)):
        for endian in ("<", ">"):
            dims = tuple(int(d) for d in rng.integers(2, 8, 3))
            if np.issubdtype(dtype, np.integer):
                arr = rng.integers(lo, hi, dims).astype(dtype)
            else:
                arr = rng.uniform(lo, hi, dims).astype(dtype)
            src = tmp_path / f"{code}{'' if endian == '<' else 'be'}.nii"
            src.write_bytes(raw_nifti_bytes(arr, (1.0, 1.094, 1.5), code, endian=endian))
            first = read_nifti(src)
            rt = tmp_path / f"{code}{'' if endian == '<' else 'be'}_rt.nii"
            write_nifti(first, rt)
            second = read_nifti(rt)
            assert (second.data == first.data).all()
            assert (first.data == arr.astype(np.float32)).all()
            assert second.spacing == first.spacing

    from biliseg import extract_surface_mesh
    from test_mesh import count_exposed_faces
    for i in range(20):
        data = random_mask(rng, tuple(int(d) for d in rng.integers(2, 6, 3)))
        mesh = extract_surface_mesh(Mask(data, Spacing(1, 1, 1)))
        assert len(mesh) == 2 * count_exposed_faces(data)

    assert format_cell("DSC", (0.819, 0.057)) == "0.819 ±0.057"
    assert format_cell("outliers", (6.2, 3.86)) == "6.2 ±3.86"
    print("\nACCEPTANCE 09 io: PASS (4 datatypes x 2 endiannesses, 20 STL masks, cell format)")


def test_c10_performance_sanity():
    """Full pipeline on a 256x256x64 phantom (generate, stretch, region grow,
    evaluate) completes in < 60 s."""
    started = time.perf_counter()
    params = PhantomParams(dims=(256, 256, 64), spacing=Spacing(1.0, 1.0, 1.5),
                           root=(128.0, 128.0, -4.0), root_direction=(0.05, 0.02, 1.0),
                           segment_length=30.0, radius_root=4.0, radius_taper=0.9,
                           branch_probability=0.4, branch_angle=25.0, max_depth=4,
                           fg_mean=200.0, bg_mean=10.0, noise_std=6.0, rng_seed=99)
    truth = rasterize_tree(generate_tree(params), params.dims, params.spacing)
    volume = render_intensities(truth, params)
    stretched = percentile_stretch(volume, PreprocessParams())
    coords = np.argwhere(truth.data)
    seed = tuple(int(c) for c in coords[len(coords) // 2])
    mask = region_grow(stretched, RegionGrowConfig(seed=seed))
    report = evaluate(mask, truth)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert report.dsc >= 0.0  # quality is not gated here; timing is
    print(f"\nACCEPTANCE 10 performance-sanity: PASS ({elapsed:.1f}s for 256x256x64, "
          f"worst-case flooded growth of {mask.count()} voxels)")


def test_c11_exploratory_method_ordering():
    """Non-gating experiment: does the overlap ordering
    threshold >= flood fill >= region growing emerge on noisy phantoms?
    The outcome is reported, never asserted."""
    scores = {"threshold": [], "floodfill": [], "regiongrow": []}
    for seed_value in (1, 2, 3):
        params = PhantomParams(dims=(64, 64, 24), spacing=Spacing(1.0, 1.0, 1.5),
                               root=(32.0, 32.0, 1.0), root_direction=(0.05, 0.02, 1.0),
                               segment_length=10.0, radius_root=2.5, radius_taper=0.85,
                               branch_probability=0.5, branch_angle=30.0, max_depth=3,
                               fg_mean=200.0, bg_mean=10.0, noise_std=25.0,
                               rng_seed=seed_value)
        truth = rasterize_tree(generate_tree(params), params.dims, params.spacing)
        volume = render_intensities(truth, params)
        coords = np.argwhere(truth.data)
        seed = tuple(int(c) for c in coords[len(coords) // 2])

        pred_t = dual_threshold(volume, ThresholdConfig(105.0, 255.0))
        pred_f = flood_fill(volume, FloodFillConfig(seed=seed, tolerance=70.0))
        pred_r = region_grow(volume, RegionGrowConfig(seed=seed))
        scores["threshold"].append(dice(pred_t, truth))
        scores["floodfill"].append(dice(pred_f, truth))
        scores["regiongrow"].append(dice(pred_r, truth))

    means = {k: float(np.mean(v)) for k, v in scores.items()}
    ordering_holds = means["threshold"] >= means["floodfill"] >= means["regiongrow"]
    print(f"\nACCEPTANCE 11 exploratory-ordering: REPORT ONLY - mean DSC "
          f"threshold={means['threshold']:.3f}, floodfill={means['floodfill']:.3f}, "
          f"regiongrow={means['regiongrow']:.3f}; "
          f"ordering threshold >= floodfill >= regiongrow "
          f"{'OBSERVED' if ordering_holds else 'NOT OBSERVED'} on this phantom set")
