"""The benchmark's own tests: every correctness check must reject a wrong output.

    python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import biliseg  # noqa: E402
from biliseg import cli  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPACING = (1.0, 1.0, 1.5)


def tube_masks():
    gt = np.zeros((12, 10, 6), dtype=bool)
    gt[3:6, 3:6, :] = True
    pred = gt.copy()
    pred[3:6, 3:6, 5] = False
    pred[9, 8, 1] = True       # an outlier component
    return pred, gt


def test_flipped_voxel_rejected():
    pred, gt = tube_masks()
    assert oracles.check_equal_masks(pred, pred.copy(), "m") == []
    wrong = pred.copy()
    wrong[0, 0, 0] = ~wrong[0, 0, 0]
    assert oracles.check_equal_masks(wrong, pred, "m")


def program_report(pred, gt):
    report = biliseg.evaluate(biliseg.Mask(pred, biliseg.Spacing(*SPACING)),
                              biliseg.Mask(gt, biliseg.Spacing(*SPACING)))
    return biliseg.metrics_to_dict(report)


def test_report_check_accepts_the_program_and_rejects_a_hausdorff_off_by_one_step():
    pred, gt = tube_masks()
    report = program_report(pred, gt)
    assert oracles.check_report(report, pred, gt, SPACING, "r") == []
    for key in ("hd_directed_pred_to_gt", "hd_directed_gt_to_pred", "hd_mm"):
        wrong = dict(report, **{key: report[key] + SPACING[0]})
        assert oracles.check_report(wrong, pred, gt, SPACING, "r")


@pytest.mark.parametrize("key", ["dsc", "rvd", "outliers", "missed_components",
                                 "false_communicating", "false_non_communicating"])
def test_report_check_rejects_a_wrong_count_or_overlap(key):
    pred, gt = tube_masks()
    report = program_report(pred, gt)
    wrong = dict(report, **{key: report[key] + (1 if isinstance(report[key], int) else 1e-6)})
    assert oracles.check_report(wrong, pred, gt, SPACING, "r")


def test_directed_hausdorff_matches_all_pairs():
    rng = np.random.default_rng(3)
    a = rng.random((9, 8, 5)) < 0.2
    b = rng.random((9, 8, 5)) < 0.1
    sp = np.array(SPACING)
    pa, pb = np.argwhere(a) * sp, np.argwhere(b) * sp
    brute = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)).min(axis=1).max()
    assert abs(oracles.directed_hd(a, b, SPACING) - brute) <= 1e-12


def test_topology_from_overlap_matrix_on_a_bridge_and_a_split():
    gt = np.zeros((10, 3, 3), dtype=bool)
    gt[0:3, 1, 1] = gt[5:8, 1, 1] = True          # two truth structures
    pred = np.zeros_like(gt)
    pred[1:7, 1, 1] = True                        # one prediction bridges them
    assert oracles.topology_counts(pred, gt) == (0, 0, 1, 0)
    assert oracles.topology_counts(gt, pred) == (0, 0, 0, 1)


def write_stl(path, triangles, count=None):
    body = b"\x00" * (50 * triangles)
    with open(path, "wb") as f:
        f.write(b"\x00" * 80 + struct.pack("<I", triangles if count is None else count) + body)


def test_truncated_or_miscounted_stl_rejected(tmp_path):
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True                           # six faces, twelve triangles
    good = str(tmp_path / "good.stl")
    write_stl(good, 12)
    assert oracles.check_stl(good, mask) == []
    with open(good, "rb") as f:
        blob = f.read()
    cut = str(tmp_path / "cut.stl")
    with open(cut, "wb") as f:
        f.write(blob[:-10])
    assert oracles.check_stl(cut, mask)
    short = str(tmp_path / "short.stl")
    with open(short, "wb") as f:
        f.write(blob[:40])
    assert oracles.check_stl(short, mask)
    fewer = str(tmp_path / "fewer.stl")
    write_stl(fewer, 10)
    assert oracles.check_stl(fewer, mask)


def test_stl_check_accepts_the_program(tmp_path):
    pred, _ = tube_masks()
    path = str(tmp_path / "m.stl")
    biliseg.write_stl(biliseg.extract_surface_mesh(biliseg.Mask(pred, biliseg.Spacing(*SPACING))), path)
    assert oracles.check_stl(path, pred) == []


def grown_case():
    params = biliseg.PhantomParams(dims=(24, 24, 10), spacing=SPACING, root=(12.0, 12.0, 1.0),
                                   root_direction=(0.1, 0.0, 1.0), segment_length=6.0, radius_root=3.0,
                                   noise_std=40.0, rng_seed=2)
    truth = biliseg.rasterize_tree(biliseg.generate_tree(params), params.dims, params.spacing)
    volume = biliseg.render_intensities(truth, params)
    stretched = oracles.stretch(volume.data, 1.0, 99.0)
    seed = tuple(int(c) for c in np.argwhere(truth.data)[0])
    grown = biliseg.region_grow(biliseg.Volume(stretched, volume.spacing), biliseg.RegionGrowConfig(seed=seed))
    return grown.data.copy(), stretched, seed


def check_grown(mask, stretched, seed):
    return oracles.check_region_grow(mask, stretched, seed, oracles.EDGE4_PROPAGATE,
                                     np.random.default_rng(0), sample=10**6)


def test_region_grow_check_accepts_the_program_and_rejects_wrong_masks():
    mask, stretched, seed = grown_case()
    assert mask.sum() > 1
    assert check_grown(mask, stretched, seed) == []

    detached = mask.copy()
    far = np.argwhere(~mask & ~np.roll(mask, 2, axis=0) & ~np.roll(mask, -2, axis=0))[0]
    detached[tuple(far)] = True
    assert check_grown(detached, stretched, seed)

    no_seed = mask.copy()
    no_seed[seed] = False
    assert check_grown(no_seed, stretched, seed)

    # a dropped member sits outside yet passes its threshold, or splits the mask
    member = next(tuple(p) for p in np.argwhere(mask) if tuple(p) != seed)
    shrunk = mask.copy()
    shrunk[member] = False
    assert check_grown(shrunk, stretched, seed)


def write_reports(tmp_path, groups):
    paths = {}
    for name, values in groups.items():
        paths[name] = []
        for i, v in enumerate(values):
            path = str(tmp_path / f"{name}{i}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"dsc": v, "hd_mm": 2 * v, "rvd": v / 3, "outliers": i % 2,
                           "false_communicating": 0, "false_non_communicating": i % 3}, f)
            paths[name].append(path)
    return paths


def test_compare_check_accepts_the_program_and_rejects_a_wrong_f(tmp_path, capsys):
    groups = {"a": [0.8, 0.82, 0.79, 0.85], "b": [0.6, 0.7, 0.65, 0.61]}
    paths = write_reports(tmp_path, groups)
    out = str(tmp_path / "cmp.json")
    argv = ["compare", "--out", out]
    for name, p in paths.items():
        argv += ["--group", name] + p
    assert cli.main(argv) == 0
    doc = oracles.load_json(out)
    reports = {name: [oracles.load_json(p) for p in ps] for name, ps in paths.items()}
    assert oracles.check_compare(doc, reports, {"DSC": "dsc", "outliers": "outliers",
                                                "false_communicating_IHDs": "false_communicating"}) == []
    doc["anova"]["DSC"]["f_stat"] *= 1 + 1e-6
    assert oracles.check_compare(doc, reports, {"DSC": "dsc"})
    doc = oracles.load_json(out)
    doc["anova"]["DSC"]["p_value"] += 1e-6
    assert oracles.check_compare(doc, reports, {"DSC": "dsc"})
    doc = oracles.load_json(out)
    doc["rows"][0]["DSC"] = "0.000 ±0.000"
    assert oracles.check_compare(doc, reports, {"DSC": "dsc"})


def test_replay_with_a_changed_byte_rejected(tmp_path):
    a, b = tmp_path / "a.nii", tmp_path / "b.nii"
    a.write_bytes(b"\x00\x01\x02")
    b.write_bytes(b"\x00\x01\x02")
    assert oracles.check_same_bytes(str(a), str(b), "replay") == []
    b.write_bytes(b"\x00\x01\x03")
    assert oracles.check_same_bytes(str(a), str(b), "replay")


def test_band_and_flood_references_match_the_program():
    _, stretched, seed = grown_case()
    volume = biliseg.Volume(stretched, biliseg.Spacing(*SPACING))
    cfg = biliseg.ThresholdConfig(100.0, 255.0, {2: (50.0, 200.0)})
    assert np.array_equal(biliseg.dual_threshold(volume, cfg).data,
                          oracles.band(stretched, 100.0, 255.0, {2: (50.0, 200.0)}))
    fill = biliseg.flood_fill(volume, biliseg.FloodFillConfig(seed, 60.0))
    assert np.array_equal(fill.data, oracles.flood_component(stretched, seed, 60.0, 6))


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    monkeypatch.delattr(biliseg.segmentation, "grow_from_seed")
    tracer = spans.Tracer()
    with tracer.installed():
        assert hasattr(biliseg.segmentation.dual_threshold, "__wrapped__")
        tracer.phase = "timed"
        with tracer.span("case"):
            biliseg.dual_threshold(biliseg.Volume(np.ones((3, 3, 3)), biliseg.Spacing(1, 1, 1)),
                                   biliseg.ThresholdConfig(0.0, 2.0))
    assert tracer.absent == ["biliseg.segmentation.grow_from_seed"]
    assert tracer.absent_metrics() == ["segmentation.grow_engine_s"]
    metrics = tracer.metrics(cases=1, setups=1)
    assert set(metrics) == set(spans.METRICS)
    assert metrics["segmentation.grow_engine_s"]["value"] == 0.0
    assert metrics["segmentation.threshold_s"]["value"] > 0.0
    # the wrappers are gone again
    assert biliseg.dual_threshold.__name__ == "dual_threshold"
    assert not hasattr(biliseg.dual_threshold, "__wrapped__")


def test_busy_and_self_time_from_nested_spans():
    tracer = spans.Tracer()
    tracer.spans = [["segmentation.region_grow", 0.0, 10.0, -1, "timed"],
                    ["segmentation.sauvola_field", 1.0, 3.0, 0, "timed"],
                    ["segmentation.grow_engine", 4.0, 8.0, 0, "timed"]]
    busy, own = tracer.layer_times("timed")
    assert busy["segmentation.region_grow"] == 10.0
    assert own["segmentation.region_grow"] == 4.0
    assert busy["segmentation.grow_engine"] == 4.0
    assert tracer.metrics(cases=2, setups=1)["segmentation.region_grow_s"]["value"] == 2.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tuning", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ops = type("Ops", (), {"times": {"case": [1.0], "segment": [1.0], "evaluate": [1.0]}})
    printed = run.end_to_end(ops, 1.0, 1, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: v["unit"] for k, v in printed.items()}
    per_layer = {name: unit for name, (unit, _, _) in spans.METRICS.items()}
    per_layer.update({"setup.cold_s": "s", "trace.case_s.p50": "s", "trace.spans_per_case": "count"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(workloads.DEFAULT_SEEDS)
