import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import example, given, settings, strategies as st

from biliseg import Mask, PreprocessParams, Spacing, __version__, read_nifti, stretch_and_crop, write_nifti
import biliseg.cli
from biliseg.cli import main
from biliseg.core import in_bounds
from biliseg.phantom import MAX_SEGMENTS, MAX_VOXELS

PHANTOM = {
    "dims": [32, 32, 12],
    "spacing": [1.0, 1.0, 1.5],
    "root": [16.0, 16.0, -2.0],
    "root_direction": [0.0, 0.0, 1.0],
    "segment_length": 24.0,
    "radius_root": 3.0,
    "radius_taper": 0.9,
    "branch_probability": 0.0,
    "branch_angle": 0.0,
    "max_depth": 0,
    "fg_mean": 200.0,
    "bg_mean": 10.0,
    "noise_std": 0.0,
    "rng_seed": 5,
}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def demo_volume(tmp_path_factory):
    """The demo phantom from configs/phantom_demo.json, made once per module."""
    d = tmp_path_factory.mktemp("demo")
    vol = d / "vol.nii"
    assert main(["phantom", "--config", str(CONFIGS / "phantom_demo.json"),
                 "--out-volume", str(vol), "--out-truth", str(d / "truth.nii")]) == 0
    return vol


SEED_OUTSIDE_DEMO_CROP = [5, 5, 2]

# configs/segment_demo.json with one value made invalid: (method, edit)
BAD_SEGMENT_VALUES = {
    "floodfill-not-an-object": ("floodfill", lambda c: c.update(floodfill=5)),
    "tolerance": ("floodfill", lambda c: c["floodfill"].update(tolerance="x")),
    "k": ("regiongrow", lambda c: c["regiongrow"].update(k="x")),
    "R": ("regiongrow", lambda c: c["regiongrow"].update(R="x")),
    "window": ("regiongrow", lambda c: c["regiongrow"].update(window="x")),
    "override-slice-key": ("threshold", lambda c: c["threshold"].update(
        per_slice_overrides={"abc": [100, 200]})),
    "p_low": ("regiongrow", lambda c: c["preprocess"].update(p_low="1")),
    "min_size-voxels": ("regiongrow", lambda c: c.update(
        postprocess=[{"policy": "min_size", "voxels": "abc"}])),
    "propagate_slices-string": ("regiongrow", lambda c: c["regiongrow"].update(propagate_slices="false")),
    "crop_enabled-string": ("regiongrow", lambda c: c["preprocess"].update(crop_enabled="no")),
    "window-fraction": ("regiongrow", lambda c: c["regiongrow"].update(window=5.9)),
    "seed-fraction": ("regiongrow", lambda c: c["regiongrow"].update(seed=[48.9, 48, 2])),
    "tolerance-bool": ("floodfill", lambda c: c["floodfill"].update(tolerance=True)),
    "tolerance-nan": ("floodfill", lambda c: c["floodfill"].update(tolerance=float("nan"))),
    "min_size-voxels-fraction": ("regiongrow", lambda c: c.update(
        postprocess=[{"policy": "min_size", "voxels": 2.5}])),
    "connectivity-string": ("floodfill", lambda c: c["floodfill"].update(connectivity="6")),
    "k-numeric-string": ("regiongrow", lambda c: c["regiongrow"].update(k="0.5")),
    "t_min-beyond-float": ("threshold", lambda c: c["threshold"].update(t_min=10**400)),
    "method-unknown": ("threshold", lambda c: c.update(method="watershed")),
    "overrides-list": ("threshold", lambda c: c["threshold"].update(per_slice_overrides=[1, 2])),
    # the demo crop is on, so _run_method checks the slice against the volume's 32
    "override-slice-beyond-the-volume": ("threshold", lambda c: c["threshold"].update(
        per_slice_overrides={"99": [100, 200]})),
    "t_max-missing": ("threshold", lambda c: c["threshold"].pop("t_max")),
    "seed-missing": ("regiongrow", lambda c: c["regiongrow"].pop("seed")),
    "min_size-without-voxels": ("regiongrow", lambda c: c.update(postprocess=[{"policy": "min_size"}])),
    "postprocess-object": ("regiongrow", lambda c: c.update(postprocess={"policy": "keep_largest"})),
    "keep_seeded-no-seeds": ("regiongrow", lambda c: c.update(
        postprocess=[{"policy": "keep_seeded", "seeds": []}])),
    # inside the 96x96x32 demo grid, outside its crop box (checked below)
    "seed-outside-the-crop-box": ("floodfill", lambda c: c["floodfill"].update(seed=SEED_OUTSIDE_DEMO_CROP)),
}


@pytest.fixture()
def phantom_files(tmp_path):
    cfg = write_json(tmp_path / "phantom.json", PHANTOM)
    vol = tmp_path / "vol.nii"
    truth = tmp_path / "truth.nii"
    assert main(["phantom", "--config", cfg, "--out-volume", str(vol), "--out-truth", str(truth)]) == 0
    return vol, truth


class TestPhantomCommand:
    def test_writes_both_files(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", PHANTOM)
        rc = main(["phantom", "--config", cfg,
                   "--out-volume", str(tmp_path / "v.nii"),
                   "--out-truth", str(tmp_path / "t.nii")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "component(s)" in out and "foreground voxels" in out
        assert (tmp_path / "v.nii").exists() and (tmp_path / "t.nii").exists()

    def test_malformed_json_exit_2_no_partial_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        rc = main(["phantom", "--config", str(bad),
                   "--out-volume", str(tmp_path / "v.nii"),
                   "--out-truth", str(tmp_path / "t.nii")])
        assert rc == 2
        assert not (tmp_path / "v.nii").exists()
        assert not (tmp_path / "t.nii").exists()

    @pytest.mark.parametrize("blob", [b'{"dims": ' + b"1" * 5000 + b"}", b'{"dims": "\xff"}',
                                      b"[" * 100000 + b"]" * 100000],
                             ids=["long-integer", "not-utf8", "deep-nesting"])
    def test_unreadable_json_exit_2(self, tmp_path, capsys, blob):
        (tmp_path / "p.json").write_bytes(blob)
        assert main(["phantom", "--config", str(tmp_path / "p.json"),
                     "--out-volume", str(tmp_path / "v.nii"), "--out-truth", str(tmp_path / "t.nii")]) == 2
        assert capsys.readouterr().err.startswith("error: malformed JSON")

    def test_invalid_params_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", dict(PHANTOM, fg_mean=0.0))
        rc = main(["phantom", "--config", cfg,
                   "--out-volume", str(tmp_path / "v.nii"),
                   "--out-truth", str(tmp_path / "t.nii")])
        assert rc == 2

    def test_zero_dim_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", dict(PHANTOM, dims=[0, 8, 8]))
        rc = main(["phantom", "--config", cfg,
                   "--out-volume", str(tmp_path / "v.nii"),
                   "--out-truth", str(tmp_path / "t.nii")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dims must be three positive integers" in err
        assert not (tmp_path / "v.nii").exists() and not (tmp_path / "t.nii").exists()

    def test_negative_rng_seed_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", dict(PHANTOM, rng_seed=-1))
        rc = main(["phantom", "--config", cfg,
                   "--out-volume", str(tmp_path / "v.nii"),
                   "--out-truth", str(tmp_path / "t.nii")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rng_seed" in err
        assert not (tmp_path / "v.nii").exists() and not (tmp_path / "t.nii").exists()

    def test_huge_radius_fills_the_grid(self, tmp_path, capsys):
        doc = dict(json.loads((CONFIGS / "phantom_demo.json").read_text()), radius_root=1e300)
        cfg = write_json(tmp_path / "p.json", doc)
        rc = main(["phantom", "--config", cfg,
                   "--out-volume", str(tmp_path / "v.nii"),
                   "--out-truth", str(tmp_path / "t.nii")])
        assert rc == 0, capsys.readouterr().err
        assert read_nifti(tmp_path / "t.nii", as_mask=True).data.all()

    def run_demo_phantom(self, tmp_path, name, **changes):
        doc = dict(json.loads((CONFIGS / "phantom_demo.json").read_text()), **changes)
        cfg = write_json(tmp_path / f"{name}.json", doc)
        return main(["phantom", "--config", cfg, "--out-volume", str(tmp_path / f"{name}_v.nii"),
                     "--out-truth", str(tmp_path / f"{name}_t.nii")])

    def test_segment_length_far_past_the_grid_draws_the_tube(self, tmp_path, capsys):
        # |ab|**2 of a 1e300 mm segment is past the largest float
        assert self.run_demo_phantom(tmp_path, "long", segment_length=1e300) == 0
        assert capsys.readouterr().err == ""
        truth = read_nifti(tmp_path / "long_t.nii", as_mask=True)
        assert truth.data.any(axis=(0, 1)).all()  # the root tube crosses every slice
        assert truth.count() == 1031

    def test_tree_near_the_largest_float_on_fine_voxels(self, tmp_path, capsys):
        # the bounds of a 4e307 mm segment over 0.3 mm voxels are past the largest float
        assert self.run_demo_phantom(tmp_path, "far", spacing=[0.3, 0.3, 0.3], root=[14.0, 14.0, 1.0],
                                     radius_root=1.5, segment_length=4e307) == 0
        assert capsys.readouterr().err == ""
        assert read_nifti(tmp_path / "far_t.nii", as_mask=True).count() == 2470
        assert (hashlib.sha256((tmp_path / "far_t.nii").read_bytes()).hexdigest()
                == "a9964e97e18472a8818a75f9bf82471feb0aa40740dea825ae9de6266a159be7")

    def test_overflowing_noise_clamps_without_a_warning(self, tmp_path, capsys):
        # noise_std * z is past the largest float wherever |z| > 1.8
        assert self.run_demo_phantom(tmp_path, "loud", noise_std=1e308) == 0
        assert capsys.readouterr().err == ""
        values = read_nifti(tmp_path / "loud_v.nii").data
        assert set(np.unique(values).tolist()) <= {0.0, 255.0}

    def test_radius_near_the_largest_float_fills_the_grid(self, tmp_path, capsys):
        # r * r and the squares of distances along a 1e300 mm segment are past the largest float
        assert self.run_demo_phantom(tmp_path, "wide", segment_length=1e300, radius_root=1.797e308) == 0
        assert capsys.readouterr().err == ""
        assert read_nifti(tmp_path / "wide_t.nii", as_mask=True).count() == 294_912  # all of 96 x 96 x 32

    def test_tree_past_the_largest_float_exit_2(self, tmp_path, capsys):
        assert self.run_demo_phantom(tmp_path, "huge", segment_length=1e308) == 2
        assert capsys.readouterr().err.startswith("error: segment_length 1e+308 over 4 segments")
        assert not (tmp_path / "huge_v.nii").exists() and not (tmp_path / "huge_t.nii").exists()

    def test_dim_past_the_nifti_header_exit_2(self, tmp_path, capsys):
        # 40000 x 3 x 1 is under MAX_VOXELS, but dim[] is int16 in the header
        assert self.run_demo_phantom(tmp_path, "long", dims=[40000, 3, 1], spacing=[1.0, 1.0, 1.0],
                                     root=[10.0, 1.0, 0.0], root_direction=[1.0, 0.0, 0.0],
                                     radius_root=1.0, max_depth=1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dims (40000, 3, 1)") and "Traceback" not in err
        assert not (tmp_path / "long_v.nii").exists() and not (tmp_path / "long_t.nii").exists()

    def test_root_direction_of_any_magnitude(self, tmp_path, capsys):
        # |root_direction|**2 overflows; the direction is the same as (1, 1, 1)'s
        assert self.run_demo_phantom(tmp_path, "big", root_direction=[1e300] * 3) == 0
        assert self.run_demo_phantom(tmp_path, "one", root_direction=[1.0] * 3) == 0
        assert capsys.readouterr().err == ""
        for suffix in ("_v.nii", "_t.nii"):
            assert (tmp_path / f"big{suffix}").read_bytes() == (tmp_path / f"one{suffix}").read_bytes()

    def test_unwritable_output_exit_3(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", PHANTOM)
        rc = main(["phantom", "--config", cfg,
                   "--out-volume", str(tmp_path / "no" / "such" / "dir" / "v.nii"),
                   "--out-truth", str(tmp_path / "t.nii")])
        assert rc == 3


class TestSegmentCommand:
    def seg_config(self, tmp_path, **extra):
        doc = {
            "method": "threshold",
            "preprocess": {"p_low": 0.0, "p_high": 100.0},
            "threshold": {"t_min": 105.0, "t_max": 255.0},
            "postprocess": [],
        }
        doc.update(extra)
        return write_json(tmp_path / "seg.json", doc)

    def test_threshold_pipeline_recovers_truth(self, tmp_path, phantom_files):
        vol, truth = phantom_files
        cfg = self.seg_config(tmp_path)
        pred = tmp_path / "pred.nii"
        assert main(["segment", "--in", str(vol), "--out", str(pred), "--config", cfg]) == 0
        got = read_nifti(pred, as_mask=True)
        want = read_nifti(truth, as_mask=True)
        assert (got.data == want.data).all()

    def test_sidecar_records_defaults(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = write_json(tmp_path / "rg.json", {
            "method": "regiongrow",
            "preprocess": {"p_low": 0.0, "p_high": 100.0},
            "regiongrow": {"seed": [16, 16, 6]},
        })
        pred = tmp_path / "rg.nii"
        assert main(["segment", "--in", str(vol), "--out", str(pred), "--config", cfg]) == 0
        sidecar = json.loads((tmp_path / "rg.nii.provenance.json").read_text())
        assert sidecar["regiongrow"] == {
            "seed": [16, 16, 6], "k": 0.3, "R": 100.0, "window": 3,
            "in_slice_connectivity": 4, "propagate_slices": True,
        }
        assert sidecar["preprocess"]["crop_enabled"] is False
        assert sidecar["method"] == "regiongrow"

    def test_sidecar_replays_identically(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = self.seg_config(tmp_path)
        first = tmp_path / "first.nii"
        assert main(["segment", "--in", str(vol), "--out", str(first), "--config", cfg]) == 0
        sidecar = tmp_path / "first.nii.provenance.json"
        replayed = tmp_path / "replayed.nii"
        assert main(["segment", "--out", str(replayed), "--config", str(sidecar)]) == 0
        assert first.read_bytes() == replayed.read_bytes()
        assert sidecar.read_text().replace("first.nii", "replayed.nii") == \
            (tmp_path / "replayed.nii.provenance.json").read_text()

    def test_null_overrides_are_recorded_empty_and_replay_identically(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = self.seg_config(tmp_path, threshold={"t_min": 105.0, "t_max": 255.0,
                                                   "per_slice_overrides": None})
        first = tmp_path / "first.nii"
        assert main(["segment", "--in", str(vol), "--out", str(first), "--config", cfg]) == 0
        sidecar = tmp_path / "first.nii.provenance.json"
        assert json.loads(sidecar.read_text())["threshold"]["per_slice_overrides"] == {}
        replayed = tmp_path / "replayed.nii"
        assert main(["segment", "--out", str(replayed), "--config", str(sidecar)]) == 0
        assert first.read_bytes() == replayed.read_bytes()
        assert sidecar.read_text().replace("first.nii", "replayed.nii") == \
            (tmp_path / "replayed.nii.provenance.json").read_text()

    @pytest.mark.parametrize("method", ["threshold", "floodfill", "regiongrow"])
    def test_cropped_sidecar_replays_identically(self, tmp_path, method):
        # a tube over the lower slices only, so the crop leaves out the upper ones
        phantom = write_json(tmp_path / "p.json", dict(PHANTOM, dims=[32, 32, 16], segment_length=12.0))
        vol = tmp_path / "vol.nii"
        assert main(["phantom", "--config", phantom, "--out-volume", str(vol),
                     "--out-truth", str(tmp_path / "truth.nii")]) == 0
        cfg = write_json(tmp_path / "seg.json", {
            "method": method,
            "preprocess": {"p_low": 0.0, "p_high": 100.0, "crop_enabled": True,
                           "crop_percentile": 99.0, "crop_margin": 2},
            "threshold": {"t_min": 105.0, "t_max": 255.0,
                          "per_slice_overrides": {"3": [100.0, 255.0], "14": [0.0, 255.0]}},
            "floodfill": {"seed": [16, 16, 3], "tolerance": 50.0},
            "regiongrow": {"seed": [16, 16, 3]},
            "postprocess": [{"policy": "min_size", "voxels": 5},
                            {"policy": "keep_seeded", "seeds": [[16, 16, 3]]}],
        })
        first = tmp_path / "first.nii"
        assert main(["segment", "--in", str(vol), "--out", str(first), "--config", cfg]) == 0
        sidecar = tmp_path / "first.nii.provenance.json"
        doc = json.loads(sidecar.read_text())
        assert doc["derived"]["crop_bbox"]["hi"][2] < 14
        replayed = tmp_path / "replayed.nii"
        assert main(["segment", "--out", str(replayed), "--config", str(sidecar)]) == 0
        assert first.read_bytes() == replayed.read_bytes()
        assert sidecar.read_text().replace("first.nii", "replayed.nii") == \
            (tmp_path / "replayed.nii.provenance.json").read_text()

    # configs/segment_demo.json's sidecar under each --method, pinned as text
    # so that any change in how configs are written back fails
    DEMO_SIDECAR = (
        '{"tool": "biliseg", "version": "VERSION", "command": "segment", "input": "IN", "output": "OUT", '
        '"method": "METHOD", "preprocess": {"p_low": 1.0, "p_high": 99.9, "crop_enabled": true, '
        '"crop_percentile": 99.5, "crop_margin": 5}, SECTION, "postprocess": [POLICY], '
        '"derived": {"crop_bbox": {"lo": [40, 30, 0], "hi": [62, 65, 31]}, "mask_voxels": VOXELS}}')
    DEMO_SECTIONS = {
        "threshold": '"threshold": {"t_min": 120.0, "t_max": 255.0, "per_slice_overrides": {}}',
        "floodfill": '"floodfill": {"seed": [48, 48, 2], "tolerance": 80.0, "connectivity": 6}',
        "regiongrow": ('"regiongrow": {"seed": [48, 48, 2], "k": 0.3, "R": 100.0, "window": 3, '
                       '"in_slice_connectivity": 4, "propagate_slices": true}'),
    }
    # the demo config with per-slice overrides keyed 10 and 2 (written back in
    # numeric order, which is not their string order), a keep_seeded policy
    # (a tuple of tuples) and a flood-fill connectivity of 26 (an IntEnum)
    ENCODER_EDIT = {
        "threshold": {"t_min": 120.0, "t_max": 255.0,
                      "per_slice_overrides": {"10": [130.0, 250.0], "2": [100.0, 255.0]}},
        "floodfill": {"seed": [48, 48, 2], "tolerance": 80.0, "connectivity": 26},
        "postprocess": [{"policy": "keep_seeded", "seeds": [[48, 48, 2]]}],
    }
    ENCODER_SECTIONS = {
        "threshold": ('"threshold": {"t_min": 120.0, "t_max": 255.0, '
                      '"per_slice_overrides": {"2": [100.0, 255.0], "10": [130.0, 250.0]}}', 1566),
        "floodfill": ('"floodfill": {"seed": [48, 48, 2], "tolerance": 80.0, "connectivity": 26}', 1578),
    }

    def test_demo_sidecar_text_is_pinned(self, tmp_path, demo_volume):
        demo = CONFIGS / "segment_demo.json"
        edited = write_json(tmp_path / "edited.json", dict(json.loads(demo.read_text()), **self.ENCODER_EDIT))
        cases = [(method, str(demo), section, '{"policy": "keep_largest"}', 1578)
                 for method, section in self.DEMO_SECTIONS.items()]
        cases += [(method, edited, section, '{"policy": "keep_seeded", "seeds": [[48, 48, 2]]}', voxels)
                  for method, (section, voxels) in self.ENCODER_SECTIONS.items()]
        for i, (method, cfg, section, policy, voxels) in enumerate(cases):
            out = tmp_path / f"{i}.nii"
            assert main(["segment", "--in", str(demo_volume), "--out", str(out), "--method", method,
                         "--config", cfg]) == 0
            pinned = (self.DEMO_SIDECAR.replace("VERSION", __version__).replace("METHOD", method)
                      .replace('"IN"', json.dumps(str(demo_volume))).replace('"OUT"', json.dumps(str(out)))
                      .replace("SECTION", section).replace("POLICY", policy).replace("VOXELS", str(voxels)))
            want = json.dumps(json.loads(pinned), indent=2) + "\n"
            assert (tmp_path / f"{i}.nii.provenance.json").read_text() == want, (method, cfg)

    # SHA-256 of the masks segment writes for configs/segment_demo.json under
    # every --method, with its own postprocess and with CHAIN, crop on and off,
    # and for a low threshold band without crop that keeps 15 components after
    # min_size; pinned so that any change in labeling or postprocess fails
    DEMO_MASK = "8be82c1c241e066d9a60e4d86297d5edbc2e1edf5e639b2d76ffd87bf8b13366"
    CHAIN = [{"policy": "min_size", "voxels": 20}, {"policy": "keep_seeded", "seeds": [[48, 48, 2]]},
             {"policy": "keep_largest"}]
    LOW_BAND_MIN_SIZE = "d43a5efd67940fb30f871687186ef51507d34e19ee75be4255f519ab9ef886a7"
    LOW_BAND_LARGEST = "c12909fb3fc2a5b932e1a8a14c3ff34fb4e751a43125640611c3264e8cc4e9a3"

    def test_demo_mask_bytes_are_pinned(self, tmp_path, demo_volume):
        base = json.loads((CONFIGS / "segment_demo.json").read_text())
        cases = [(method, dict(base, postprocess=pp, preprocess=dict(base["preprocess"], crop_enabled=crop)),
                  self.DEMO_MASK)
                 for method in ("threshold", "floodfill", "regiongrow")
                 for pp in (base["postprocess"], self.CHAIN) for crop in (True, False)]
        low_band = dict(base, threshold={"t_min": 40.0, "t_max": 255.0},
                        preprocess=dict(base["preprocess"], crop_enabled=False))
        cases += [("threshold", dict(low_band, postprocess=[{"policy": "min_size", "voxels": 2}]),
                   self.LOW_BAND_MIN_SIZE),
                  ("threshold", dict(low_band, postprocess=[{"policy": "min_size", "voxels": 2},
                                                            {"policy": "keep_largest"}]),
                   self.LOW_BAND_LARGEST)]
        for i, (method, cfg, want) in enumerate(cases):
            out = tmp_path / f"{i}.nii"
            assert main(["segment", "--in", str(demo_volume), "--out", str(out), "--method", method,
                         "--config", write_json(tmp_path / f"{i}.json", cfg)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == want, (method, cfg)

    # SHA-256 of the STL that mesh writes for the demo truth and for the demo
    # regiongrow mask (the two masks are equal); pinned so that any change in
    # triangle order, winding or float32 vertex values fails
    DEMO_STL = "03c0658bbcc30af796d495fc6ecde24c7ad602a5b9ac81aa491bb9a95673ce13"

    def test_demo_stl_bytes_are_pinned(self, tmp_path, demo_volume):
        mask = tmp_path / "regiongrow.nii"
        assert main(["segment", "--in", str(demo_volume), "--out", str(mask), "--method", "regiongrow",
                     "--config", str(CONFIGS / "segment_demo.json")]) == 0
        for src in (demo_volume.parent / "truth.nii", mask):
            stl = tmp_path / f"{src.stem}.stl"
            assert main(["mesh", "--in", str(src), "--out", str(stl)]) == 0
            assert hashlib.sha256(stl.read_bytes()).hexdigest() == self.DEMO_STL, src.name

    def test_methods_are_called_through_their_module_names(self, tmp_path, demo_volume, monkeypatch):
        # a tracer sees a method only if segment calls it through the name it rebinds
        calls = []
        for name in ("dual_threshold", "flood_fill", "region_grow"):
            original = getattr(biliseg.cli, name)
            monkeypatch.setattr(biliseg.cli, name,
                                lambda *a, _name=name, _f=original: calls.append(_name) or _f(*a))
        for method, name in (("threshold", "dual_threshold"), ("floodfill", "flood_fill"),
                             ("regiongrow", "region_grow")):
            calls.clear()
            assert main(["segment", "--in", str(demo_volume), "--out", str(tmp_path / f"{method}.nii"),
                         "--method", method, "--config", str(CONFIGS / "segment_demo.json")]) == 0
            assert calls == [name]

    def test_only_threshold_masks_are_labeled_for_postprocess(self, tmp_path, demo_volume, monkeypatch):
        # besides the crop's labeling, a threshold mask is labeled for its
        # postprocess, while a flood-fill or region-growing mask is labeled
        # only by the growth engine: it is one VERTEX26 component
        calls = []
        original = scipy.ndimage.label
        monkeypatch.setattr(scipy.ndimage, "label", lambda *a, **k: calls.append(1) or original(*a, **k))
        for method in biliseg.cli.METHODS:
            calls.clear()
            assert main(["segment", "--in", str(demo_volume), "--out", str(tmp_path / f"{method}.nii"),
                         "--method", method, "--config", str(CONFIGS / "segment_demo.json")]) == 0
            assert len(calls) == 2, method

    def test_demo_configs_draw_no_warning(self, tmp_path, demo_volume, capsys):
        capsys.readouterr()
        for method in biliseg.cli.METHODS:
            assert main(["segment", "--in", str(demo_volume), "--out", str(tmp_path / f"{method}.nii"),
                         "--method", method, "--config", str(CONFIGS / "segment_demo.json")]) == 0
            assert capsys.readouterr().err == "", method

    def test_flooding_seeded_mask_warns_and_changes_nothing_else(self, tmp_path, phantom_files,
                                                                 capsys, monkeypatch):
        vol, _ = phantom_files
        # a tolerance that spans the whole intensity range floods every voxel
        cfg = write_json(tmp_path / "flood.json", {
            "method": "floodfill", "floodfill": {"seed": [16, 16, 6], "tolerance": 255.0},
            "postprocess": [{"policy": "keep_largest"}]})
        runs = {}
        for fraction in (biliseg.cli.FLOOD_WARNING_FRACTION, 1.0):
            monkeypatch.setattr(biliseg.cli, "FLOOD_WARNING_FRACTION", fraction)
            out = tmp_path / f"{fraction}.nii"
            rc = main(["segment", "--in", str(vol), "--out", str(out), "--config", cfg])
            captured = capsys.readouterr()
            sidecar = (tmp_path / f"{fraction}.nii.provenance.json").read_text()
            runs[fraction] = (rc, captured.out.replace(out.name, "OUT"), out.read_bytes(),
                              sidecar.replace(out.name, "OUT"), captured.err)
        (rc, out, mask, sidecar, err), quiet = runs.values()
        assert err.startswith("warning: floodfill reached 100.0% of the input grid, more than 25%")
        assert err.count("\n") == 1
        assert quiet == (rc, out, mask, sidecar, "") and rc == 0

    def test_flooding_threshold_mask_draws_no_warning(self, tmp_path, phantom_files, capsys):
        vol, _ = phantom_files
        cfg = write_json(tmp_path / "band.json", {
            "method": "threshold", "threshold": {"t_min": -1.0, "t_max": 255.0}})
        capsys.readouterr()
        assert main(["segment", "--in", str(vol), "--out", str(tmp_path / "m.nii"), "--config", cfg]) == 0
        assert capsys.readouterr().err == ""

    def test_idempotent_bytes(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = self.seg_config(tmp_path)
        a, b = tmp_path / "a.nii", tmp_path / "b.nii"
        assert main(["segment", "--in", str(vol), "--out", str(a), "--config", cfg]) == 0
        assert main(["segment", "--in", str(vol), "--out", str(b), "--config", cfg]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.nii.provenance.json").read_text().replace("a.nii", "b.nii") == \
            (tmp_path / "b.nii.provenance.json").read_text()

    def test_seed_out_of_bounds_exit_2(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = write_json(tmp_path / "ff.json", {
            "method": "floodfill",
            "floodfill": {"seed": [999, 0, 0], "tolerance": 10.0},
        })
        rc = main(["segment", "--in", str(vol), "--out", str(tmp_path / "m.nii"), "--config", cfg])
        assert rc == 2

    def test_empty_mask_exit_4_but_written(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = write_json(tmp_path / "none.json", {
            "method": "threshold",
            "preprocess": {"p_low": 0.0, "p_high": 100.0},
            "threshold": {"t_min": 300.0, "t_max": 400.0},
        })
        out = tmp_path / "empty.nii"
        rc = main(["segment", "--in", str(vol), "--out", str(out), "--config", cfg])
        assert rc == 4
        assert read_nifti(out, as_mask=True).count() == 0

    @pytest.mark.parametrize("method, policies", [
        ("threshold", [{"policy": "keep_seeded", "seeds": [[0, 0, 0]]}]),
        ("floodfill", [{"policy": "keep_seeded", "seeds": [[0, 0, 0]]}]),
        # min_size empties the grown mask, so its own seed then lies off every component
        ("regiongrow", [{"policy": "min_size", "voxels": 10**6},
                        {"policy": "keep_seeded", "seeds": [[48, 48, 2]]}]),
    ])
    def test_policy_that_finds_no_component_exit_4(self, tmp_path, demo_volume, capsys,
                                                    method, policies):
        doc = dict(json.loads((CONFIGS / "segment_demo.json").read_text()), postprocess=policies)
        out = tmp_path / "m.nii"
        capsys.readouterr()
        assert main(["segment", "--in", str(demo_volume), "--out", str(out), "--method", method,
                     "--config", write_json(tmp_path / "seg.json", doc)]) == 4
        assert capsys.readouterr().err == "segment: degenerate result (empty mask)\n"
        mask = read_nifti(out, as_mask=True)
        assert mask.count() == 0 and mask.dims == read_nifti(demo_volume).dims
        assert json.loads((tmp_path / "m.nii.provenance.json").read_text())["derived"]["mask_voxels"] == 0

    def test_method_flag_overrides_config(self, tmp_path, phantom_files):
        vol, truth = phantom_files
        cfg = write_json(tmp_path / "both.json", {
            "method": "threshold",
            "preprocess": {"p_low": 0.0, "p_high": 100.0},
            "threshold": {"t_min": 300.0, "t_max": 400.0},
            "floodfill": {"seed": [16, 16, 6], "tolerance": 50.0},
        })
        out = tmp_path / "ff.nii"
        rc = main(["segment", "--in", str(vol), "--out", str(out), "--config", cfg,
                   "--method", "floodfill"])
        assert rc == 0
        want = read_nifti(truth, as_mask=True)
        assert (read_nifti(out, as_mask=True).data == want.data).all()

    def test_unknown_config_key_exit_2(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = write_json(tmp_path / "typo.json", {
            "method": "threshold",
            "threshold": {"t_min": 10.0, "t_max": 20.0},
            "postproces": [],
        })
        assert main(["segment", "--in", str(vol), "--out", str(tmp_path / "m.nii"),
                     "--config", cfg]) == 2

    @pytest.mark.parametrize("case", sorted(BAD_SEGMENT_VALUES))
    def test_bad_config_value_exit_2(self, tmp_path, demo_volume, capsys, case):
        method, edit = BAD_SEGMENT_VALUES[case]
        doc = json.loads((CONFIGS / "segment_demo.json").read_text())
        doc["method"] = method
        edit(doc)
        cfg = write_json(tmp_path / "bad.json", doc)
        out = tmp_path / "m.nii"
        # main() returning at all means no exception escaped it
        assert main(["segment", "--in", str(demo_volume), "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_seed_outside_the_demo_crop_box_lies_in_the_grid(self, demo_volume):
        # so that its BAD_SEGMENT_VALUES case fails on the crop box, not the grid
        volume = read_nifti(demo_volume)
        preprocess = json.loads((CONFIGS / "segment_demo.json").read_text())["preprocess"]
        _, box = stretch_and_crop(volume, PreprocessParams(**preprocess))
        seed = SEED_OUTSIDE_DEMO_CROP
        assert in_bounds(seed, volume.dims) and not in_bounds(np.subtract(seed, box.lo), box.shape())

    @pytest.mark.parametrize("case", ["no-paths", "method-flag-without-section"])
    def test_unrunnable_invocation_exit_2(self, tmp_path, demo_volume, capsys, case):
        doc = json.loads((CONFIGS / "segment_demo.json").read_text())
        out = tmp_path / "m.nii"
        if case == "no-paths":  # neither the flags nor the config name the input and output
            argv, want = [], "an input and an output path"
        else:
            del doc["floodfill"]
            argv, want = ["--in", str(demo_volume), "--out", str(out), "--method", "floodfill"], \
                "no 'floodfill' section"
        assert main(["segment", *argv, "--config", write_json(tmp_path / "seg.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and want in err
        assert not out.exists()

    def test_crop_pipeline_maps_back_to_full_grid(self, tmp_path, phantom_files):
        vol, truth = phantom_files
        cfg = write_json(tmp_path / "crop.json", {
            "method": "threshold",
            "preprocess": {"p_low": 0.0, "p_high": 100.0, "crop_enabled": True,
                           "crop_percentile": 99.0, "crop_margin": 2},
            "threshold": {"t_min": 105.0, "t_max": 255.0},
        })
        out = tmp_path / "cropseg.nii"
        assert main(["segment", "--in", str(vol), "--out", str(out), "--config", cfg]) == 0
        got = read_nifti(out, as_mask=True)
        want = read_nifti(truth, as_mask=True)
        assert got.dims == want.dims
        assert (got.data == want.data).all()
        sidecar = json.loads((tmp_path / "cropseg.nii.provenance.json").read_text())
        assert sidecar["derived"]["crop_bbox"] is not None
        # replaying the sidecar reproduces the cropped run byte for byte
        replay = tmp_path / "cropseg_replay.nii"
        assert main(["segment", "--out", str(replay),
                     "--config", str(tmp_path / "cropseg.nii.provenance.json")]) == 0
        assert replay.read_bytes() == out.read_bytes()


class TestEvaluateCommand:
    def test_perfect_prediction(self, tmp_path, phantom_files, capsys):
        _, truth = phantom_files
        out = tmp_path / "rep.json"
        rc = main(["evaluate", "--in", str(truth), "--truth", str(truth), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dsc"] == 1.0 and doc["hd_mm"] == 0.0 and doc["rvd"] == 0.0
        assert doc["outliers"] == 0 and doc["false_communicating"] == 0

    def test_split_case_reported(self, tmp_path):
        gt = np.zeros((9, 5, 1), bool)
        gt[0:9, 1, 0] = True
        pred = gt.copy()
        pred[4, 1, 0] = False
        pred[4, 4, 0] = True
        sp = Spacing(1, 1, 1)
        write_nifti(Mask(gt, sp), tmp_path / "gt.nii")
        write_nifti(Mask(pred, sp), tmp_path / "pred.nii")
        out = tmp_path / "rep.json"
        rc = main(["evaluate", "--in", str(tmp_path / "pred.nii"),
                   "--truth", str(tmp_path / "gt.nii"), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["false_non_communicating"] == 1
        assert doc["outliers"] == 1

    def test_geometry_mismatch_exit_2(self, tmp_path):
        sp = Spacing(1, 1, 1)
        write_nifti(Mask(np.ones((4, 4, 4), bool), sp), tmp_path / "a.nii")
        write_nifti(Mask(np.ones((4, 4, 5), bool), sp), tmp_path / "b.nii")
        rc = main(["evaluate", "--in", str(tmp_path / "a.nii"),
                   "--truth", str(tmp_path / "b.nii"), "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_empty_truth_exit_4(self, tmp_path):
        sp = Spacing(1, 1, 1)
        write_nifti(Mask(np.ones((4, 4, 4), bool), sp), tmp_path / "a.nii")
        write_nifti(Mask(np.zeros((4, 4, 4), bool), sp), tmp_path / "empty.nii")
        rc = main(["evaluate", "--in", str(tmp_path / "a.nii"),
                   "--truth", str(tmp_path / "empty.nii"), "--out", str(tmp_path / "r.json")])
        assert rc == 4

    def test_missing_input_exit_3(self, tmp_path):
        sp = Spacing(1, 1, 1)
        write_nifti(Mask(np.ones((4, 4, 4), bool), sp), tmp_path / "a.nii")
        rc = main(["evaluate", "--in", str(tmp_path / "nope.nii"),
                   "--truth", str(tmp_path / "a.nii"), "--out", str(tmp_path / "r.json")])
        assert rc == 3


def fake_report(path, **values):
    doc = {"dsc": 0.8, "hd_mm": 1.0, "hd_directed_pred_to_gt": 1.0,
           "hd_directed_gt_to_pred": 0.5, "rvd": 0.2, "outliers": 3,
           "missed_components": 0, "false_communicating": 1, "false_non_communicating": 0}
    doc.update(values)
    path.write_text(json.dumps(doc))
    return str(path)


class TestCompareCommand:
    def make_reports(self, tmp_path):
        a1 = fake_report(tmp_path / "a1.json", dsc=0.80)
        a2 = fake_report(tmp_path / "a2.json", dsc=0.90)
        b1 = fake_report(tmp_path / "b1.json", dsc=0.60)
        b2 = fake_report(tmp_path / "b2.json", dsc=0.70)
        return a1, a2, b1, b2

    def test_summary_table_and_anova(self, tmp_path):
        a1, a2, b1, b2 = self.make_reports(tmp_path)
        out = tmp_path / "summary.json"
        rc = main(["compare", "--group", "threshold", a1, a2,
                   "--group", "regiongrow", b1, b2, "--out", str(out), "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        row = doc["rows"][0]
        assert row["method"] == "threshold"
        assert row["DSC"] == "0.850 ±0.071"
        anova = doc["anova"]["DSC"]
        assert anova["df_between"] == 1 and anova["df_within"] == 2
        assert anova["f_stat"] == pytest.approx(8.0)

    def test_identical_lists_f_zero_p_one_no_star(self, tmp_path):
        a1 = fake_report(tmp_path / "a1.json", dsc=0.80)
        a2 = fake_report(tmp_path / "a2.json", dsc=0.90)
        b1 = fake_report(tmp_path / "b1.json", dsc=0.80)
        b2 = fake_report(tmp_path / "b2.json", dsc=0.90)
        out = tmp_path / "s.json"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m2", b1, b2,
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["anova"]["DSC"]["f_stat"] == 0.0
        assert doc["anova"]["DSC"]["p_value"] == 1.0
        p_row = doc["rows"][-1]
        assert p_row["method"] == "ANOVA p-value"
        assert not p_row["DSC"].endswith("*")

    def test_single_method_exit_2(self, tmp_path):
        a1, a2, _, _ = self.make_reports(tmp_path)
        rc = main(["compare", "--group", "only", a1, a2,
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2

    def test_single_case_exit_2(self, tmp_path):
        a1, _, b1, _ = self.make_reports(tmp_path)
        rc = main(["compare", "--group", "m1", a1, "--group", "m2", b1,
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2

    def test_duplicate_method_name_exit_2(self, tmp_path, capsys):
        a1, a2, b1, b2 = self.make_reports(tmp_path)
        out = tmp_path / "s.json"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m1", b1, b2, "--out", str(out)])
        assert rc == 2
        assert "duplicate method name 'm1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    def test_anova_whose_f_overflows_is_undefined(self, tmp_path, capsys, fmt):
        # finite DSC values whose F overflows to inf: the column's ANOVA is
        # written as undefined, and the Markdown names the cause
        a1 = fake_report(tmp_path / "a1.json", dsc=0.0)
        a2 = fake_report(tmp_path / "a2.json", dsc=1e-160)
        b1 = fake_report(tmp_path / "b1.json", dsc=1e10)
        b2 = fake_report(tmp_path / "b2.json", dsc=1e10)
        out = tmp_path / "s.out"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m2", b1, b2,
                   "--out", str(out), "--format", fmt])
        assert rc == 0
        assert capsys.readouterr().err == ""
        text = out.read_text()
        if fmt == "json":
            assert json.loads(text)["anova"]["DSC"] is None
        elif fmt == "csv":
            header, *_, p_row = text.splitlines()
            assert p_row.split(",")[header.split(",").index("DSC")] == ""
        else:
            assert "- DSC: undefined (F overflows the float range)" in text

    def test_within_group_overflow_is_undefined_without_warnings(self, tmp_path, capsys):
        # the within-group squares of finite DSC values overflow; so would
        # np.std's, yet the spread cell stays finite
        a1 = fake_report(tmp_path / "a1.json", dsc=-1e160)
        a2 = fake_report(tmp_path / "a2.json", dsc=1e160)
        b1 = fake_report(tmp_path / "b1.json", dsc=0.5)
        b2 = fake_report(tmp_path / "b2.json", dsc=0.6)
        out = tmp_path / "s.md"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m2", b1, b2,
                   "--out", str(out), "--format", "markdown"])
        assert rc == 0
        assert capsys.readouterr().err == ""
        text = out.read_text()
        assert "- DSC: undefined (within-group sum of squares overflows)" in text
        assert f"| m1 | 0.000 ±{1.414213562373095e160:.3f} |" in text

    def test_spread_beyond_the_float_range_exit_4(self, tmp_path, capsys):
        _, _, b1, b2 = self.make_reports(tmp_path)
        a1 = fake_report(tmp_path / "a1.json", dsc=-1.7e308)
        a2 = fake_report(tmp_path / "a2.json", dsc=1.7e308)
        out = tmp_path / "s.json"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m2", b1, b2, "--out", str(out)])
        assert rc == 4
        assert "DSC of method 'm1': mean or spread beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dsc", [math.nan, math.inf, -math.inf, "nan", "0.8", True, None],
                             ids=["NaN", "Infinity", "-Infinity", "nan-string", "numeric-string",
                                  "true", "null"])
    def test_non_finite_or_non_numeric_value_exit_2(self, tmp_path, dsc):
        a1, a2, b1, _ = self.make_reports(tmp_path)
        b2 = fake_report(tmp_path / "b2.json", dsc=dsc)
        out = tmp_path / "s.json"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m2", b1, b2, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_report_not_an_object_exit_2(self, tmp_path):
        a1, a2, b1, _ = self.make_reports(tmp_path)
        b2 = write_json(tmp_path / "b2.json", [0.8])
        out = tmp_path / "s.json"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m2", b1, b2, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_formatted_cell_from_mock_means(self, tmp_path):
        # mean 0.819, std 0.057 renders as the canonical cell
        vals = [0.819 - 0.057 / np.sqrt(2), 0.819 + 0.057 / np.sqrt(2)]
        a1 = fake_report(tmp_path / "a1.json", dsc=vals[0])
        a2 = fake_report(tmp_path / "a2.json", dsc=vals[1])
        b1 = fake_report(tmp_path / "b1.json", dsc=0.5)
        b2 = fake_report(tmp_path / "b2.json", dsc=0.6)
        out = tmp_path / "s.csv"
        rc = main(["compare", "--group", "thr", a1, a2, "--group", "rg", b1, b2,
                   "--out", str(out), "--format", "csv"])
        assert rc == 0
        assert "0.819 ±0.057" in out.read_text()

    def test_markdown_format(self, tmp_path):
        a1, a2, b1, b2 = self.make_reports(tmp_path)
        out = tmp_path / "s.md"
        rc = main(["compare", "--group", "m1", a1, a2, "--group", "m2", b1, b2,
                   "--out", str(out), "--format", "markdown"])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("| method | DSC | HD_mm | RVD |")
        assert "One-way ANOVA" in text


class TestMeshCommand:
    def test_stl_written(self, tmp_path, phantom_files, capsys):
        _, truth = phantom_files
        out = tmp_path / "surface.stl"
        assert main(["mesh", "--in", str(truth), "--out", str(out)]) == 0
        blob = out.read_bytes()
        count = int.from_bytes(blob[80:84], "little")
        assert len(blob) == 84 + 50 * count
        assert "triangles" in capsys.readouterr().out

    def test_coordinates_beyond_float32_exit_2(self, tmp_path, capsys):
        # the voxel sizes fit a float32 pixdim, the far vertex coordinates do not
        write_nifti(Mask(np.ones((4, 4, 3), bool), Spacing(3e38, 3e38, 3e38)), tmp_path / "m.nii")
        assert main(["mesh", "--in", str(tmp_path / "m.nii"), "--out", str(tmp_path / "m.stl")]) == 2
        assert "float32" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["m.nii"]  # neither m.stl nor m.stl.tmp

    def test_empty_mask_exit_4(self, tmp_path):
        write_nifti(Mask(np.zeros((4, 4, 4), bool), Spacing(1, 1, 1)), tmp_path / "e.nii")
        assert main(["mesh", "--in", str(tmp_path / "e.nii"),
                     "--out", str(tmp_path / "e.stl")]) == 4
        assert os.listdir(tmp_path) == ["e.nii"]  # neither e.stl nor e.stl.tmp


class TestPreprocessCommand:
    def test_stretch_only(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        out = tmp_path / "pre.nii"
        assert main(["preprocess", "--in", str(vol), "--out", str(out)]) == 0
        stretched = read_nifti(out)
        assert stretched.data.min() >= 0.0 and stretched.data.max() <= 255.0

    def test_crop_writes_bbox_sidecar(self, tmp_path, phantom_files):
        vol, _ = phantom_files
        cfg = write_json(tmp_path / "pre.json", {
            "p_low": 0.0, "p_high": 100.0, "crop_enabled": True,
            "crop_percentile": 99.0, "crop_margin": 1,
        })
        out = tmp_path / "cropped.nii"
        assert main(["preprocess", "--in", str(vol), "--out", str(out), "--config", cfg]) == 0
        box = json.loads((tmp_path / "cropped.nii.crop.json").read_text())
        assert set(box) == {"lo", "hi"}
        cropped = read_nifti(out)
        assert all(h - l + 1 == d for l, h, d in zip(box["lo"], box["hi"], cropped.dims))


class TestPinnedOutputs:
    # the exact text of a demo evaluate report, of compare in all three
    # formats and of a preprocess crop box, so that any change in how reports
    # are written fails
    CROP = '{"lo": [40, 30, 0], "hi": [62, 65, 31]}'
    REPORT = ('{"dsc": 0.026470292213238503, "hd_mm": 70.97251377699186, '
              '"hd_directed_pred_to_gt": 70.97251377699186, "hd_directed_gt_to_pred": 0.0, '
              '"rvd": 73.55640050697085, "outliers": 4, "missed_components": 0, '
              '"false_communicating": 0, "false_non_communicating": 0}')
    CASES = {"a1": dict(dsc=0.80, hd_mm=1.0, rvd=0.2, outliers=3),
             "a2": dict(dsc=0.82, hd_mm=2.5, rvd=0.1, outliers=5),
             "b1": dict(dsc=0.60, hd_mm=4.0, rvd=0.3, outliers=3, false_communicating=2),
             "b2": dict(dsc=0.61, hd_mm=3.0, rvd=0.4, outliers=4)}
    COMPARE_JSON = (
        '{"columns": ["method", "DSC", "HD_mm", "RVD", "outliers", "false_communicating_IHDs", '
        '"false_non_communicating_IHDs"], "rows": ['
        '{"method": "threshold", "DSC": "0.810 \\u00b10.014", "HD_mm": "1.750 \\u00b11.061", '
        '"RVD": "0.150 \\u00b10.071", "outliers": "4.0 \\u00b11.41", '
        '"false_communicating_IHDs": "1.0 \\u00b10.00", "false_non_communicating_IHDs": "0.0 \\u00b10.00"}, '
        '{"method": "regiongrow", "DSC": "0.605 \\u00b10.007", "HD_mm": "3.500 \\u00b10.707", '
        '"RVD": "0.350 \\u00b10.071", "outliers": "3.5 \\u00b10.71", '
        '"false_communicating_IHDs": "1.5 \\u00b10.71", "false_non_communicating_IHDs": "0.0 \\u00b10.00"}, '
        '{"method": "ANOVA p-value", "DSC": "0.002961*", "HD_mm": "0.191710", "RVD": "0.105573", '
        '"outliers": "0.698489", "false_communicating_IHDs": "0.422650", '
        '"false_non_communicating_IHDs": ""}], "anova": {'
        '"DSC": {"f_stat": 336.2000000000026, "df_between": 1, "df_within": 2, '
        '"p_value": 0.0029612146741151424, "significant": true}, '
        '"HD_mm": {"f_stat": 3.769230769230769, "df_between": 1, "df_within": 2, '
        '"p_value": 0.1917096231345239, "significant": false}, '
        '"RVD": {"f_stat": 7.999999999999993, "df_between": 1, "df_within": 2, '
        '"p_value": 0.10557280900008414, "significant": false}, '
        '"outliers": {"f_stat": 0.2, "df_between": 1, "df_within": 2, '
        '"p_value": 0.6984886554222365, "significant": false}, '
        '"false_communicating_IHDs": {"f_stat": 1.0, "df_between": 1, "df_within": 2, '
        '"p_value": 0.4226497308103747, "significant": false}, '
        '"false_non_communicating_IHDs": null}}')
    COMPARE_CSV = (
        "method,DSC,HD_mm,RVD,outliers,false_communicating_IHDs,false_non_communicating_IHDs\n"
        "threshold,0.810 ±0.014,1.750 ±1.061,0.150 ±0.071,4.0 ±1.41,1.0 ±0.00,0.0 ±0.00\n"
        "regiongrow,0.605 ±0.007,3.500 ±0.707,0.350 ±0.071,3.5 ±0.71,1.5 ±0.71,0.0 ±0.00\n"
        "ANOVA p-value,0.002961*,0.191710,0.105573,0.698489,0.422650,\n")
    COMPARE_MARKDOWN = (
        "| method | DSC | HD_mm | RVD | outliers | false_communicating_IHDs | false_non_communicating_IHDs |\n"
        "| --- | --- | --- | --- | --- | --- | --- |\n"
        "| threshold | 0.810 ±0.014 | 1.750 ±1.061 | 0.150 ±0.071 | 4.0 ±1.41 | 1.0 ±0.00 | 0.0 ±0.00 |\n"
        "| regiongrow | 0.605 ±0.007 | 3.500 ±0.707 | 0.350 ±0.071 | 3.5 ±0.71 | 1.5 ±0.71 | 0.0 ±0.00 |\n"
        "| ANOVA p-value | 0.002961* | 0.191710 | 0.105573 | 0.698489 | 0.422650 |  |\n"
        "\n"
        "One-way ANOVA across methods (* marks p < 0.05):\n"
        "- DSC: F(1, 2) = 336.2, p = 0.002961*\n"
        "- HD_mm: F(1, 2) = 3.76923, p = 0.191710\n"
        "- RVD: F(1, 2) = 8, p = 0.105573\n"
        "- outliers: F(1, 2) = 0.2, p = 0.698489\n"
        "- false_communicating_IHDs: F(1, 2) = 1, p = 0.422650\n"
        "- false_non_communicating_IHDs: undefined (zero within-group variance)\n")

    # SHA-256 of the demo phantom volume and of preprocess on it under
    # configs/segment_demo.json's preprocess section, crop on and off; pinned
    # so that a drift of one ulp in the render or the stretch fails
    DEMO_VOLUME = "44a534ece7b400fa0128f1a35cdcb714f2ee6d5c12bda52211ca0996835a5508"
    DEMO_PREPROCESS = {True: "ce33cfd981daba8cb2dbf632b14051cf1bad2b9117d2a4d6e1df503b43362655",
                       False: "32aa451943ae26761863f770e007e9d1ad0588fec88464e90b5ce72b54c31125"}

    def test_demo_image_bytes_are_pinned(self, tmp_path, demo_volume):
        assert hashlib.sha256(demo_volume.read_bytes()).hexdigest() == self.DEMO_VOLUME
        for crop, want in self.DEMO_PREPROCESS.items():
            cfg = write_json(tmp_path / f"{crop}.json", dict(SEGMENT_DEMO["preprocess"], crop_enabled=crop))
            out = tmp_path / f"{crop}.nii"
            assert main(["preprocess", "--in", str(demo_volume), "--out", str(out), "--config", cfg]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == want, crop

    # SHA-256 of the mask region growing writes when it leaks: a small phantom
    # under the default preprocess floods 62.5% of its 40x48x14 grid from
    # this seed; pinned so that any change in the predicate map, the growth
    # labels or the mask write of a flooding growth fails
    FLOODED = dict(PHANTOM, dims=[40, 48, 14], root=[20.0, 24.0, -2.0], root_direction=[0.05, 0.02, 1.0],
                   segment_length=8.0, branch_probability=0.4, branch_angle=25.0, max_depth=2,
                   noise_std=8.0, rng_seed=1)
    FLOODED_MASK = "4aaf0186721ee7f2db760a4d354b87d84dfb72a79a004bee46ecc8f07e5f3c2d"

    def test_flooded_regiongrow_mask_bytes_are_pinned(self, tmp_path, capsys):
        vol = tmp_path / "vol.nii"
        assert main(["phantom", "--config", write_json(tmp_path / "p.json", self.FLOODED),
                     "--out-volume", str(vol), "--out-truth", str(tmp_path / "truth.nii")]) == 0
        cfg = write_json(tmp_path / "s.json", {"method": "regiongrow", "regiongrow": {"seed": [20, 24, 5]},
                                               "postprocess": [{"policy": "keep_largest"}]})
        capsys.readouterr()
        out = tmp_path / "m.nii"
        assert main(["segment", "--in", str(vol), "--out", str(out), "--config", cfg]) == 0
        assert capsys.readouterr().err.startswith("warning: regiongrow reached 62.5% of the input grid")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.FLOODED_MASK

    def test_report_compare_and_crop_text_is_pinned(self, tmp_path, demo_volume):
        indented = lambda text: json.dumps(json.loads(text), indent=2) + "\n"  # noqa: E731
        pre = write_json(tmp_path / "pre.json", SEGMENT_DEMO["preprocess"])
        assert main(["preprocess", "--in", str(demo_volume), "--out", str(tmp_path / "pre.nii"),
                     "--config", pre]) == 0
        assert (tmp_path / "pre.nii.crop.json").read_text() == indented(self.CROP)

        # a low band without crop or postprocess keeps noise, so no metric is trivial
        noisy = dict(SEGMENT_DEMO, method="threshold", threshold={"t_min": 15.0, "t_max": 255.0},
                     preprocess=dict(SEGMENT_DEMO["preprocess"], crop_enabled=False), postprocess=[])
        mask, report = tmp_path / "m.nii", tmp_path / "r.json"
        assert main(["segment", "--in", str(demo_volume), "--out", str(mask),
                     "--config", write_json(tmp_path / "seg.json", noisy)]) == 0
        assert main(["evaluate", "--in", str(mask), "--truth", str(demo_volume.parent / "truth.nii"),
                     "--out", str(report)]) == 0
        assert report.read_text() == indented(self.REPORT)

        a1, a2, b1, b2 = (fake_report(tmp_path / f"{name}.json", **values)
                          for name, values in self.CASES.items())
        pinned = {"json": indented(self.COMPARE_JSON), "csv": self.COMPARE_CSV,
                  "markdown": self.COMPARE_MARKDOWN}
        for fmt, want in pinned.items():
            out = tmp_path / f"summary.{fmt}"
            assert main(["compare", "--group", "threshold", a1, a2, "--group", "regiongrow", b1, b2,
                         "--out", str(out), "--format", fmt]) == 0
            assert out.read_text(encoding="utf-8") == want


class TestIdempotence:
    def test_every_command_rerun_is_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", PHANTOM)
        for suffix in ("a", "b"):
            assert main(["phantom", "--config", cfg,
                         "--out-volume", str(tmp_path / f"v_{suffix}.nii"),
                         "--out-truth", str(tmp_path / f"t_{suffix}.nii")]) == 0
        assert (tmp_path / "v_a.nii").read_bytes() == (tmp_path / "v_b.nii").read_bytes()
        assert (tmp_path / "t_a.nii").read_bytes() == (tmp_path / "t_b.nii").read_bytes()

        for suffix in ("a", "b"):
            assert main(["evaluate", "--in", str(tmp_path / "t_a.nii"),
                         "--truth", str(tmp_path / "t_a.nii"),
                         "--out", str(tmp_path / f"rep_{suffix}.json")]) == 0
            assert main(["mesh", "--in", str(tmp_path / "t_a.nii"),
                         "--out", str(tmp_path / f"mesh_{suffix}.stl")]) == 0
        assert (tmp_path / "rep_a.json").read_bytes() == (tmp_path / "rep_b.json").read_bytes()
        assert (tmp_path / "mesh_a.stl").read_bytes() == (tmp_path / "mesh_b.stl").read_bytes()

        r1 = fake_report(tmp_path / "r1.json", dsc=0.7)
        r2 = fake_report(tmp_path / "r2.json", dsc=0.8)
        r3 = fake_report(tmp_path / "r3.json", dsc=0.5)
        r4 = fake_report(tmp_path / "r4.json", dsc=0.6)
        for suffix in ("a", "b"):
            assert main(["compare", "--group", "m1", r1, r2, "--group", "m2", r3, r4,
                         "--out", str(tmp_path / f"sum_{suffix}.csv"), "--format", "csv"]) == 0
        assert (tmp_path / "sum_a.csv").read_bytes() == (tmp_path / "sum_b.csv").read_bytes()


class TestUsage:
    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exit_2(self):
        assert main(["mesh", "--in", "x.nii"]) == 2

    def test_one_parser_serves_every_call_as_a_fresh_one_would(self, capsys):
        def parse(parser, argv):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as e:
                result = e.code
            return result, capsys.readouterr()

        shared = biliseg.cli._parser()
        compare = ["compare", "--group", "a", "1.json", "2.json", "--group", "b", "3.json", "--out", "c.json"]
        for argv in (["mesh", "--in", "x.nii"],  # usage error, exit 2
                     ["mesh", "--in", "x.nii", "--out", "y.stl"],
                     ["evaluate", "--in", "p.nii", "--truth", "t.nii", "--out", "r.json"],
                     compare, compare, ["--version"], ["mesh", "--help"]):
            assert parse(shared, argv) == parse(biliseg.cli.build_parser(), argv)
        assert biliseg.cli._parser() is shared


class TestImports:
    def test_cropped_segment_loads_no_scipy_sparse(self, tmp_path):
        # the crop labels its sparse bright mask from its voxel list, in numpy
        # alone: scipy.sparse would add about 0.1 s to every fresh process.
        # Under this noise the top 1% of the demo phantom spans its grid at
        # about 100 voxels per bright voxel
        volume = tmp_path / "v.nii"
        assert main(["phantom", "--config", write_json(tmp_path / "p.json", dict(PHANTOM_DEMO, noise_std=30.0)),
                     "--out-volume", str(volume), "--out-truth", str(tmp_path / "t.nii")]) == 0
        config = write_json(tmp_path / "c.json", dict(
            SEGMENT_DEMO, preprocess=dict(SEGMENT_DEMO["preprocess"], crop_percentile=99.0)))
        script = (
            "import sys\n"
            "import biliseg.cli\n"
            "from biliseg import core\n"
            "calls = []\n"
            "label_sparse = core._label_sparse\n"
            "core._label_sparse = lambda *args: calls.append(args) or label_sparse(*args)\n"
            "code = biliseg.cli.main(sys.argv[1:])\n"
            "print(code, len(calls), [m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']])\n")
        src = str(Path(biliseg.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, "segment", "--in", str(volume), "--out",
                               str(tmp_path / "m.nii"), "--config", config, "--method", "threshold"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, calls, loaded = proc.stdout.splitlines()[-1].split(" ", 2)
        assert (code, loaded) == ("0", "[]") and int(calls) >= 1


class TestEvaluateConnectivityFlag:
    def test_connectivity_changes_proxy_counts(self, tmp_path):
        # two voxels touching only at a cube corner: one component under 26,
        # two under 6; predicting just one of them misses a component only
        # in the 6-connected view
        sp = Spacing(1, 1, 1)
        gt = np.zeros((4, 4, 4), bool)
        gt[0, 0, 0] = gt[1, 1, 1] = True
        pred = np.zeros((4, 4, 4), bool)
        pred[0, 0, 0] = True
        write_nifti(Mask(gt, sp), tmp_path / "gt.nii")
        write_nifti(Mask(pred, sp), tmp_path / "pred.nii")

        out26 = tmp_path / "r26.json"
        assert main(["evaluate", "--in", str(tmp_path / "pred.nii"),
                     "--truth", str(tmp_path / "gt.nii"), "--out", str(out26)]) == 0
        assert json.loads(out26.read_text())["missed_components"] == 0

        out6 = tmp_path / "r6.json"
        assert main(["evaluate", "--in", str(tmp_path / "pred.nii"),
                     "--truth", str(tmp_path / "gt.nii"), "--out", str(out6),
                     "--connectivity", "6"]) == 0
        assert json.loads(out6.read_text())["missed_components"] == 1


def run_quietly(argv):
    """``main(argv)`` and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def value_paths(doc, prefix=()):
    """The path to every value inside a JSON document, sections and leaves alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


SEGMENT_DEMO = json.loads((CONFIGS / "segment_demo.json").read_text())
PHANTOM_DEMO = json.loads((CONFIGS / "phantom_demo.json").read_text())
SEGMENT_METHODS = ("threshold", "floodfill", "regiongrow")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
NON_NUMBERS = (st.none() | st.booleans() | st.text(max_size=6)
               | st.lists(st.none() | st.booleans() | st.text(max_size=3), max_size=4)
               | st.dictionaries(st.text(max_size=3), st.none(), max_size=2))
SMALL_FLOATS = st.floats(-4.0, 4.0) | st.sampled_from([float("nan"), float("inf"), float("-inf")])


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("surface")


def fresh(scratch_dir) -> Path:
    """A new directory in ``scratch_dir`` for one Hypothesis example. Rewriting
    the same paths on every example waits for the file system to write back
    their last version, and removing them after each example stalls the same
    way, so every example writes to new paths and nothing is removed."""
    return Path(tempfile.mkdtemp(dir=scratch_dir))


class TestConfigSurface:
    @settings(max_examples=120, deadline=None)
    @given(path=st.sampled_from(sorted(value_paths(SEGMENT_DEMO), key=str)),
           method=st.sampled_from(SEGMENT_METHODS), value=JSON_VALUES)
    @example(path=("regiongrow", "window"), method="regiongrow", value=10**30 + 1)
    @example(path=("regiongrow", "R"), method="regiongrow", value=5e-324)  # s / R overflows to inf
    # bounds past float32's range cast to +-inf against the float32 volume
    @example(path=("threshold", "t_max"), method="threshold", value=1.7976931348623157e308)
    @example(path=("threshold", "t_min"), method="threshold", value=-1e39)
    def test_any_segment_value_exits_cleanly(self, demo_volume, scratch_dir, path, method, value):
        d = fresh(scratch_dir)
        doc = replaced(dict(SEGMENT_DEMO, method=method), path, value)
        if path[0] in SEGMENT_METHODS:
            doc["method"] = path[0]  # run the method whose section was changed
        cfg = write_json(d / "seg.json", doc)
        code, err = run_quietly(["segment", "--in", str(demo_volume),
                                 "--out", str(d / "m.nii"), "--config", cfg])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(PHANTOM_DEMO)).flatmap(lambda key: st.tuples(
        st.just(key), NON_NUMBERS | SMALL_FLOATS if type(PHANTOM_DEMO[key]) is int else NON_NUMBERS)))
    def test_wrong_phantom_type_exits_2(self, scratch_dir, edit):
        d = fresh(scratch_dir)
        key, value = edit
        cfg = write_json(d / "phantom.json", dict(PHANTOM_DEMO, **{key: value}))
        volume = d / "v.nii"
        code, err = run_quietly(["phantom", "--config", cfg, "--out-volume", str(volume),
                                 "--out-truth", str(d / "t.nii")])
        assert code == 2 and err.startswith("error: ")
        assert not volume.exists()

    # every float field of the demo phantom, one at a time, at any finite value
    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.sampled_from(sorted(k for k, v in PHANTOM_DEMO.items() if type(v) is float)),
                     st.floats(allow_nan=False, allow_infinity=False)))
    @example(("branch_angle", -0.0))  # passes the >= 0 check, then bounds rng.uniform(0.0, -0.0)
    def test_any_phantom_float_exits_cleanly(self, scratch_dir, edit):
        d = fresh(scratch_dir)
        key, value = edit
        code, err = run_quietly(["phantom", "--config", write_json(d / "phantom.json",
                                                                   dict(PHANTOM_DEMO, **{key: value})),
                                 "--out-volume", str(d / "v.nii"), "--out-truth", str(d / "t.nii")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err

    # in-range sizes: small ones run, and ones past a cap exit 2 before
    # anything is allocated (the draws skip sizes under the caps that are
    # costly to render)
    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.just("dims"), st.lists(st.integers(1, 24) | st.integers(MAX_VOXELS + 1, 10**30),
                                               min_size=3, max_size=3))
           | st.tuples(st.just("max_depth"), st.integers(0, 11) | st.integers(12, 10**30)))
    @example(("dims", [4096, 4096, 4]))
    @example(("dims", [256, 256, 257]))
    @example(("max_depth", 12))
    def test_phantom_size_past_a_cap_exits_2(self, scratch_dir, edit):
        d = fresh(scratch_dir)
        key, value = edit
        params = dict(PHANTOM_DEMO, **{key: value})
        assert PHANTOM_DEMO["branch_probability"] > 0
        over = (math.prod(params["dims"]) > MAX_VOXELS
                or 2 ** min(params["max_depth"] + 1, 64) - 1 > MAX_SEGMENTS)
        volume = d / "v.nii"
        code, err = run_quietly(["phantom", "--config", write_json(d / "phantom.json", params),
                                 "--out-volume", str(volume), "--out-truth", str(d / "t.nii")])
        if over:
            assert code == 2 and "cap of" in err
            assert not volume.exists()
        else:
            assert code in (0, 4) and "Traceback" not in err
