"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed (``setup``), runs
whole rounds of the same operations (``run_round``), fingerprints what a
round produced so that later rounds can be compared with the first
(``fingerprint``), and checks the outputs against ``oracles`` (``check``).

* ``study``: the paper's protocol, ten phantom cases segmented by all three
  methods through the CLI verbs ``segment`` -> ``evaluate`` -> ``mesh`` with
  cropping on, then one ``compare``.
* ``flooded_c10``: the acceptance-c10 case under the default preprocess
  (no crop, p_high 99); region growing floods about 59% of the grid.
* ``tuning``: an interactive sweep of threshold bands and flood-fill
  tolerances through the library on one stretched, uncropped case.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import time
import traceback
from collections import defaultdict

import numpy as np

import biliseg
import biliseg.cli

import oracles

METHODS = ("threshold", "floodfill", "regiongrow")
COMPARE_COLUMNS = {"DSC": "dsc", "HD_mm": "hd_mm", "RVD": "rvd", "outliers": "outliers",
                   "false_communicating_IHDs": "false_communicating",
                   "false_non_communicating_IHDs": "false_non_communicating"}
DEFAULT_SEEDS = {"study": 1, "flooded_c10": 99, "tuning": 7}
# The cohort's anatomy is fixed (tree seeds 1000..1009) and the workload seed
# draws each case's noise, so that figures from different seeds compare.
ANATOMY_SEED = 1000
C10_ANATOMY_SEED = 99


class Ops:
    """Times operations, counts attempted and failed ones, and opens the
    benchmark's own spans when a tracer is given."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def call(self, kind, fn, *args):
        """Run one operation and return (ok, result). A CLI exit code other
        than 0, or any exception, counts as a failure."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with self._span(kind), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                result = fn(*args)
        except Exception:  # one failed operation must not end the run
            result, error = None, traceback.format_exc()
        else:
            error = f"exit code {result}: {sink.getvalue().strip()}" if isinstance(result, int) and result else None
        self.times[kind].append(time.perf_counter() - start)
        if error is None:
            return True, result
        self.failed += 1
        self.errors.append(f"{kind} {' '.join(str(a) for a in args if isinstance(a, str))}: {error}")
        return False, None

    def skip(self, kind):
        """An operation that cannot run because the one before it failed."""
        self.attempted += 1
        self.failed += 1

    @contextlib.contextmanager
    def case(self):
        start = time.perf_counter()
        with self._span("case"):
            yield
        self.times["case"].append(time.perf_counter() - start)


def _cli(*argv):
    return biliseg.cli.main([str(a) for a in argv])


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)


def case_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def mrcp_params(rng_seed):
    """A 128x128x48 MRCP-like grid (0.9 x 0.9 x 1.4 mm) holding a noisy tree."""
    return biliseg.PhantomParams(
        dims=(128, 128, 48), spacing=(0.9, 0.9, 1.4), root=(57.6, 57.6, 1.0),
        root_direction=(0.08, 0.04, 1.0), segment_length=16.8, radius_root=3.5,
        radius_taper=0.85, branch_probability=0.5, branch_angle=15.0, max_depth=4,
        fg_mean=200.0, bg_mean=10.0, noise_std=30.0, rng_seed=rng_seed)


def c10_params(rng_seed):
    """The acceptance-c10 geometry: 256x256x64, 1 x 1 x 1.5 mm."""
    return biliseg.PhantomParams(
        dims=(256, 256, 64), spacing=(1.0, 1.0, 1.5), root=(128.0, 128.0, -4.0),
        root_direction=(0.05, 0.02, 1.0), segment_length=30.0, radius_root=4.0,
        radius_taper=0.9, branch_probability=0.4, branch_angle=25.0, max_depth=4,
        fg_mean=200.0, bg_mean=10.0, noise_std=6.0, rng_seed=rng_seed)


def make_phantom(params, noise_seed=None):
    """(volume, truth): the tree comes from ``params.rng_seed``, the
    intensity noise from ``noise_seed`` when one is given."""
    tree = biliseg.generate_tree(params)
    truth = biliseg.rasterize_tree(tree, params.dims, params.spacing)
    noise = params if noise_seed is None else dataclasses.replace(params, rng_seed=noise_seed)
    return biliseg.render_intensities(truth, noise), truth


def root_voxel(truth, params):
    """The truth voxel nearest the tree's root point."""
    points = np.argwhere(truth.data)
    d2 = ((points * np.array(params.spacing.as_tuple()) - np.array(params.root)) ** 2).sum(axis=1)
    return tuple(int(c) for c in points[int(np.argmin(d2))])


def warm_up(workdir):
    """Run every verb and library call once on a tiny case, so lazy imports
    and first-call costs land in set-up."""
    params = biliseg.PhantomParams(dims=(24, 24, 12), spacing=(1.0, 1.0, 1.5), root=(12.0, 12.0, 1.0),
                                   root_direction=(0.0, 0.0, 1.0), segment_length=8.0,
                                   radius_root=3.0, noise_std=20.0, rng_seed=5)
    volume, truth = make_phantom(params)
    d = os.path.join(workdir, "warmup")
    os.makedirs(d, exist_ok=True)
    paths = {name: os.path.join(d, name) for name in ("v.nii", "t.nii", "c.json", "m.nii", "r.json",
                                                      "s.stl", "cmp.json")}
    biliseg.write_nifti(volume, paths["v.nii"])
    biliseg.write_nifti(truth, paths["t.nii"])
    seed = root_voxel(truth, params)
    _write_json(paths["c.json"], segment_config(seed, crop=True))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for method in METHODS:
            _cli("segment", "--in", paths["v.nii"], "--out", paths["m.nii"], "--config", paths["c.json"],
                 "--method", method)
        _cli("evaluate", "--in", paths["m.nii"], "--truth", paths["t.nii"], "--out", paths["r.json"])
        _cli("mesh", "--in", paths["m.nii"], "--out", paths["s.stl"])
        _cli("compare", "--group", "a", paths["r.json"], paths["r.json"], "--group", "b", paths["r.json"],
             paths["r.json"], "--out", paths["cmp.json"])
    work = biliseg.percentile_stretch(volume, biliseg.PreprocessParams())
    biliseg.dual_threshold(work, biliseg.ThresholdConfig(100.0, 255.0))
    mask = biliseg.flood_fill(work, biliseg.FloodFillConfig(seed, 80.0))
    biliseg.evaluate(biliseg.postprocess(mask, [biliseg.MinSize(1), biliseg.KeepLargest()]), truth)


def segment_config(seed, crop):
    """A run config in the style of configs/segment_demo.json."""
    pre = ({"p_low": 1.0, "p_high": 99.9, "crop_enabled": True, "crop_percentile": 99.5, "crop_margin": 5}
           if crop else {})
    return {
        "preprocess": pre,
        "threshold": {"t_min": 120.0, "t_max": 255.0},
        "floodfill": {"seed": list(seed), "tolerance": 80.0, "connectivity": 6},
        "regiongrow": {"seed": list(seed), "k": 0.3, "R": 100.0, "window": 3,
                       "in_slice_connectivity": 4, "propagate_slices": True},
        "postprocess": [{"policy": "keep_largest"}],
    }


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def fingerprint(self):
        return {p: _digest(p) for p in self.outputs() if os.path.exists(p)}

    def replay(self, mask_path):
        """Re-run segment with the provenance sidecar as its config."""
        replay_path = mask_path + ".replay.nii"
        with contextlib.redirect_stdout(io.StringIO()):
            code = _cli("segment", "--config", mask_path + ".provenance.json", "--out", replay_path)
        if code != 0:
            return [f"replay of {mask_path} exited {code}"]
        return oracles.check_same_bytes(mask_path, replay_path, "sidecar replay")


class Study(Workload):
    cases = 10

    def setup(self):
        self.case_dirs = []
        self.seeds = []
        for i in range(self.cases):
            params = mrcp_params(ANATOMY_SEED + i)
            volume, truth = make_phantom(params, case_seed(self.seed, i))
            d = self.path(f"case{i}")
            os.makedirs(d, exist_ok=True)
            biliseg.write_nifti(volume, os.path.join(d, "volume.nii"))
            biliseg.write_nifti(truth, os.path.join(d, "truth.nii"))
            seed = root_voxel(truth, params)
            _write_json(os.path.join(d, "config.json"), segment_config(seed, crop=True))
            self.case_dirs.append(d)
            self.seeds.append(seed)
        warm_up(self.workdir)

    def outputs(self):
        out = [os.path.join(d, f"{m}.{ext}") for d in self.case_dirs for m in METHODS
               for ext in ("nii", "json", "stl")]
        return out + [self.path("compare.json")]

    def run_round(self, ops):
        for d in self.case_dirs:
            with ops.case():
                for m in METHODS:
                    mask, report, stl = (os.path.join(d, f"{m}.{ext}") for ext in ("nii", "json", "stl"))
                    ok, _ = ops.call("segment", _cli, "segment", "--in", os.path.join(d, "volume.nii"),
                                     "--out", mask, "--config", os.path.join(d, "config.json"), "--method", m)
                    if ok:
                        ops.call("evaluate", _cli, "evaluate", "--in", mask,
                                 "--truth", os.path.join(d, "truth.nii"), "--out", report)
                        ops.call("mesh", _cli, "mesh", "--in", mask, "--out", stl)
                    else:
                        ops.skip("evaluate")
                        ops.skip("mesh")
        groups = []
        for m in METHODS:
            groups += ["--group", m] + [os.path.join(d, f"{m}.json") for d in self.case_dirs]
        ops.call("report.compare", _cli, "compare", *groups, "--out", self.path("compare.json"))
        return self.cases

    def check(self):
        problems = []
        rng = np.random.default_rng(self.seed)
        reports = {m: [] for m in METHODS}
        for i, (d, seed) in enumerate(zip(self.case_dirs, self.seeds)):
            volume, spacing = oracles.read_nii(os.path.join(d, "volume.nii"))
            truth, _ = oracles.read_mask(os.path.join(d, "truth.nii"))
            stretched = oracles.stretch(volume, 1.0, 99.9)
            box = oracles.crop_box(stretched, 99.5, 5)
            local = stretched[oracles.box_slices(box)]
            local_seed = tuple(s - l for s, l in zip(seed, box[0]))
            expected = {
                "threshold": oracles.largest_component(
                    oracles.embed(oracles.band(local, 120.0, 255.0), box, volume.shape)),
                "floodfill": oracles.embed(oracles.flood_component(local, local_seed, 80.0, 6),
                                           box, volume.shape),
            }
            for m in METHODS:
                mask_path = os.path.join(d, f"{m}.nii")
                what = f"case {i} {m}"
                mask, _ = oracles.read_mask(mask_path)
                sidecar = oracles.load_json(mask_path + ".provenance.json")
                derived = sidecar["derived"]
                if derived["crop_bbox"] != {"lo": list(box[0]), "hi": list(box[1])}:
                    problems.append(f"{what}: crop box {derived['crop_bbox']}, reference {box}")
                if derived["mask_voxels"] != int(mask.sum()):
                    problems.append(f"{what}: sidecar mask_voxels {derived['mask_voxels']}, mask has {mask.sum()}")
                if m in expected:
                    problems += oracles.check_equal_masks(mask, expected[m], what)
                else:
                    inside = oracles.embed(mask[oracles.box_slices(box)], box, volume.shape)
                    problems += oracles.check_equal_masks(mask, inside, f"{what} (inside the crop box)")
                    problems += oracles.check_region_grow(mask[oracles.box_slices(box)], local, local_seed,
                                                          oracles.EDGE4_PROPAGATE, rng)
                report = oracles.load_json(os.path.join(d, f"{m}.json"))
                reports[m].append(report)
                problems += oracles.check_report(report, mask, truth, spacing, what)
                problems += oracles.check_stl(os.path.join(d, f"{m}.stl"), mask)
                if i == 0:
                    problems += self.replay(mask_path)
        problems += oracles.check_compare(oracles.load_json(self.path("compare.json")), reports,
                                          COMPARE_COLUMNS)
        return problems


class FloodedC10(Workload):
    def setup(self):
        params = c10_params(C10_ANATOMY_SEED)
        volume, truth = make_phantom(params, self.seed)
        biliseg.write_nifti(volume, self.path("volume.nii"))
        biliseg.write_nifti(truth, self.path("truth.nii"))
        points = np.argwhere(truth.data)
        # the acceptance-c10 seed: the middle truth voxel in index order
        self.region_seed = tuple(int(c) for c in points[len(points) // 2])
        config = segment_config(self.region_seed, crop=False)
        config["method"] = "regiongrow"
        _write_json(self.path("config.json"), config)
        warm_up(self.workdir)

    def outputs(self):
        return [self.path("mask.nii"), self.path("report.json")]

    def run_round(self, ops):
        with ops.case():
            ok, _ = ops.call("segment", _cli, "segment", "--in", self.path("volume.nii"), "--out",
                             self.path("mask.nii"), "--config", self.path("config.json"))
            if ok:
                ops.call("evaluate", _cli, "evaluate", "--in", self.path("mask.nii"),
                         "--truth", self.path("truth.nii"), "--out", self.path("report.json"))
            else:
                ops.skip("evaluate")
        return 1

    def check(self):
        volume, spacing = oracles.read_nii(self.path("volume.nii"))
        truth, _ = oracles.read_mask(self.path("truth.nii"))
        mask, _ = oracles.read_mask(self.path("mask.nii"))
        stretched = oracles.stretch(volume, 1.0, 99.0)
        rng = np.random.default_rng(self.seed)
        problems = oracles.check_region_grow(mask, stretched, self.region_seed, oracles.EDGE4_PROPAGATE, rng)
        problems += oracles.check_report(oracles.load_json(self.path("report.json")), mask, truth, spacing,
                                         "flooded_c10")
        return problems + self.replay(self.path("mask.nii"))


def _overrides(nz, step, pair):
    return {z: pair for z in range(0, nz, step)}


class Tuning(Workload):
    """Threshold bands (two with per-slice overrides) and flood-fill
    tolerances. Bands alternate between keeping the largest component and
    dropping components under 20 voxels; a flood fill keeps the largest
    component, since dropping small ones could leave nothing to evaluate."""

    def setup(self):
        params = mrcp_params(ANATOMY_SEED)
        self.volume, self.truth = make_phantom(params, case_seed(self.seed, 0))
        self.work = biliseg.percentile_stretch(self.volume, biliseg.PreprocessParams(p_high=99.9))
        self.region_seed = root_voxel(self.truth, params)
        nz = params.dims[2]
        bands = [(30.0, 255.0, None), (60.0, 255.0, None), (90.0, 255.0, None), (120.0, 255.0, None),
                 (150.0, 255.0, None), (90.0, 255.0, _overrides(nz, 4, (120.0, 255.0))),
                 (120.0, 255.0, _overrides(nz, 3, (60.0, 240.0)))]
        self.settings = [("threshold", biliseg.ThresholdConfig(*b)) for b in bands]
        self.policies = [[biliseg.KeepLargest()] if i % 2 == 0 else [biliseg.MinSize(20)]
                         for i in range(len(bands))]
        for tol, conn in ((40.0, 6), (80.0, 6), (120.0, 6), (160.0, 6), (80.0, 26)):
            self.settings.append(("floodfill", biliseg.FloodFillConfig(self.region_seed, tol, conn)))
            self.policies.append([biliseg.KeepLargest()])
        self.results = {}
        warm_up(self.workdir)

    def _segment(self, method, cfg, policies):
        fn = biliseg.dual_threshold if method == "threshold" else biliseg.flood_fill
        raw = fn(self.work, cfg)
        return raw, biliseg.postprocess(raw, policies)

    def run_round(self, ops):
        for i, (method, cfg) in enumerate(self.settings):
            with ops.case():
                ok, masks = ops.call("segment", self._segment, method, cfg, self.policies[i])
                if ok:
                    _, report = ops.call("evaluate", biliseg.evaluate, masks[1], self.truth)
                    self.results[i] = (masks, report)
                else:
                    ops.skip("evaluate")
        return len(self.settings)

    def fingerprint(self):
        out = {}
        for i, (masks, report) in self.results.items():
            h = hashlib.sha256(masks[0].data.tobytes() + masks[1].data.tobytes())
            h.update(repr(report).encode())
            out[i] = h.hexdigest()
        return out

    def check(self):
        problems = []
        spacing = self.volume.spacing.as_tuple()
        stretched = oracles.stretch(self.volume.data, 1.0, 99.9)
        if not np.array_equal(stretched, self.work.data):
            problems.append("tuning: the library stretch differs from the reference stretch")
        truth = self.truth.data
        for i, (method, cfg) in enumerate(self.settings):
            what = f"setting {i} {method}"
            if i not in self.results or self.results[i][1] is None:
                continue  # counted as a failed operation
            (raw, post), report = self.results[i]
            if method == "threshold":
                expected = oracles.band(stretched, cfg.t_min, cfg.t_max, cfg.per_slice_overrides)
            else:
                expected = oracles.flood_component(stretched, cfg.seed, cfg.tolerance, int(cfg.connectivity))
            problems += oracles.check_equal_masks(raw.data, expected, what)
            policy = self.policies[i][0]
            if isinstance(policy, biliseg.KeepLargest):
                expected_post = oracles.largest_component(expected)
            else:
                expected_post = oracles.drop_small(expected, policy.voxels)
            problems += oracles.check_equal_masks(post.data, expected_post, f"{what} postprocess")
            problems += oracles.check_report(dataclasses.asdict(report), post.data, truth, spacing, what)
        return problems


WORKLOADS = {"study": Study, "flooded_c10": FloodedC10, "tuning": Tuning}
