import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from biliseg import (BBox, ConfigError, Connectivity, DegenerateInputError, GeometryError, Mask,
                     PreprocessParams, Spacing, Volume, dynamic_crop, embed_mask, percentile_stretch)
from biliseg.preprocess import _percentiles
from conftest import ordered_components, traced_peak

SP = Spacing(1.0, 1.0, 1.0)


def percentile_oracle(values, q):
    """Order-statistics percentile with linear interpolation, written out."""
    s = sorted(float(v) for v in values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def float32_volumes(draw):
    """Finite float32 grids of 1-12 voxels a side, in C or F order: any
    values, a few tied levels, or a near-constant run of adjacent floats."""
    shape = draw(st.tuples(*[st.integers(1, 12)] * 3))
    kind = draw(st.sampled_from(["any", "levels", "near-constant"]))
    if kind == "any":
        elements = FLOAT32
    elif kind == "levels":
        elements = st.sampled_from(draw(st.lists(FLOAT32, min_size=1, max_size=3)))
    else:
        near = [np.float32(draw(FLOAT32))]
        near += [np.nextafter(near[-1], np.float32(0)) for _ in range(2)]
        elements = st.sampled_from([float(v) for v in near])
    data = draw(hnp.arrays(np.float32, shape, elements=elements))
    return np.asarray(data, order=draw(st.sampled_from("CF")))


PERCENTS = st.one_of(st.sampled_from([0, 100, 0.0, 100.0]), st.integers(0, 100), st.floats(0, 100))


class TestPercentiles:
    @settings(max_examples=300, deadline=None)
    @given(data=float32_volumes(), qs=st.lists(PERCENTS, min_size=1, max_size=2))
    def test_equals_numpy_on_the_float64_copy(self, data, qs):
        want = np.percentile(data.astype(np.float64), qs)
        got = _percentiles(data, qs)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        zeros = np.signbit(data[data == 0])
        if not (zeros.any() and not zeros.all()):
            # with +0.0 and -0.0 both in the data, the two compare equal, so
            # their order after the sort (as after numpy's partition) is
            # unspecified, and so is the sign of a zero result
            assert got.tobytes() == want.tobytes()


class TestParams:
    def test_defaults(self):
        p = PreprocessParams()
        assert (p.p_low, p.p_high, p.crop_enabled, p.crop_percentile, p.crop_margin) == \
            (1.0, 99.0, False, 90.0, 5)

    @pytest.mark.parametrize("kw", [
        {"p_low": -1}, {"p_high": 101}, {"p_low": 50, "p_high": 50},
        {"crop_margin": -1}, {"crop_percentile": 120},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            PreprocessParams(**kw)


class TestPercentileStretch:
    def test_constant_volume_maps_to_zero(self):
        v = Volume(np.full((4, 4, 2), 7.0, np.float32), SP)
        out = percentile_stretch(v)
        assert (out.data == 0).all()

    def test_full_range_affine_endpoints(self):
        data = np.linspace(-5, 20, 32, dtype=np.float32).reshape(4, 4, 2)
        out = percentile_stretch(Volume(data, SP), PreprocessParams(p_low=0, p_high=100))
        assert out.data.min() == 0.0
        assert out.data.max() == 255.0
        # interior point maps affinely
        mid = (data[1, 2, 0] - data.min()) / (data.max() - data.min()) * 255.0
        assert out.data[1, 2, 0] == pytest.approx(mid, rel=1e-6)

    def test_clamping_against_order_statistics_oracle(self):
        data = np.arange(100, dtype=np.float32).reshape(10, 10, 1)
        out = percentile_stretch(Volume(data, SP), PreprocessParams(p_low=1, p_high=99))
        lo = percentile_oracle(data.ravel(), 1.0)
        hi = percentile_oracle(data.ravel(), 99.0)
        expected = np.clip((data.astype(np.float64) - lo) / (hi - lo), 0, 1) * 255.0
        assert np.allclose(out.data, expected.astype(np.float32))
        assert out.data[0, 0, 0] == 0.0      # below the 1st percentile
        assert out.data[9, 9, 0] == 255.0    # above the 99th percentile

    def test_monotone(self):
        rng = np.random.default_rng(10)
        data = rng.uniform(-100, 300, (6, 6, 4)).astype(np.float32)
        out = percentile_stretch(Volume(data, SP), PreprocessParams(p_low=5, p_high=95))
        order = np.argsort(data.ravel(), kind="stable")
        stretched = out.data.ravel()[order]
        assert (np.diff(stretched) >= 0).all()

    def test_idempotent_up_to_clamping(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(0, 1000, (5, 5, 5)).astype(np.float32)
        p = PreprocessParams(p_low=0, p_high=100)
        once = percentile_stretch(Volume(data, SP), p)
        twice = percentile_stretch(once, p)
        assert np.abs(twice.data - once.data).max() <= 1e-3

    def test_output_within_range(self):
        rng = np.random.default_rng(12)
        data = rng.normal(50, 40, (8, 8, 2)).astype(np.float32)
        out = percentile_stretch(Volume(data, SP))
        assert out.data.min() >= 0.0 and out.data.max() <= 255.0


    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bytes_and_layout_follow_the_input(self, order):
        rng = np.random.default_rng(14)
        data = np.asarray(rng.normal(50, 40, (9, 7, 5)).astype(np.float32), order=order)
        out = percentile_stretch(Volume(data, SP), PreprocessParams(p_low=2.5, p_high=97))
        assert out.data.flags.f_contiguous  # x-fastest, whatever the input's layout
        lo, hi = np.percentile(data.astype(np.float64), (2.5, 97))
        want = (np.clip((data.astype(np.float64) - lo) / (hi - lo), 0.0, 1.0) * 255.0).astype(np.float32)
        assert out.data.dtype == np.float32 and out.data.tobytes("F") == want.tobytes("F")

    def test_peak_memory_is_the_float32_copy_and_the_output(self):
        # a float64 copy of the grid alone would be 2x; the guard is 2.5x
        data = np.asfortranarray(np.random.default_rng(15).normal(50, 40, (64, 64, 32)).astype(np.float32))
        assert traced_peak(percentile_stretch, Volume(data, SP)) <= 2.5 * data.nbytes


class TestDynamicCrop:
    def make_block_volume(self, dims=(32, 32, 32), block=slice(14, 18)):
        data = np.zeros(dims, np.float32)
        data[block, block, block] = 100.0
        return Volume(data, SP)

    def test_bright_block_exact_box(self):
        # the block is 0.2% of the grid, so a 99.9 percentile lands on its
        # intensity and the bright map is exactly the block
        vol = self.make_block_volume()
        cropped, box = dynamic_crop(vol, PreprocessParams(crop_enabled=True, crop_percentile=99.9,
                                                          crop_margin=0))
        assert box.lo == (14, 14, 14) and box.hi == (17, 17, 17)
        assert cropped.dims == (4, 4, 4)
        assert (cropped.data == 100.0).all()

    def test_margin_expands_and_clamps(self):
        vol = self.make_block_volume()
        _, box = dynamic_crop(vol, PreprocessParams(crop_enabled=True, crop_percentile=99.9,
                                                    crop_margin=3))
        assert box.lo == (11, 11, 11) and box.hi == (20, 20, 20)
        vol2 = self.make_block_volume(dims=(20, 20, 20), block=slice(0, 4))
        _, box2 = dynamic_crop(vol2, PreprocessParams(crop_enabled=True, crop_percentile=99.9,
                                                      crop_margin=6))
        assert box2.lo == (0, 0, 0) and box2.hi == (9, 9, 9)

    def test_uniform_volume_rejected(self):
        v = Volume(np.full((8, 8, 8), 3.0, np.float32), SP)
        with pytest.raises(DegenerateInputError):
            dynamic_crop(v, PreprocessParams(crop_enabled=True))

    def test_keeps_largest_bright_component(self):
        data = np.zeros((24, 8, 8), np.float32)
        data[2:10, 2:6, 2:6] = 50.0   # large component, 128 voxels
        data[20, 4, 4] = 60.0         # small but brighter outlier
        vol = Volume(data, SP)
        # 95th percentile of the 1536 values lands on 50: both structures
        # qualify, the box follows the larger one
        _, box = dynamic_crop(vol, PreprocessParams(crop_enabled=True, crop_percentile=95,
                                                    crop_margin=0))
        assert box.lo == (2, 2, 2) and box.hi == (9, 5, 5)

    def test_crop_never_discards_largest_component(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            data = rng.uniform(0, 10, (16, 16, 8)).astype(np.float32)
            x, y, z = rng.integers(2, 10, 3)
            data[x:x + 4, y:y + 4, z:z + 2] += 100.0
            vol = Volume(data, SP)
            params = PreprocessParams(crop_enabled=True, crop_percentile=95,
                                      crop_margin=int(rng.integers(0, 4)))
            _, box = dynamic_crop(vol, params)
            bright = data >= np.percentile(data.astype(np.float64), 95)
            labels, _ = ordered_components(bright, Connectivity.VERTEX26)
            largest = labels == 1
            inside = np.zeros_like(largest)
            inside[box.slices()] = True
            assert (largest <= inside).all()


class TestEmbedMask:
    def test_round_trip_coordinates(self):
        data = np.zeros((32, 32, 32), np.float32)
        data[10:20, 12:22, 8:16] = 80.0
        vol = Volume(data, SP)
        cropped, box = dynamic_crop(vol, PreprocessParams(crop_enabled=True, crop_percentile=99,
                                                          crop_margin=2))
        assert cropped.dims != vol.dims  # the crop is real
        local = Mask(cropped.data > 40.0, SP)
        full = embed_mask(local, box, vol.dims)
        assert (full.data == (data > 40.0)).all()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_the_layout_of_the_mask(self, order):
        local = Mask(np.asarray(np.random.default_rng(2).random((5, 4, 3)) < 0.5, order=order), SP)
        box = BBox((2, 1, 3), (6, 4, 5))
        full = embed_mask(local, box, (9, 8, 7))
        assert full.data.flags.f_contiguous and not full.data.flags.c_contiguous  # x-fastest
        assert np.array_equal(full.data[box.slices()], local.data) and full.count() == local.count()

    def test_dims_must_match_box(self):
        local = Mask(np.ones((3, 3, 3), bool), SP)
        with pytest.raises(GeometryError):
            embed_mask(local, BBox((0, 0, 0), (1, 1, 1)), (10, 10, 10))
