import contextlib
import io
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biliseg import FormatError, GeometryError, Mask, Spacing, Volume, read_nifti, write_nifti
from biliseg.cli import main
from conftest import raw_nifti_bytes, traced_peak


def write_raw(tmp_path, name, blob):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


class TestRead:
    def test_header_echo(self, tmp_path):
        arr = np.arange(4 * 4 * 2, dtype=np.uint8).reshape(4, 4, 2)
        path = write_raw(tmp_path, "a.nii", raw_nifti_bytes(arr, (1, 1, 2), 2))
        vol = read_nifti(path)
        assert vol.dims == (4, 4, 2)
        assert vol.spacing == Spacing(1, 1, 2)
        assert (vol.data == arr).all()

    def test_layout_x_fastest(self, tmp_path):
        # first stored value is voxel (0,0,0), second is (1,0,0)
        arr = np.zeros((3, 2, 2), dtype=np.uint8)
        arr[0, 0, 0] = 9
        arr[1, 0, 0] = 7
        blob = raw_nifti_bytes(arr, (1, 1, 1), 2)
        assert blob[352] == 9 and blob[353] == 7
        vol = read_nifti(write_raw(tmp_path, "x.nii", blob))
        assert vol.data[0, 0, 0] == 9 and vol.data[1, 0, 0] == 7

    def test_scaling_applied(self, tmp_path):
        arr = np.full((2, 2, 2), 10, dtype=np.int16)
        path = write_raw(tmp_path, "s.nii", raw_nifti_bytes(arr, (1, 1, 1), 4, scl=(2.0, 1.0)))
        vol = read_nifti(path)
        assert (vol.data == 21.0).all()

    def test_zero_slope_means_raw(self, tmp_path):
        arr = np.full((2, 2, 2), 10, dtype=np.int16)
        path = write_raw(tmp_path, "s0.nii", raw_nifti_bytes(arr, (1, 1, 1), 4, scl=(0.0, 5.0)))
        assert (read_nifti(path).data == 10.0).all()

    def test_big_endian(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 1000, (5, 4, 3)).astype(np.uint16)
        path = write_raw(tmp_path, "be.nii", raw_nifti_bytes(arr, (0.664, 0.664, 2.0), 512, endian=">"))
        vol = read_nifti(path)
        assert (vol.data == arr).all()
        assert vol.spacing == Spacing(np.float32(0.664), np.float32(0.664), 2.0)

    def test_two_file_magic_rejected(self, tmp_path):
        arr = np.zeros((2, 2, 2), dtype=np.uint8)
        path = write_raw(tmp_path, "m.nii", raw_nifti_bytes(arr, (1, 1, 1), 2, magic=b"ni1\x00"))
        with pytest.raises(FormatError, match="344"):
            read_nifti(path)

    def test_unsupported_datatype_rejected(self, tmp_path):
        arr = np.zeros((2, 2, 2), dtype=np.uint8)
        blob = bytearray(raw_nifti_bytes(arr, (1, 1, 1), 2))
        blob[70:72] = (64).to_bytes(2, "little")  # float64, unsupported
        blob[72:74] = (64).to_bytes(2, "little")
        with pytest.raises(FormatError, match="70"):
            read_nifti(write_raw(tmp_path, "dt.nii", bytes(blob)))

    def test_truncated_data_rejected(self, tmp_path):
        arr = np.zeros((4, 4, 4), dtype=np.uint8)
        blob = raw_nifti_bytes(arr, (1, 1, 1), 2)
        with pytest.raises(FormatError, match="truncated"):
            read_nifti(write_raw(tmp_path, "t.nii", blob[:-10]))

    def test_truncated_header_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_nifti(write_raw(tmp_path, "h.nii", b"\x00" * 100))

    def test_non_3d_rejected(self, tmp_path):
        arr = np.zeros((2, 2, 2), dtype=np.uint8)
        path = write_raw(tmp_path, "d4.nii", raw_nifti_bytes(arr, (1, 1, 1), 2, dim0=4))
        with pytest.raises(FormatError, match="3D"):
            read_nifti(path)

    def test_bad_sizeof_hdr_rejected(self, tmp_path):
        blob = bytearray(raw_nifti_bytes(np.zeros((2, 2, 2), np.uint8), (1, 1, 1), 2))
        blob[0:4] = (999).to_bytes(4, "little")
        with pytest.raises(FormatError):
            read_nifti(write_raw(tmp_path, "sz.nii", bytes(blob)))

    def test_mask_on_request(self, tmp_path):
        arr = (np.arange(8).reshape(2, 2, 2) % 2).astype(np.uint8)
        path = write_raw(tmp_path, "mk.nii", raw_nifti_bytes(arr, (1, 1, 1), 2))
        mask = read_nifti(path, as_mask=True)
        assert isinstance(mask, Mask)
        assert (mask.data == arr.astype(bool)).all()

    def test_mask_rejects_other_values(self, tmp_path):
        arr = np.full((2, 2, 2), 3, dtype=np.uint8)
        path = write_raw(tmp_path, "mk2.nii", raw_nifti_bytes(arr, (1, 1, 1), 2))
        with pytest.raises(FormatError, match="0/1"):
            read_nifti(path, as_mask=True)

    @pytest.mark.parametrize("value", [0.5, -1.0, np.nan])
    def test_mask_rejects_one_odd_float(self, tmp_path, value):
        arr = np.zeros((2, 2, 2), dtype=np.float32)
        arr[0, 1, 0] = 1.0
        arr[1, 0, 1] = value
        path = write_raw(tmp_path, "mk3.nii", raw_nifti_bytes(arr, (1, 1, 1), 16))
        with pytest.raises(FormatError, match="0/1"):
            read_nifti(path, as_mask=True)


# datatype code -> stored type, and values each may hold: 0 and 1, a value a
# mask rejects, and for float32 the -0.0 and NaN that compare as 0 and as
# neither
STORED = {2: np.uint8, 4: np.int16, 512: np.uint16, 16: np.float32}
STORED_VALUES = {2: [0, 1, 2, 255], 4: [0, 1, 2, -7, 32767], 512: [0, 1, 2, 65535],
                 16: [0.0, 1.0, 2.0, -0.0, np.nan, 1.5, -7.25, 1e30]}


def decode_whole_file(blob, code, endian, dims, vox_offset, scl, path, as_mask):
    """The decode that held the whole file: ``np.frombuffer`` of its bytes,
    cast to float32, scaled when the slope is nonzero, and a mask decided
    on the float32 values."""
    stored = np.frombuffer(blob, np.dtype(STORED[code]).newbyteorder(endian),
                           count=math.prod(dims), offset=vox_offset)
    values = stored.reshape(dims, order="F").astype(np.float32)
    if scl[0] != 0.0:
        values = values * np.float32(scl[0]) + np.float32(scl[1])
    spacing = Spacing(1.0, 1.25, 2.0)
    if as_mask:
        if not ((values == 1) | (values == 0)).all():
            raise FormatError(f"{path}: image holds values other than 0/1, cannot load as a mask")
        return Mask(values == 1, spacing)
    return Volume(values, spacing)


def outcome(fn, *args):
    """``fn(*args)`` as (type, data bytes, dtype, F layout, spacing), or as
    (error type, error text)."""
    try:
        out = fn(*args)
    except (FormatError, GeometryError) as e:
        return type(e), str(e)
    return type(out), out.data.tobytes(), out.data.dtype, out.data.flags.f_contiguous, out.spacing


class TestReadMatchesWholeFileDecode:
    """``read_nifti`` gives the bytes, dtype and layout, or the error text,
    of the decode that held the whole file and a float32 copy of it."""

    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("code", sorted(STORED))
    def test_every_stored_type(self, tmp_path, code, endian):
        rng = np.random.default_rng(code)
        pool = STORED_VALUES[code]
        for case in range(24):
            dims = tuple(int(n) for n in rng.integers(1, 6, 3))
            # a mask-like image, then one that may hold any of the values
            choices = pool[:2] + pool[3:4] * (code == 16) if case % 2 == 0 else pool
            arr = np.array(rng.choice(np.array(choices, dtype=STORED[code]), size=dims))
            scl = [(0.0, 0.0), (0.0, 5.0), (1.0, 0.0), (2.0, -1.0), (0.5, 0.5), (-1.0, 1.0)][case % 6]
            vox_offset = 352 if case % 3 else 400 + 4 * case
            blob = raw_nifti_bytes(arr, (1.0, 1.25, 2.0), code, endian=endian, scl=scl,
                                   vox_offset=vox_offset)
            path = write_raw(tmp_path, f"{case}.nii", blob)
            for as_mask in (False, True):
                want = outcome(decode_whole_file, blob, code, endian, dims, vox_offset, scl, path, as_mask)
                assert outcome(read_nifti, path, as_mask) == want, (case, as_mask)


class TestReadMemory:
    """Peak bytes of a read, under tracemalloc. A 64x64x32 grid, so that
    fixed costs are small beside it."""

    DIMS = (64, 64, 32)

    def test_float32_volume_is_the_payload_buffer(self, tmp_path):
        # the buffer, which the Volume keeps (1x), and its finiteness check
        # (0.25x); the guard catches a copy of the file or of the payload
        data = np.random.default_rng(1).uniform(0, 255, self.DIMS).astype(np.float32)
        write_nifti(Volume(data, Spacing(1, 1, 1)), tmp_path / "v.nii")
        assert traced_peak(read_nifti, tmp_path / "v.nii") <= 1.5 * data.nbytes

    def test_mask_is_decided_on_the_stored_bytes(self, tmp_path):
        # the uint8 buffer, the mask and the 0-or-1 test: one bool grid each;
        # the guard catches a float32 copy
        mask = Mask(np.random.default_rng(2).random(self.DIMS) < 0.3, Spacing(1, 1, 1))
        write_nifti(mask, tmp_path / "m.nii")
        assert traced_peak(read_nifti, tmp_path / "m.nii", True) <= 3.5 * mask.data.size


class TestWrite:
    def test_volume_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        vol = Volume(rng.standard_normal((8, 8, 4)).astype(np.float32), Spacing(1.5, 0.75, 2.0))
        path = tmp_path / "v.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing
        assert (back.data == vol.data).all()

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        mask = Mask(rng.random((6, 5, 7)) < 0.5, Spacing(1.094, 1.094, 1.5))
        path = tmp_path / "m.nii"
        write_nifti(mask, path)
        back = read_nifti(path, as_mask=True)
        assert (back.data == mask.data).all()
        # spacing survives the header's float32 precision
        assert back.spacing == Spacing(np.float32(1.094), np.float32(1.094), 1.5)

    def test_mask_stored_as_uint8(self, tmp_path):
        mask = Mask(np.ones((2, 2, 2), bool), Spacing(1, 1, 1))
        path = tmp_path / "u8.nii"
        write_nifti(mask, path)
        blob = path.read_bytes()
        assert int.from_bytes(blob[70:72], "little") == 2  # uint8 code
        assert blob[352:360] == b"\x01" * 8

    def test_unwritable_path_leaves_nothing(self, tmp_path):
        target_dir = tmp_path / "missing" / "deeper"
        vol = Volume(np.zeros((2, 2, 2), np.float32), Spacing(1, 1, 1))
        with pytest.raises(OSError):
            write_nifti(vol, target_dir / "v.nii")
        assert not target_dir.exists()
        assert list(tmp_path.iterdir()) == []

    def test_write_is_deterministic(self, tmp_path):
        vol = Volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2), Spacing(1, 1, 1))
        a, b = tmp_path / "a.nii", tmp_path / "b.nii"
        write_nifti(vol, a)
        write_nifti(vol, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError):
            write_nifti(np.zeros((2, 2, 2)), tmp_path / "x.nii")

    def test_largest_dim_round_trips(self, tmp_path):
        mask = Mask(np.ones((32767, 1, 1), bool), Spacing(0.3, 1.0, 1.0))
        write_nifti(mask, tmp_path / "m.nii")
        back = read_nifti(tmp_path / "m.nii", as_mask=True)
        assert back.dims == (32767, 1, 1) and back.data.all()
        # pixdim is float32: 0.3 reads back as its float32 value
        assert back.spacing.dx == float(np.float32(0.3)) == 0.30000001192092896

    @pytest.mark.parametrize("dims, spacing, match", [
        ((32768, 1, 1), (1.0, 1.0, 1.0), "at most 32767 voxels per axis"),
        ((1, 1, 1), (1e39, 1e39, 1e39), "float32 range"),  # float32 inf
        ((1, 1, 1), (1e-46, 1e-46, 1e-46), "float32 range"),  # float32 zero
    ], ids=["dim-32768", "spacing-1e39", "spacing-1e-46"])
    def test_grid_the_header_cannot_hold_rejected(self, tmp_path, dims, spacing, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=match):
                write_nifti(Mask(np.ones(dims, bool), Spacing(*spacing)), tmp_path / "m.nii")
        assert list(tmp_path.iterdir()) == []


class TestRoundTripAllDatatypes:
    """Decoded values survive read -> write -> read bit-exactly for every
    supported on-disk datatype (>= 50 randomized cases overall)."""

    @pytest.mark.parametrize("code,dtype,lo,hi", [
        (2, np.uint8, 0, 255),
        (4, np.int16, -32768, 32767),
        (512, np.uint16, 0, 65535),
        (16, np.float32, -1000.0, 1000.0),
    ])
    def test_round_trip(self, tmp_path, code, dtype, lo, hi):
        rng = np.random.default_rng(code)
        for case in range(14):
            dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
            if np.issubdtype(dtype, np.integer):
                arr = rng.integers(lo, hi, size=dims).astype(dtype)
            else:
                arr = rng.uniform(lo, hi, size=dims).astype(dtype)
            endian = "<" if case % 2 == 0 else ">"
            src = write_raw(tmp_path, f"{code}_{case}.nii",
                            raw_nifti_bytes(arr, (1.0, 1.25, 2.0), code, endian=endian))
            first = read_nifti(src)
            out = tmp_path / f"{code}_{case}_rt.nii"
            write_nifti(first, out)
            second = read_nifti(out)
            assert second.dims == first.dims
            assert second.spacing == first.spacing
            assert (second.data == first.data).all()
            assert (first.data == arr.astype(np.float32)).all()


class TestHeaderEdgeCases:
    def test_vox_offset_inside_header_rejected(self, tmp_path):
        arr = np.zeros((2, 2, 2), dtype=np.uint8)
        blob = raw_nifti_bytes(arr, (1, 1, 1), 2, vox_offset=352)
        patched = bytearray(blob)
        import struct
        struct.pack_into("<f", patched, 108, 100.0)
        with pytest.raises(FormatError, match="vox_offset"):
            read_nifti(write_raw(tmp_path, "vo.nii", bytes(patched)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_vox_offset_rejected(self, tmp_path, value):
        patched = bytearray(raw_nifti_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), 2))
        struct.pack_into("<f", patched, 108, value)
        with pytest.raises(FormatError, match="vox_offset.*byte offset 108"):
            read_nifti(write_raw(tmp_path, "vo.nii", bytes(patched)))

    @pytest.mark.parametrize("field_offset,at,patch", [
        (0, 0, struct.pack("<i", 999)),
        (40, 40, struct.pack("<h", 4)),
        (72, 72, struct.pack("<h", 16)),
        (76, 80, struct.pack("<f", -1.0)),
        (108, 108, struct.pack("<f", 100.0)),
        (112, 112, struct.pack("<f", float("nan"))),
    ], ids=["sizeof_hdr", "dim", "bitpix", "pixdim", "vox_offset", "scl_slope"])
    def test_error_names_the_field_offset(self, tmp_path, field_offset, at, patch):
        patched = bytearray(raw_nifti_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), 2))
        patched[at:at + len(patch)] = patch
        with pytest.raises(FormatError, match=rf"\(byte offset {field_offset}\)$"):
            read_nifti(write_raw(tmp_path, "f.nii", bytes(patched)))

    @pytest.mark.parametrize("at, patch, nbytes, offset", [
        (108, struct.pack("<f", 1e30), 8, int(np.float32(1e30))),
        (42, struct.pack("<3h", 32767, 32767, 32767), 32767 ** 3, 352),
    ], ids=["vox_offset-1e30", "dims-32767-cubed"])
    def test_payload_past_the_file_is_truncated_data(self, tmp_path, capsys, at, patch, nbytes, offset):
        # the payload is sized against the file before any seek or allocation
        patched = bytearray(raw_nifti_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1), 2))
        patched[at:at + len(patch)] = patch
        path = write_raw(tmp_path, "p.nii", bytes(patched))
        held = 8 if offset == 352 else 0
        text = f"truncated data: expected {nbytes} bytes at offset {offset}, file holds {held}"
        with pytest.raises(FormatError) as e:
            read_nifti(path)
        assert str(e.value) == text
        assert main(["evaluate", "--in", str(path), "--truth", str(path),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    def test_nonpositive_pixdim_rejected(self, tmp_path):
        arr = np.zeros((2, 2, 2), dtype=np.uint8)
        blob = raw_nifti_bytes(arr, (1.0, -1.0, 1.0), 2)
        with pytest.raises(FormatError, match="pixdim"):
            read_nifti(write_raw(tmp_path, "pd.nii", blob))

    def test_larger_vox_offset_honored(self, tmp_path):
        arr = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        blob = raw_nifti_bytes(arr, (1, 1, 1), 2, vox_offset=500)
        vol = read_nifti(write_raw(tmp_path, "big.nii", blob))
        assert (vol.data == arr).all()


@pytest.fixture(scope="module")
def small_images(tmp_path_factory):
    """A truth mask and a volume (int16, the truth near 200 over about 10) of a small
    case, their NIfTI bytes, and a cropping ``segment`` config."""
    d = tmp_path_factory.mktemp("images")
    truth = np.zeros((4, 3, 2), dtype=np.uint8)
    truth[1:3, 1, :] = 1
    blob = raw_nifti_bytes(truth, (1.0, 1.0, 2.0), 2)
    volume = raw_nifti_bytes(truth * 190 + 10 + np.arange(24).reshape(4, 3, 2), (1.0, 1.0, 2.0), 4)
    cfg = d / "segment.json"
    cfg.write_text(json.dumps({
        "method": "threshold", "threshold": {"t_min": 100.0, "t_max": 255.0},
        "preprocess": {"crop_enabled": True, "crop_percentile": 90.0, "crop_margin": 1},
        "postprocess": [{"policy": "keep_largest"}]}))
    return d, blob, write_raw(d, "truth.nii", blob), volume, cfg


# where read_nifti reads sizeof_hdr, dim, datatype, bitpix, pixdim,
# vox_offset, scl_slope/scl_inter and magic
FIELD_OFFSETS = [0, *range(40, 56, 2), 70, 72, *range(76, 120, 4), 344]


@settings(max_examples=150, deadline=None)
@given(offset=st.sampled_from(FIELD_OFFSETS) | st.integers(0, 347),
       patch=st.binary(min_size=1, max_size=8)
       | st.floats(width=32).map(lambda v: struct.pack("<f", v))
       | st.integers(-2**15, 2**15 - 1).map(lambda v: struct.pack("<h", v)))
@example(offset=108, patch=struct.pack("<f", float("nan")))
@example(offset=112, patch=struct.pack("<ff", 3e38, 3e38))  # scl_slope, scl_inter
@example(offset=108, patch=struct.pack("<f", 1e30))  # vox_offset far past the file
@example(offset=42, patch=struct.pack("<3h", 32767, 32767, 32767))  # dims too large to allocate
def test_mutated_header_exits_cleanly(small_images, offset, patch):
    """Any bytes written into the header of a prediction (through
    ``evaluate``) or of a volume (through a cropping ``segment``) give a
    documented exit code, never an uncaught exception."""
    d, blob, truth, volume, cfg = small_images
    # a fresh directory per example: rewriting one path on every example
    # waits for the file system to write back its last version
    e = Path(tempfile.mkdtemp(dir=d))
    runs = [(blob, ["evaluate", "--truth", str(truth), "--out", str(e / "r.json")]),
            (volume, ["segment", "--config", str(cfg), "--out", str(e / "m.nii")])]
    for image, argv in runs:
        mutated = bytearray(image)
        mutated[offset:offset + len(patch)] = patch[:348 - offset]
        path = write_raw(e, "in.nii", bytes(mutated))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--in", str(path)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
