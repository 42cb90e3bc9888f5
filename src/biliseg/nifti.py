"""Single-file NIfTI-1 reader/writer (uncompressed .nii only).

Only the subset needed to exchange scalar volumes and binary masks is
supported: 3D images, datatypes uint8 / int16 / uint16 / float32, spacing
taken from pixdim[1..3]. Files are written little-endian; both endiannesses
are read (detected from sizeof_hdr). Orientation metadata beyond pixdim is
ignored.
"""
from __future__ import annotations

import os

import numpy as np

from .core import Mask, Spacing, Volume
from .errors import FormatError, GeometryError
from ._util import atomic_write

HEADER_SIZE = 348
VOX_OFFSET = 352

# the header fields biliseg reads or writes: name -> (byte offset, format).
# Every other header byte is written as zero and ignored on read.
_FIELDS = {
    "sizeof_hdr": (0, "i4"),
    "regular": (38, "S1"),
    "dim": (40, ("i2", (8,))),
    "datatype": (70, "i2"),
    "bitpix": (72, "i2"),
    "pixdim": (76, ("f4", (8,))),
    "vox_offset": (108, "f4"),
    "scl_slope": (112, "f4"),
    "scl_inter": (116, "f4"),
    "xyzt_units": (123, "u1"),
    "descrip": (148, "S80"),
    "magic": (344, "S4"),
}

# datatype code -> numpy type (bitpix follows from the dtype)
DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32, 512: np.uint16}


def _header_dtype(byteorder: str) -> np.dtype:
    return np.dtype({"names": list(_FIELDS),
                     "formats": [fmt for _, fmt in _FIELDS.values()],
                     "offsets": [offset for offset, _ in _FIELDS.values()],
                     "itemsize": HEADER_SIZE}).newbyteorder(byteorder)


def _bad(field: str, what: str) -> FormatError:
    return FormatError(f"{what} (byte offset {_FIELDS[field][0]})")


def _parse_header(raw: bytes):
    if len(raw) < HEADER_SIZE:
        raise _bad("sizeof_hdr", f"truncated header: {len(raw)} bytes, need {HEADER_SIZE}")
    for byteorder in ("<", ">"):
        hdr = np.frombuffer(raw, dtype=_header_dtype(byteorder))[0]
        if int(hdr["sizeof_hdr"]) == HEADER_SIZE:
            return hdr, byteorder
    raise _bad("sizeof_hdr", "sizeof_hdr is not 348 under either endianness")


def read_nifti(path, as_mask: bool = False):
    """Read an uncompressed single-file NIfTI-1 image.

    Returns a ``Volume`` (float32, scl_slope/scl_inter applied when slope is
    nonzero), or a ``Mask`` when ``as_mask`` is set and the image holds only
    the values 0 and 1.

    The payload is read into one buffer, sized from the header and checked
    against the file's size first, and viewed as the stored type: a native
    float32 image with ``scl_slope == 0`` is a ``Volume`` of that buffer.
    Without scaling a mask is decided on the stored values, which equal 0 or
    1 exactly when their float32 values do.
    """
    with open(path, "rb") as f:
        hdr, byteorder = _parse_header(f.read(HEADER_SIZE))

        magic = bytes(hdr["magic"])
        if magic != b"n+1":
            kind = " (two-file form is unsupported)" if magic == b"ni1" else ""
            raise _bad("magic", f"bad magic {magic!r}{kind}")
        dim = hdr["dim"]
        if int(dim[0]) != 3:
            raise _bad("dim", f"expected a 3D image (dim[0] == 3), got dim[0] == {int(dim[0])}")
        nx, ny, nz = (int(dim[i]) for i in (1, 2, 3))
        if min(nx, ny, nz) < 1:
            raise _bad("dim", f"non-positive dims {(nx, ny, nz)}")
        code = int(hdr["datatype"])
        if code not in DTYPES:
            raise _bad("datatype", f"unsupported datatype code {code}")
        dtype = np.dtype(DTYPES[code]).newbyteorder(byteorder)
        if int(hdr["bitpix"]) != dtype.itemsize * 8:
            raise _bad("bitpix", f"bitpix {int(hdr['bitpix'])} inconsistent with datatype {code}")
        pixdim = [float(hdr["pixdim"][i]) for i in (1, 2, 3)]
        if any(not np.isfinite(p) or p <= 0 for p in pixdim):
            raise _bad("pixdim", f"non-positive pixdim {pixdim}")
        if not np.isfinite(hdr["vox_offset"]):
            raise _bad("vox_offset", f"non-finite vox_offset {float(hdr['vox_offset'])}")
        vox_offset = int(hdr["vox_offset"])
        if vox_offset < HEADER_SIZE:
            raise _bad("vox_offset", f"vox_offset {vox_offset} overlaps the header")

        # checked before the buffer is allocated or the file is sought: an
        # offset or dims far past the file would not fit either
        nbytes = nx * ny * nz * dtype.itemsize
        held = min(max(os.fstat(f.fileno()).st_size - vox_offset, 0), nbytes)
        if held == nbytes:
            data = np.empty(nbytes, np.uint8)
            f.seek(vox_offset)
            held = f.readinto(data)
        if held < nbytes:
            raise FormatError(
                f"truncated data: expected {nbytes} bytes at offset {vox_offset}, file holds {held}"
            )
    data = data.view(dtype).reshape((nx, ny, nz), order="F")

    slope = float(hdr["scl_slope"])
    inter = float(hdr["scl_inter"])
    if not (np.isfinite(slope) and np.isfinite(inter)):
        raise _bad("scl_slope", "non-finite scl_slope/scl_inter")
    if slope != 0.0:
        try:
            # only an overflow is the scale's fault: a NaN or inf stored in
            # the data is left to the Volume's own check
            with np.errstate(over="raise"):
                data = data.astype(np.float32) * np.float32(slope) + np.float32(inter)
        except FloatingPointError:
            raise _bad("scl_slope", f"scl_slope {slope:g} and scl_inter {inter:g} scale a value "
                                    "past float32's range") from None

    spacing = Spacing(*pixdim)
    if as_mask:
        mask = data == 1
        valid = data == 0
        valid |= mask
        if not valid.all():
            raise FormatError(f"{path}: image holds values other than 0/1, cannot load as a mask")
        return Mask(mask, spacing)
    return Volume(data, spacing)


def write_nifti(obj, path) -> None:
    """Write a Volume (float32) or Mask (uint8 with values 0/1) as .nii.

    The write is atomic: either the complete file appears at ``path`` or
    nothing is left behind. Reading the file back reproduces dims and data
    bit-exactly and the spacing rounded to float32, as pixdim stores it. A
    dim above 32767, or a spacing whose float32 value is infinite or zero,
    does not fit the header and raises ``GeometryError`` before any write.
    """
    if isinstance(obj, Mask):
        code = 2
    elif isinstance(obj, Volume):
        code = 16
    else:
        raise TypeError(f"expected Volume or Mask, got {type(obj).__name__}")
    if max(obj.dims) > 32767:
        raise GeometryError(f"dims {obj.dims}: NIfTI-1 stores at most 32767 voxels per axis")
    with np.errstate(over="ignore"):  # pixdim, as the header stores it
        pixdim = np.array(obj.spacing.as_tuple()).astype(np.float32)
    if np.isinf(pixdim).any() or not pixdim.all():
        raise GeometryError(f"spacing {obj.spacing.as_tuple()}: pixdim leaves NIfTI's float32 range")
    # x-fastest on disk: the transpose of a Fortran-ordered body is C-contiguous
    body = obj.data.astype(np.dtype(DTYPES[code]).newbyteorder("<"), order="F", copy=False)

    # scl_slope stays 0: the values are stored unscaled
    hdr = np.zeros((), dtype=_header_dtype("<"))
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"] = (3, *obj.dims, 1, 1, 1, 1)
    hdr["datatype"] = code
    hdr["bitpix"] = body.itemsize * 8
    hdr["pixdim"] = (1, *pixdim, 0, 0, 0, 0)
    hdr["vox_offset"] = VOX_OFFSET
    hdr["xyzt_units"] = 2  # mm
    hdr["descrip"] = b"biliseg"
    hdr["magic"] = b"n+1"
    atomic_write(path, [hdr, bytes(VOX_OFFSET - HEADER_SIZE), body.T])
