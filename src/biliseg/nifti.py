"""Single-file NIfTI-1 reader/writer (uncompressed .nii only).

Only the subset needed to exchange scalar volumes and binary masks is
supported: 3D images, datatypes uint8 / int16 / uint16 / float32, spacing
taken from pixdim[1..3]. Files are written little-endian; both endiannesses
are read (detected from sizeof_hdr). Orientation metadata beyond pixdim is
ignored.
"""
from __future__ import annotations

import numpy as np

from .core import Mask, Spacing, Volume
from .errors import FormatError
from ._util import atomic_write

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_OFFSET = 344
DATATYPE_OFFSET = 70

_HEADER_FIELDS = [
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]

# datatype code -> numpy type (bitpix follows from the dtype)
DTYPES = {2: np.uint8, 4: np.int16, 16: np.float32, 512: np.uint16}


def _header_dtype(byteorder: str) -> np.dtype:
    return np.dtype([(f[0], byteorder + f[1], *f[2:]) for f in _HEADER_FIELDS])


def _parse_header(raw: bytes):
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"truncated header: {len(raw)} bytes, need {HEADER_SIZE} (byte offset 0)")
    for byteorder in ("<", ">"):
        hdr = np.frombuffer(raw[:HEADER_SIZE], dtype=_header_dtype(byteorder))[0]
        if int(hdr["sizeof_hdr"]) == HEADER_SIZE:
            return hdr, byteorder
    raise FormatError("sizeof_hdr is not 348 under either endianness (byte offset 0)")


def read_nifti(path, as_mask: bool = False):
    """Read an uncompressed single-file NIfTI-1 image.

    Returns a ``Volume`` (float32, scl_slope/scl_inter applied when slope is
    nonzero), or a ``Mask`` when ``as_mask`` is set and the image holds only
    the values 0 and 1.
    """
    with open(path, "rb") as f:
        raw = f.read()
    hdr, byteorder = _parse_header(raw)

    magic = bytes(hdr["magic"])
    if magic != b"n+1":
        kind = " (two-file form is unsupported)" if magic == b"ni1" else ""
        raise FormatError(f"bad magic {magic!r}{kind} (byte offset {MAGIC_OFFSET})")
    dim = hdr["dim"]
    if int(dim[0]) != 3:
        raise FormatError(f"expected a 3D image (dim[0] == 3), got dim[0] == {int(dim[0])} (byte offset 40)")
    nx, ny, nz = (int(dim[i]) for i in (1, 2, 3))
    if min(nx, ny, nz) < 1:
        raise FormatError(f"non-positive dims {(nx, ny, nz)} (byte offset 40)")
    code = int(hdr["datatype"])
    if code not in DTYPES:
        raise FormatError(f"unsupported datatype code {code} (byte offset {DATATYPE_OFFSET})")
    dtype = np.dtype(DTYPES[code]).newbyteorder(byteorder)
    if int(hdr["bitpix"]) != dtype.itemsize * 8:
        raise FormatError(f"bitpix {int(hdr['bitpix'])} inconsistent with datatype {code} (byte offset 72)")
    pixdim = [float(hdr["pixdim"][i]) for i in (1, 2, 3)]
    if any(not np.isfinite(p) or p <= 0 for p in pixdim):
        raise FormatError(f"non-positive pixdim {pixdim} (byte offset 76)")
    if not np.isfinite(hdr["vox_offset"]):
        raise FormatError(f"non-finite vox_offset {float(hdr['vox_offset'])} (byte offset 108)")
    vox_offset = int(hdr["vox_offset"])
    if vox_offset < HEADER_SIZE:
        raise FormatError(f"vox_offset {vox_offset} overlaps the header (byte offset 108)")

    nbytes = nx * ny * nz * dtype.itemsize
    payload = raw[vox_offset:vox_offset + nbytes]
    if len(payload) < nbytes:
        raise FormatError(
            f"truncated data: expected {nbytes} bytes at offset {vox_offset}, file holds {len(payload)}"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape((nx, ny, nz), order="F")

    slope = float(hdr["scl_slope"])
    inter = float(hdr["scl_inter"])
    if not (np.isfinite(slope) and np.isfinite(inter)):
        raise FormatError("non-finite scl_slope/scl_inter (byte offset 112)")
    values = data.astype(np.float32)
    if slope != 0.0:
        values = values * np.float32(slope) + np.float32(inter)

    spacing = Spacing(*pixdim)
    if as_mask:
        mask = values == 1
        if not (mask | (values == 0)).all():
            raise FormatError(f"{path}: image holds values other than 0/1, cannot load as a mask")
        return Mask(mask, spacing)
    return Volume(values, spacing)


def _blank_header() -> np.ndarray:
    hdr = np.zeros((), dtype=_header_dtype("<"))
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["regular"] = b"r"
    hdr["dim"] = (3, 1, 1, 1, 1, 1, 1, 1)
    hdr["pixdim"] = (1, 1, 1, 1, 0, 0, 0, 0)
    hdr["vox_offset"] = VOX_OFFSET
    hdr["xyzt_units"] = 2  # mm
    hdr["descrip"] = b"biliseg"
    hdr["magic"] = b"n+1"
    return hdr


def write_nifti(obj, path) -> None:
    """Write a Volume (float32) or Mask (uint8 with values 0/1) as .nii.

    The write is atomic: either the complete file appears at ``path`` or
    nothing is left behind. Reading the file back reproduces dims, spacing
    and data bit-exactly.
    """
    if isinstance(obj, Mask):
        code = 2
    elif isinstance(obj, Volume):
        code = 16
    else:
        raise TypeError(f"expected Volume or Mask, got {type(obj).__name__}")
    # x-fastest on disk: the transpose of a Fortran-ordered body is C-contiguous
    body = obj.data.astype(np.dtype(DTYPES[code]).newbyteorder("<"), order="F", copy=False)

    hdr = _blank_header()
    nx, ny, nz = obj.dims
    hdr["dim"] = (3, nx, ny, nz, 1, 1, 1, 1)
    hdr["pixdim"] = (1, obj.spacing.dx, obj.spacing.dy, obj.spacing.dz, 0, 0, 0, 0)
    hdr["datatype"] = code
    hdr["bitpix"] = body.itemsize * 8
    hdr["scl_slope"] = 0.0
    hdr["scl_inter"] = 0.0
    atomic_write(path, hdr, bytes(VOX_OFFSET - HEADER_SIZE), body.T)
