import numpy as np
import pytest

from biliseg._util import atomic_write


def test_chunks_are_written_in_order(tmp_path):
    arr = np.arange(6, dtype="<f4").reshape(2, 3)
    path = tmp_path / "out.bin"
    atomic_write(path, [b"head", np.array(7, "<u4"), arr, np.asfortranarray(arr).T])
    assert path.read_bytes() == (b"head" + (7).to_bytes(4, "little")
                                 + arr.tobytes() + arr.tobytes(order="F"))
    assert list(tmp_path.iterdir()) == [path]


def test_failed_chunk_leaves_no_temp_and_keeps_target(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"before")
    not_contiguous = np.arange(6, dtype="<f4").reshape(2, 3).T
    with pytest.raises(ValueError):
        atomic_write(path, [b"head", not_contiguous])
    assert path.read_bytes() == b"before"
    assert list(tmp_path.iterdir()) == [path]


def test_generator_that_fails_midway_leaves_no_temp_and_keeps_target(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"before")

    def chunks():
        yield b"first"
        assert (tmp_path / "out.bin.tmp").exists()  # opened before the generator ran out
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        atomic_write(path, chunks())
    assert path.read_bytes() == b"before"
    assert list(tmp_path.iterdir()) == [path]
